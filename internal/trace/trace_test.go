package trace

import (
	"bytes"
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"padll/internal/clock"
	"padll/internal/localfs"
	"padll/internal/posix"
)

var epoch = time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC)

func smallTrace() *Trace {
	t := NewTrace(time.Minute, posix.OpOpen, posix.OpGetAttr)
	t.Append(100, 300)
	t.Append(200, 600)
	t.Append(50, 150)
	return t
}

func TestTraceBasics(t *testing.T) {
	tr := smallTrace()
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.Duration() != 3*time.Minute {
		t.Errorf("Duration = %v", tr.Duration())
	}
	if got := tr.RateAt(posix.OpOpen, 90*time.Second); got != 200 {
		t.Errorf("RateAt(open, 90s) = %v, want 200 (second sample)", got)
	}
	if got := tr.RateAt(posix.OpOpen, time.Hour); got != 0 {
		t.Errorf("RateAt past end = %v, want 0", got)
	}
	if got := tr.RateAt(posix.OpRename, 0); got != 0 {
		t.Errorf("RateAt unknown op = %v, want 0", got)
	}
}

func TestAppendArityMismatch(t *testing.T) {
	tr := NewTrace(time.Minute, posix.OpOpen)
	if err := tr.Append(1, 2); err == nil {
		t.Error("Append accepted wrong arity")
	}
}

func TestSliceScaleFilter(t *testing.T) {
	tr := smallTrace()
	s := tr.Slice(1, 3)
	if s.Len() != 2 || s.Rates[posix.OpOpen][0] != 200 {
		t.Errorf("Slice = %+v", s.Rates)
	}
	if tr.Slice(-1, 99).Len() != 3 {
		t.Error("Slice must clamp bounds")
	}
	if tr.Slice(2, 1).Len() != 0 {
		t.Error("inverted Slice must be empty")
	}
	sc := tr.Scale(0.5)
	if sc.Rates[posix.OpGetAttr][1] != 300 {
		t.Errorf("Scale = %v", sc.Rates[posix.OpGetAttr])
	}
	f := tr.Filter(posix.OpGetAttr, posix.OpRename)
	if len(f.Ops) != 2 || f.Rates[posix.OpGetAttr][0] != 300 {
		t.Errorf("Filter = %+v", f.Rates)
	}
	if len(f.Rates[posix.OpRename]) != 3 {
		t.Error("Filter must zero-fill missing ops")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := smallTrace()
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tr.Len() || back.SampleInterval != tr.SampleInterval {
		t.Fatalf("round trip shape: %d/%v", back.Len(), back.SampleInterval)
	}
	for _, op := range tr.Ops {
		for i := range tr.Rates[op] {
			if math.Abs(back.Rates[op][i]-tr.Rates[op][i]) > 0.01 {
				t.Errorf("%v[%d] = %v, want %v", op, i, back.Rates[op][i], tr.Rates[op][i])
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	bad := []string{
		"",
		"60\n",            // no ops
		"x,open\n1\n",     // bad interval
		"60,bogus\n1\n",   // unknown op
		"60,open\n1,2\n",  // arity
		"60,open\nnope\n", // bad rate
		"60,open\n-5\n",   // negative rate
	}
	for _, s := range bad {
		if _, err := ReadCSV(bytes.NewBufferString(s)); err == nil {
			t.Errorf("ReadCSV(%q) accepted invalid input", s)
		}
	}
}

func TestGeneratorMatchesPFSAStatistics(t *testing.T) {
	tr := PFSALike(1)
	st := Analyze(tr)

	if st.Samples != 30*24*60 {
		t.Fatalf("samples = %d, want 43200 (30 days of 1-min samples)", st.Samples)
	}
	// §II-A: average ≈200 KOps/s.
	if st.MeanTotal < 150_000 || st.MeanTotal > 260_000 {
		t.Errorf("mean total = %.0f, want ≈200K", st.MeanTotal)
	}
	// Bursts peak at 1 MOps/s.
	if st.PeakTotal < 900_000 || st.PeakTotal > 1_050_000 {
		t.Errorf("peak = %.0f, want ≈1M", st.PeakTotal)
	}
	// Lulls of 50 KOps/s or lower.
	if st.MinTotal > 50_000 {
		t.Errorf("min = %.0f, want ≤50K lulls", st.MinTotal)
	}
	// Sustained periods over 400 KOps/s lasting hours (≥2h = 120 samples).
	if st.SustainedOver400K < 120 {
		t.Errorf("longest >400K run = %d min, want ≥120", st.SustainedOver400K)
	}
	// Fig. 2: top-4 ops are 98% of the load.
	if st.Top4Share < 0.96 || st.Top4Share > 0.995 {
		t.Errorf("top-4 share = %.3f, want ≈0.98", st.Top4Share)
	}
	// Per-op means: getattr ≈95.8K, close ≈43.5K, open ≈29K.
	within := func(got, want, tol float64) bool { return math.Abs(got-want) <= tol*want }
	if !within(st.PerOpMean[posix.OpGetAttr], 95_800, 0.3) {
		t.Errorf("getattr mean = %.0f, want ≈95.8K", st.PerOpMean[posix.OpGetAttr])
	}
	if !within(st.PerOpMean[posix.OpClose], 43_500, 0.3) {
		t.Errorf("close mean = %.0f, want ≈43.5K", st.PerOpMean[posix.OpClose])
	}
	if !within(st.PerOpMean[posix.OpOpen], 29_000, 0.3) {
		t.Errorf("open mean = %.0f, want ≈29K", st.PerOpMean[posix.OpOpen])
	}
	// getattr over 30 days is on the order of 250 billion requests.
	if st.PerOpTotal[posix.OpGetAttr] < 1.5e11 || st.PerOpTotal[posix.OpGetAttr] > 4e11 {
		t.Errorf("getattr total = %.3g, want ≈2.5e11", st.PerOpTotal[posix.OpGetAttr])
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a := Generate(GenConfig{Seed: 7, Duration: time.Hour})
	b := Generate(GenConfig{Seed: 7, Duration: time.Hour})
	for _, op := range a.Ops {
		for i := range a.Rates[op] {
			if a.Rates[op][i] != b.Rates[op][i] {
				t.Fatalf("same seed diverged at %v[%d]", op, i)
			}
		}
	}
	c := Generate(GenConfig{Seed: 8, Duration: time.Hour})
	same := true
	for i := range a.Rates[posix.OpGetAttr] {
		if a.Rates[posix.OpGetAttr][i] != c.Rates[posix.OpGetAttr][i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestSingleMDTScales(t *testing.T) {
	tr := Generate(GenConfig{Seed: 3, Duration: time.Hour})
	mdt := SingleMDT(tr)
	full := Analyze(tr)
	one := Analyze(mdt)
	if math.Abs(one.MeanTotal-full.MeanTotal/6) > 1 {
		t.Errorf("single-MDT mean = %v, want %v", one.MeanTotal, full.MeanTotal/6)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	st := Analyze(NewTrace(time.Minute, posix.OpOpen))
	if st.Samples != 0 || st.MeanTotal != 0 {
		t.Errorf("empty stats = %+v", st)
	}
}

func TestReplayerFollowsCurve(t *testing.T) {
	// 3 trace-minutes at 600/300/0 ops per second for open.
	tr := NewTrace(time.Minute, posix.OpOpen)
	tr.Append(600)
	tr.Append(300)
	tr.Append(0)

	var count atomic.Int64
	r := &Replayer{
		Trace:     tr,
		Submit:    func(op posix.Op) error { count.Add(1); return nil },
		Clock:     clock.NewSim(epoch),
		Accel:     60,  // 1s wall per trace minute -> 3s wall total
		RateScale: 0.5, // half rate, as in the paper
		Tick:      10 * time.Millisecond,
	}
	if err := runDriven(r); err != nil {
		t.Fatal(err)
	}
	// Expected ops: (600+300+0)/2 ops-per-trace-second * 60s... careful:
	// rate is per trace-second? No: rates are ops/second of *trace* time;
	// acceleration compresses wall time but the replayer submits
	// rate(traceT) * RateScale ops per *wall* second. Total = (600*1s +
	// 300*1s + 0*1s) * 0.5 = 450 ops over 3 wall seconds.
	got := count.Load()
	if got != 450 {
		t.Errorf("submitted %d ops, want 450", got)
	}
	if r.Total(posix.OpOpen) != got {
		t.Errorf("Total = %d, want %d", r.Total(posix.OpOpen), got)
	}
	if r.Errors() != 0 {
		t.Errorf("errors = %d", r.Errors())
	}
}

// runDriven runs r on its simulated clock under Drive: the op threads
// are the simulation's actors, so the replay takes no wall time.
func runDriven(r *Replayer) (err error) {
	r.Clock.(*clock.Sim).Drive(func() { err = r.Run(context.Background()) })
	return err
}

// TestReplayerCancel: a replay whose context is cancelled mid-run stops
// submitting, returns, and leaves nothing parked on its clock. Submit
// itself cancels, so the replay runs under Drive and takes no wall time.
func TestReplayerCancel(t *testing.T) {
	tr := NewTrace(time.Minute, posix.OpOpen)
	for i := 0; i < 600; i++ { // 10 trace-hours: would replay 600s
		tr.Append(100)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const cancelAt = 100
	submitted := 0
	clk := clock.NewSim(epoch)
	r := &Replayer{
		Trace: tr,
		Submit: func(posix.Op) error {
			if submitted++; submitted == cancelAt {
				cancel()
			}
			return nil
		},
		Clock: clk,
		Tick:  10 * time.Millisecond,
	}
	clk.Drive(func() {
		if err := r.Run(ctx); err != nil {
			t.Error(err)
		}
	})
	if submitted != cancelAt {
		t.Errorf("submitted %d ops, want the %d before the cancel", submitted, cancelAt)
	}
	if n := clk.PendingWaiters(); n != 0 {
		t.Errorf("%d waiters parked after the cancelled replay returned", n)
	}
}

func TestReplayerRequiresSubmit(t *testing.T) {
	r := &Replayer{Trace: smallTrace()}
	if err := r.Run(context.Background()); err == nil {
		t.Error("Run without Submit succeeded")
	}
}

func TestReplayerCountsErrors(t *testing.T) {
	tr := NewTrace(time.Minute, posix.OpOpen)
	tr.Append(60)
	r := &Replayer{
		Trace:     tr,
		Submit:    func(op posix.Op) error { return posix.ErrNotExist },
		Clock:     clock.NewSim(epoch),
		Accel:     60,
		RateScale: 1,
		Tick:      10 * time.Millisecond,
	}
	if err := runDriven(r); err != nil {
		t.Fatal(err)
	}
	if r.Errors() == 0 {
		t.Error("submission errors not counted")
	}
}

func TestWorkloadExecutesAllMetadataOps(t *testing.T) {
	clk := clock.NewSim(epoch)
	fs := localfs.New(clk)
	w := &Workload{
		Ctl:   posix.NewClient(fs),
		Raw:   posix.NewClient(fs),
		Dir:   "/work",
		Files: 8,
	}
	if err := w.Prepare(); err != nil {
		t.Fatal(err)
	}
	for _, op := range MetadataOps {
		for i := 0; i < 30; i++ { // cycle every file through each op
			if err := w.Submit(op); err != nil {
				t.Fatalf("%v #%d: %v", op, i, err)
			}
		}
	}
	// Unsupported op errors cleanly.
	if err := w.Submit(posix.OpRead); err == nil {
		t.Error("workload executed a data op it does not model")
	}
}

func TestWorkloadRenamePingPong(t *testing.T) {
	clk := clock.NewSim(epoch)
	fs := localfs.New(clk)
	w := &Workload{Ctl: posix.NewClient(fs), Raw: posix.NewClient(fs), Dir: "/d", Files: 4}
	if err := w.Prepare(); err != nil {
		t.Fatal(err)
	}
	// Two full passes (8 renames): every file out and back.
	for i := 0; i < 8; i++ {
		if err := w.Submit(posix.OpRename); err != nil {
			t.Fatalf("rename #%d: %v", i, err)
		}
	}
	// After an even number of passes all original names exist again.
	for i := 0; i < 4; i++ {
		if _, err := w.Raw.Stat(w.renameFile(i)); err != nil {
			t.Errorf("file %d missing after ping-pong: %v", i, err)
		}
	}
}

func TestReplayerSeriesProduced(t *testing.T) {
	tr := NewTrace(time.Minute, posix.OpOpen)
	tr.Append(120)
	tr.Append(120)
	r := &Replayer{
		Trace:     tr,
		Submit:    func(op posix.Op) error { return nil },
		Clock:     clock.NewSim(epoch),
		Accel:     60,
		RateScale: 1,
		Tick:      10 * time.Millisecond,
		Window:    500 * time.Millisecond,
	}
	if err := runDriven(r); err != nil {
		t.Fatal(err)
	}
	s := r.Series(posix.OpOpen)
	if s == nil || s.Len() < 2 {
		t.Fatalf("series = %v", s)
	}
	if r.Series(posix.OpRename) != nil {
		t.Error("series for unreplayed op should be nil")
	}
}
