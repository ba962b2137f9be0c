package rpcio

import (
	"errors"
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"padll/internal/clock"
	"padll/internal/policy"
	"padll/internal/stage"
)

func TestBackoffDelaysAreDeterministic(t *testing.T) {
	b := Backoff{Base: 50 * time.Millisecond, Max: time.Second, Factor: 2, Jitter: 0.5, Attempts: 6, Seed: 42}
	a1, a2 := b.Delays(), b.Delays()
	if len(a1) != 5 {
		t.Fatalf("len(Delays) = %d, want 5", len(a1))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a1, a2)
		}
	}
	b2 := b
	b2.Seed = 43
	other := b2.Delays()
	same := true
	for i := range a1 {
		if a1[i] != other[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical jittered schedules")
	}
	// Growth and cap without jitter are exact.
	exact := Backoff{Base: 100 * time.Millisecond, Max: 300 * time.Millisecond, Factor: 2, Attempts: 4}
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 300 * time.Millisecond}
	got := exact.Delays()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Delays() = %v, want %v", got, want)
		}
	}
}

// sleepRecorder is a clock whose Sleep returns at once and records what
// it was asked to sleep: a retry loop runs to completion on the calling
// goroutine, and the test reads the schedule it walked.
type sleepRecorder struct {
	clock.Clock
	mu    sync.Mutex
	slept []time.Duration
}

func newSleepRecorder() *sleepRecorder { return &sleepRecorder{Clock: clock.NewSim(epoch)} }

func (c *sleepRecorder) Sleep(d time.Duration) {
	c.mu.Lock()
	c.slept = append(c.slept, d)
	c.mu.Unlock()
}

func (c *sleepRecorder) take() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.slept
	c.slept = nil
	return out
}

// TestRetrySleepsAreTheBackoffSchedule is the property that let the
// per-call jitter PRNG go: whatever the schedule, a transport's Call
// whose every attempt fails sleeps exactly Backoff.Delays(), in order,
// and a second Call on the same transport starts the schedule over.
func TestRetrySleepsAreTheBackoffSchedule(t *testing.T) {
	// A port nothing listens on: every attempt fails at the dial.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	_ = l.Close()

	rng := rand.New(rand.NewSource(1))
	for seed := int64(0); seed < 40; seed++ {
		b := Backoff{
			Base:     time.Duration(1+rng.Intn(50)) * time.Millisecond,
			Max:      time.Duration(20+rng.Intn(200)) * time.Millisecond,
			Factor:   1 + 2*rng.Float64(),
			Jitter:   rng.Float64(),
			Attempts: 1 + rng.Intn(6),
			Seed:     seed,
		}
		want := b.Delays()
		if len(want) != b.Attempts-1 {
			t.Fatalf("seed %d: %d delays for %d attempts", seed, len(want), b.Attempts)
		}

		clk := newSleepRecorder()
		cfg := defaultDialConfig()
		cfg.clk, cfg.backoff, cfg.dialer = clk, b, &frameDialer{}
		tr := newFrameTransport(dead, cfg)
		for call := 0; call < 2; call++ {
			if err := Call(tr, "Stage.Health", &HealthProbe{}, &StageHealth{}); err == nil {
				t.Fatalf("seed %d: Call to a dead port succeeded", seed)
			}
			if got := clk.take(); !slices.Equal(got, want) {
				t.Fatalf("seed %d: Call %d slept %v, want Delays() = %v", seed, call, got, want)
			}
		}
		_ = tr.Close()
	}
}

// flakyServedStage serves a stage behind a FlakyListener and returns a
// hardened handle with fast timeouts, plus the listener counting its accepted connections.
func flakyServedStage(t *testing.T, flaky Flakiness, opts ...DialOption) (*stage.Stage, *StageHandle, *countingListener) {
	t.Helper()
	stg := stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clock.NewSim(epoch))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: l}
	stop := ServeStage(&FlakyListener{Listener: cl, Flaky: flaky}, stg)
	t.Cleanup(stop)
	base := []DialOption{
		WithCallTimeout(150 * time.Millisecond),
		WithDialTimeout(time.Second),
		WithBackoff(Backoff{Base: 5 * time.Millisecond, Max: 20 * time.Millisecond, Factor: 2, Attempts: 5}),
	}
	h, err := DialStage(l.Addr().String(), append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		// Closing a handle whose last connection already died is fine.
		_ = h.Close()
	})
	return stg, h, cl
}

func TestCallDeadlineRecoversFromDroppedResponses(t *testing.T) {
	// Every second response the server writes is silently dropped: the
	// client must hit its per-call deadline, redial, and retry.
	_, h, _ := flakyServedStage(t, Flakiness{DropEvery: 2})
	for i := 0; i < 6; i++ {
		if _, err := ping(h); err != nil {
			t.Fatalf("Ping %d: %v", i, err)
		}
	}
}

func TestRedialAfterConnectionDeath(t *testing.T) {
	// The server side kills each connection after 6 chunks; the handle
	// must keep succeeding by redialing. FlakyConn counts a chunk per
	// Read and per Write call, and the server reads a whole request
	// through its buffered reader, so an exchange is two chunks — read,
	// write — and the script is R W R W R W, then the seventh chunk (the
	// read for a fourth request) kills the connection: three pings per
	// connection, four connections for the ten below. (When the server
	// read header and payload separately an exchange was three chunks,
	// and the same script allowed two pings per connection.)
	_, h, l := flakyServedStage(t, Flakiness{FailAfter: 6})
	for i := 0; i < 10; i++ {
		if _, err := ping(h); err != nil {
			t.Fatalf("Ping %d: %v", i, err)
		}
	}
	if got := l.accepted.Load(); got != 4 {
		t.Errorf("ten pings used %d connections, want 4 at three exchanges each", got)
	}
}

func TestDuplicatedResponsesDoNotBreakCalls(t *testing.T) {
	// A duplicated response either desynchronizes the frame stream or is
	// discarded as an unknown stream ID; calls must keep succeeding via
	// redial either way.
	stg, h, _ := flakyServedStage(t, Flakiness{DupEvery: 1})
	if err := applyRule(h, policy.Rule{ID: "cap", Rate: 100}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := ping(h); err != nil {
			t.Fatalf("Ping %d: %v", i, err)
		}
	}
	if rules := stg.Rules(); len(rules) != 1 || rules[0].ID != "cap" {
		t.Fatalf("rules = %+v", rules)
	}
}

func TestCallsFailFastAfterBudgetAgainstDeadPeer(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, aerr := l.Accept(); aerr == nil {
			accepted <- c
		}
	}()
	h, err := DialStage(l.Addr().String(),
		WithCallTimeout(100*time.Millisecond),
		WithDialTimeout(200*time.Millisecond),
		WithBackoff(Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond, Attempts: 3}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Close() }()
	// The peer dies for good: live connection and listener both gone.
	_ = (<-accepted).Close()
	_ = l.Close()

	start := time.Now()
	if _, err := ping(h); err == nil {
		t.Fatal("Ping against a dead stage succeeded")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("failure took %v; deadline/backoff budget not honored", elapsed)
	}
}

func TestHealthRoundTripCarriesDegradedState(t *testing.T) {
	clk := clock.NewSim(epoch)
	stg := stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clk)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := ServeStage(l, stg)
	defer stop()
	h, err := DialStage(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Close() }()

	stg.ApplyRule(policy.Rule{ID: "cap", Rate: 100})
	stg.SetDegraded(true)
	clk.Advance(90 * time.Second)

	st, err := h.Health(7)
	if err != nil {
		t.Fatal(err)
	}
	if st.Seq != 7 {
		t.Errorf("Seq = %d, want 7 (echo lost over the wire)", st.Seq)
	}
	if st.Info.StageID != "s1" {
		t.Errorf("Info = %+v", st.Info)
	}
	if !st.Degraded {
		t.Error("Degraded flag lost over the wire")
	}
	if st.DegradedSeconds != 90 {
		t.Errorf("DegradedSeconds = %v, want 90", st.DegradedSeconds)
	}
	if st.Rules != 1 {
		t.Errorf("Rules = %d, want 1", st.Rules)
	}
}

func TestProbeController(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := ServeRegistrar(l, func(Registration) error { return nil }, nil)
	defer stop()

	if err := ProbeController(l.Addr().String(), time.Second); err != nil {
		t.Fatalf("probe of live controller: %v", err)
	}
	if err := ProbeController("127.0.0.1:1", 200*time.Millisecond); err == nil {
		t.Error("probe of closed port succeeded")
	}
}

func TestStageStatsDegradedSurvivesWire(t *testing.T) {
	// stage.Stats gained Degraded/DegradedSeconds; the Collect RPC reply
	// must carry them.
	clk := clock.NewSim(epoch)
	stg := stage.New(stage.Info{StageID: "s1"}, clk)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := ServeStage(l, stg)
	defer stop()
	h, err := DialStage(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Close() }()

	stg.SetDegraded(true)
	clk.Advance(30 * time.Second)
	st, err := collect(h)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Degraded || st.DegradedSeconds != 30 {
		t.Errorf("Collect over the wire = Degraded %v DegradedSeconds %v, want true/30", st.Degraded, st.DegradedSeconds)
	}
}

func TestServerSideErrorsAreNotRetried(t *testing.T) {
	// A RemoteError means the wire worked; retrying it would mask real
	// service refusals (and triple every failure's latency).
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var regCalls atomic.Int32
	stop := ServeRegistrar(l, func(Registration) error {
		regCalls.Add(1)
		return errors.New("registry full")
	}, nil)
	defer stop()
	err = RegisterWithController(l.Addr().String(), stage.Info{StageID: "sX"}, "127.0.0.1:9")
	if err == nil || !strings.Contains(err.Error(), "registry full") {
		t.Fatalf("err = %v, want the service refusal", err)
	}
	if got := regCalls.Load(); got != 1 {
		t.Errorf("onRegister ran %d times, want 1", got)
	}
}
