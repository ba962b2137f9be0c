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

// randomBackoff draws a schedule with every field set.
func randomBackoff(rng *rand.Rand) Backoff {
	return Backoff{
		Base:     time.Duration(1+rng.Intn(50)) * time.Millisecond,
		Max:      time.Duration(20+rng.Intn(200)) * time.Millisecond,
		Factor:   1 + 2*rng.Float64(),
		Attempts: 1 + rng.Intn(6),
	}
}

// TestBackoffDelaysAreDeterministic: a schedule is a pure function of
// its fields — the same on every call — holding Attempts-1 delays that
// start at Base (or Max, if lower), grow by Factor and stop at Max.
func TestBackoffDelaysAreDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		b := randomBackoff(rng)
		got := b.Delays()
		if again := b.Delays(); !slices.Equal(got, again) {
			t.Fatalf("%+v: Delays() = %v, then %v", b, got, again)
		}
		if len(got) != b.Attempts-1 {
			t.Fatalf("%+v: %d delays for %d attempts", b, len(got), b.Attempts)
		}
		want := min(b.Base, b.Max)
		for k, d := range got {
			if d != want {
				t.Fatalf("%+v: delay %d is %v, want %v (all: %v)", b, k, d, want, got)
			}
			want = min(time.Duration(float64(want)*b.Factor), b.Max)
		}
	}
	// Growth and cap are exact.
	exact := Backoff{Base: 100 * time.Millisecond, Max: 300 * time.Millisecond, Factor: 2, Attempts: 4}
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 300 * time.Millisecond}
	if got := exact.Delays(); !slices.Equal(got, want) {
		t.Fatalf("Delays() = %v, want %v", got, want)
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

// TestRetrySleepsAreTheBackoffSchedule: whatever the schedule, a
// blocking exchange whose every attempt fails sleeps exactly
// Backoff.Delays(), in order, and a second one on the same handle starts
// the schedule over.
func TestRetrySleepsAreTheBackoffSchedule(t *testing.T) {
	// A port nothing listens on: every attempt fails at the dial.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	_ = l.Close()

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		b := randomBackoff(rng)
		want := b.Delays()
		clk := newSleepRecorder()
		cfg := defaultDialConfig()
		cfg.clk, cfg.backoff, cfg.dialer = clk, b, &frameDialer{}
		h := NewStageHandle(newFrameTransport(dead, cfg))
		for exchange := 0; exchange < 2; exchange++ {
			if _, err := collect(h); err == nil {
				t.Fatalf("%+v: a collect from a dead port succeeded", b)
			}
			if got := clk.take(); !slices.Equal(got, want) {
				t.Fatalf("%+v: exchange %d slept %v, want Delays() = %v", b, exchange, got, want)
			}
		}
		_ = h.Close()
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

// TestHealthRoundTripCarriesDegradedState: a stage's health — its
// identity, its degraded accounting and the frozen rule set a degraded
// stage keeps enforcing — crosses the wire in a collect, on the first
// (full) reply and on the incremental ones after it.
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
	var st stage.Stats
	for _, degraded := range []time.Duration{90 * time.Second, 120 * time.Second} {
		clk.Advance(degraded - stg.DegradedFor())
		if err := h.CollectDeltaInto(&st); err != nil {
			t.Fatal(err)
		}
		if st.Info.StageID != "s1" || st.Info.JobID != "j1" {
			t.Errorf("after %v: Info = %+v", degraded, st.Info)
		}
		if !st.Degraded || st.DegradedSeconds != degraded.Seconds() {
			t.Errorf("after %v: Degraded %v DegradedSeconds %v, want true/%v", degraded, st.Degraded, st.DegradedSeconds, degraded.Seconds())
		}
		if len(st.Queues) != 1 || st.Queues[0].RuleID != "cap" {
			t.Errorf("after %v: queues = %+v, want the one rule", degraded, st.Queues)
		}
	}
	if fulls, deltas := h.CollectCounts(); fulls != 1 || deltas != 1 {
		t.Errorf("%d full / %d delta collects, want 1/1", fulls, deltas)
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
	// stage.Stats carries Degraded/DegradedSeconds; the Collect RPC reply
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

// TestSilentRegistrarCostsOneDeadline points the registrar client at a
// controller that accepts connections and never answers. Each call must
// fail once its deadline has passed, not before and not much after, and
// must leave no goroutine behind (TestMain's leak check).
func TestSilentRegistrarCostsOneDeadline(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	held := make(chan net.Conn, 8)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			held <- c // open, never read from or written to
		}
	}()
	defer func() {
		_ = l.Close()
		wg.Wait()
		close(held)
		for c := range held {
			_ = c.Close()
		}
	}()

	const slack = 2 * time.Second
	for _, tc := range []struct {
		name    string
		timeout time.Duration
		call    func(timeout time.Duration) error
	}{
		{"ProbeController", 200 * time.Millisecond, func(d time.Duration) error { return ProbeController(addr, d) }},
		{"Registrar.Register", 150 * time.Millisecond, func(d time.Duration) error {
			return registrarCall(addr, time.Second, d, "Registrar.Register",
				&Registration{Info: stage.Info{StageID: "sX"}, Addr: "127.0.0.1:9"}, nil)
		}},
	} {
		start := time.Now()
		err := tc.call(tc.timeout)
		elapsed := time.Since(start)
		switch {
		case err == nil:
			t.Errorf("%s: a registrar that never answers answered", tc.name)
		case !strings.Contains(err.Error(), addr):
			t.Errorf("%s: error %q does not name the controller", tc.name, err)
		case elapsed < tc.timeout:
			t.Errorf("%s: failed after %v, before its %v deadline: %v", tc.name, elapsed, tc.timeout, err)
		case elapsed > tc.timeout+slack:
			t.Errorf("%s: failed after %v, far past its %v deadline", tc.name, elapsed, tc.timeout)
		}
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
