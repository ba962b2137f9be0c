package rpcio

import (
	"errors"
	"math/rand"
	"net"
	"runtime"
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

// withCallTimeout, withDialTimeout and withDelays set what a stage
// handle's production dial fixes (DefaultCallTimeout, 0 for none;
// DefaultDialTimeout; retryDelays): tests shorten them.
func withCallTimeout(d time.Duration) DialOption { return func(c *dialConfig) { c.timeout = d } }

func withDialTimeout(d time.Duration) DialOption { return func(c *dialConfig) { c.dialTO = d } }

// withDelays sets the retry sleeps; none means one attempt.
func withDelays(d ...time.Duration) DialOption { return func(c *dialConfig) { c.delays = d } }

// randomDelays draws a retry schedule of zero to five sleeps.
func randomDelays(rng *rand.Rand) []time.Duration {
	delays := make([]time.Duration, rng.Intn(6))
	for i := range delays {
		delays[i] = time.Duration(1+rng.Intn(200)) * time.Millisecond
	}
	return delays
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
// blocking exchange whose every attempt fails sleeps exactly its
// delays, in order, and a second one on the same handle starts the
// schedule over. The production schedule is one of the schedules run.
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
		cfg := defaultDialConfig() // the production schedule first
		if i > 0 {
			cfg.delays = randomDelays(rng)
		}
		want := cfg.delays
		clk := newSleepRecorder()
		cfg.clk = clk
		h := newStageHandle(newFrameTransport(dead, cfg, dialTCP(dead, cfg.dialTO)))
		for exchange := 0; exchange < 2; exchange++ {
			if _, err := collect(h); err == nil {
				t.Fatalf("%v: a collect from a dead port succeeded", want)
			}
			if got := clk.take(); !slices.Equal(got, want) {
				t.Fatalf("exchange %d slept %v, want %v", exchange, got, want)
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
		withCallTimeout(150 * time.Millisecond),
		withDialTimeout(time.Second),
		withDelays(5*time.Millisecond, 10*time.Millisecond, 20*time.Millisecond, 20*time.Millisecond),
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

// TestCallDeadlineRecoversFromDroppedResponses: the stage applies every
// request, and every second reply on a connection is lost without a
// word — the read awaiting it waits as on a silent socket — so the
// client must hit its per-call deadline, redial and retry. The handle
// runs in process on a simulated clock, which the test steps through
// each deadline and the retry sleep after it.
func TestCallDeadlineRecoversFromDroppedResponses(t *testing.T) {
	const timeout = 150 * time.Millisecond
	clk := clock.NewSim(epoch)
	svc := NewStageService(stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clock.NewSim(epoch)))
	cfg := defaultDialConfig()
	cfg.clk, cfg.timeout, cfg.delays = clk, timeout, []time.Duration{5 * time.Millisecond, 10 * time.Millisecond}
	h := newStageHandle(newFrameTransport("s1", cfg, func() (net.Conn, error) {
		requests := 0
		return newMemConn(svc, func([]StageOp, bool) error {
			if requests++; requests%2 == 0 {
				return ReplyLost{}
			}
			return nil
		}), nil
	}))
	defer func() { _ = h.Close() }()
	for i := 0; i < 6; i++ {
		done := make(chan error, 1)
		go func() {
			_, err := ping(h)
			done <- err
		}()
		if i > 0 { // the connection's second reply is lost
			clk.BlockUntil(1) // the read waits on its deadline
			clk.Advance(timeout)
			clk.BlockUntil(1) // the retry sleep
			clk.Advance(cfg.delays[0])
		}
		if err := <-done; err != nil {
			t.Fatalf("Ping %d: %v", i, err)
		}
	}
}

// TestCloseReleasesASilentInProcessExchange: an in-process exchange
// whose reply was lost without a word waits on its deadline timer; a
// Close from another goroutine releases it at once, before the
// deadline, with the connection's close.
func TestCloseReleasesASilentInProcessExchange(t *testing.T) {
	clk := clock.NewSim(epoch)
	svc := NewStageService(stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clock.NewSim(epoch)))
	h := LocalStage(svc, clk, func([]StageOp, bool) error { return ReplyLost{} })
	done := make(chan error, 1)
	go func() {
		_, err := ping(h)
		done <- err
	}()
	clk.BlockUntil(1) // the read waits on its deadline
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil || !strings.Contains(err.Error(), "connection closed") {
		t.Fatalf("err = %v, want the handle's close", err)
	}
	if served := svc.Served().Calls; served != 1 {
		t.Errorf("stage served %d calls, want the one whose reply was lost", served)
	}
}

func TestRedialAfterConnectionDeath(t *testing.T) {
	// The server side kills each connection after 6 chunks; the handle
	// must keep succeeding by redialing. FlakyConn counts a chunk per
	// Read and per Write call, and the server reads a whole request
	// through its receive buffer, so an exchange is two chunks — read,
	// write — and the script is R W R W R W, then the seventh chunk (the
	// read for a fourth request) kills the connection: three pings per
	// connection, four connections for the ten below. (When the server
	// read header and payload separately an exchange was three chunks,
	// and the same script allowed two pings per connection.) The server
	// closes a connection while it is idle, so the next exchange finds
	// it closed only once its request is written: it redials and sends
	// again at once, without a retry — the handle's clock may be one
	// nobody advances, whose retry sleep would never end.
	for _, tc := range []struct {
		name string
		opts []DialOption
	}{
		{"wall clock", nil},
		{"clock nobody advances", []DialOption{WithHandleClock(clock.NewSim(epoch))}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, h, l := flakyServedStage(t, Flakiness{FailAfter: 6}, tc.opts...)
			for i := 0; i < 10; i++ {
				if _, err := ping(h); err != nil {
					t.Fatalf("Ping %d: %v", i, err)
				}
			}
			if got := l.accepted.Load(); got != 4 {
				t.Errorf("ten pings used %d connections, want 4 at three exchanges each", got)
			}
		})
	}
}

// clientGoroutines counts the goroutines the package started: every
// stack created by an rpcio function.
func clientGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "created by padll/internal/rpcio.")
}

// TestHandleRunsNoGoroutine: a dialed handle's exchanges run on their
// caller's goroutine, so dialing a stage and exchanging with it adds
// one goroutine to the process — the server's, for the connection —
// and nothing on the client's side.
func TestHandleRunsNoGoroutine(t *testing.T) {
	stg := stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clock.NewSim(epoch))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ServeStage(l, stg))
	before := clientGoroutines()
	h, err := DialStage(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Close() }()
	for i := 0; i < 16; i++ {
		if _, err := ping(h); err != nil {
			t.Fatal(err)
		}
	}
	if got := clientGoroutines() - before; got != 1 {
		t.Errorf("a dialed handle raised the package's goroutines by %d, want 1 (the server's)", got)
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
		withCallTimeout(100*time.Millisecond),
		withDialTimeout(200*time.Millisecond),
		withDelays(time.Millisecond, 2*time.Millisecond))
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
	stop := ServeRegistrar(l, holdHandles(t, nil), nil,
		func(id string) bool { return id == "held" })
	defer stop()

	for id, want := range map[string]bool{"held": true, "forgotten": false} {
		registered, err := ProbeController(l.Addr().String(), id, time.Second)
		if err != nil {
			t.Fatalf("probe of live controller: %v", err)
		}
		if registered != want {
			t.Errorf("probe for %q answered registered=%v, want %v", id, registered, want)
		}
	}
	if _, err := ProbeController("127.0.0.1:1", "held", 200*time.Millisecond); err == nil {
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
		{"ProbeController", 200 * time.Millisecond, func(d time.Duration) error {
			_, err := ProbeController(addr, "sX", d)
			return err
		}},
		{"Registrar.Register", 150 * time.Millisecond, func(d time.Duration) error {
			_, err := register(addr, time.Second, d, NewStageService(stage.New(stage.Info{StageID: "sX"}, clock.NewReal())))
			return err
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
	refuse := holdHandles(t, errors.New("registry full"))
	stop := ServeRegistrar(l, func(info stage.Info, h *StageHandle) error {
		regCalls.Add(1)
		return refuse(info, h)
	}, nil, nil)
	defer stop()
	_, err = RegisterWithController(l.Addr().String(), NewStageService(stage.New(stage.Info{StageID: "sX"}, clock.NewReal())))
	if err == nil || !strings.Contains(err.Error(), "registry full") {
		t.Fatalf("err = %v, want the service refusal", err)
	}
	if got := regCalls.Load(); got != 1 {
		t.Errorf("onRegister ran %d times, want 1", got)
	}
}
