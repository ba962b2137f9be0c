package rpcio

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"padll/internal/clock"
	"padll/internal/policy"
	"padll/internal/stage"
)

// withCallTimeout and withDialTimeout set what a stage handle's
// production dial fixes (DefaultCallTimeout, 0 for none;
// DefaultDialTimeout): tests shorten them.
func withCallTimeout(d time.Duration) DialOption { return func(c *dialConfig) { c.timeout = d } }

func withDialTimeout(d time.Duration) DialOption { return func(c *dialConfig) { c.dialTO = d } }

// flakyServedStage serves a stage behind a FlakyListener and returns a
// handle dialed to it with opts, plus the listener counting its
// accepted connections.
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
	h, err := DialStage(l.Addr().String(), opts...)
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
// request, and every second reply is lost without a word — the read
// awaiting it waits as on a silent socket — so that exchange fails at
// its deadline, and the next one, over the same in-memory conn, is
// answered: a lost reply costs its own exchange one deadline and
// nothing more, with no sleep and no second conn. The handle runs on a
// simulated clock, which the test steps through each deadline.
func TestCallDeadlineRecoversFromDroppedResponses(t *testing.T) {
	const timeout = DefaultCallTimeout
	clk := clock.NewSim(epoch)
	svc := NewStageService(stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clock.NewSim(epoch)))
	requests := 0
	h := LocalStage(svc, clk, func([]StageOp, bool) error {
		if requests++; requests%2 == 0 {
			return ReplyLost{}
		}
		return nil
	})
	defer func() { _ = h.Close() }()
	for i := 0; i < 6; i++ {
		done := make(chan error, 1)
		go func() {
			_, err := ping(h)
			done <- err
		}()
		lost := i%2 == 1
		if lost {
			clk.BlockUntil(1) // the read waits on its deadline
			clk.Advance(timeout)
		}
		switch err := <-done; {
		case lost && (err == nil || !strings.Contains(err.Error(), "deadline")):
			t.Fatalf("Ping %d, its reply lost: err = %v, want its deadline", i, err)
		case !lost && err != nil:
			t.Fatalf("Ping %d: %v", i, err)
		}
		if n := clk.PendingWaiters(); n != 0 {
			t.Fatalf("Ping %d left %d waiters on the clock: nothing but the deadline may wait", i, n)
		}
	}
	if served := svc.Served().Calls; served != 6 {
		t.Errorf("stage served %d calls, want every one of the 6, each once", served)
	}
	if elapsed := clk.Now().Sub(epoch); elapsed != 3*timeout {
		t.Errorf("six pings took %v of clock, want three deadlines (%v)", elapsed, 3*timeout)
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

// TestInjectedFaultFailsOneExchange: on an in-memory conn, each kind of
// injected fault — a refusal, a reply lost with an error, a reply lost
// without a word on a simulated clock — fails its own exchange and
// nothing else: the next exchange on the same handle, over the same
// conn, is answered. A lost collect reply leaves the handle's
// acknowledgment stale — the stage applied the collect it never saw
// answered — so the collect after it is a full resync, and converges
// with the stage. Only the stage hanging up ends the conn: every later
// exchange fails with that first cause.
func TestInjectedFaultFailsOneExchange(t *testing.T) {
	clk := clock.NewSim(epoch)
	stg := stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clk)
	var verdict error
	h := LocalStage(NewStageService(stg), clk, func([]StageOp, bool) error {
		v := verdict
		verdict = nil
		return v
	})
	defer func() { _ = h.Close() }()
	fc := h.t.fc

	var merged stage.Stats
	if err := h.CollectDeltaInto(&merged); err != nil { // first contact: full
		t.Fatal(err)
	}
	errRefused, errLost := errors.New("injected refusal"), errors.New("injected reply loss")
	for i, tc := range []struct {
		name     string
		verdict  error
		silent   bool // the read waits for the deadline
		wantErr  error
		wantFull bool // the stage applied the lost collect: the next is a full resync
	}{
		{"refusal", errRefused, false, errRefused, false},
		{"reply lost with an error", ReplyLost{Err: errLost}, false, errLost, true},
		{"reply lost without a word", ReplyLost{}, true, nil, true},
	} {
		stg.ApplyRule(policy.Rule{ID: fmt.Sprintf("r%d", i), Rate: float64(100 * (i + 1))})
		verdict = tc.verdict
		done := make(chan error, 1)
		go func() { done <- h.CollectDeltaInto(&merged) }()
		if tc.silent {
			clk.BlockUntil(1) // the read waits on its deadline
			clk.Advance(DefaultCallTimeout)
		}
		err := <-done
		switch {
		case tc.wantErr != nil && !errors.Is(err, tc.wantErr):
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.wantErr)
		case tc.wantErr == nil && (err == nil || !strings.Contains(err.Error(), "deadline")):
			t.Fatalf("%s: err = %v, want the deadline", tc.name, err)
		case fc.cause() != nil:
			t.Fatalf("%s: the fault ended the conn: %v", tc.name, fc.cause())
		}

		fulls, deltas := h.CollectCounts()
		if err := h.CollectDeltaInto(&merged); err != nil {
			t.Fatalf("%s: the exchange after the fault: %v", tc.name, err)
		}
		if !sameStats(merged, stg.Collect()) {
			t.Errorf("%s: merged snapshot diverged after the fault:\n got: %+v\nwant: %+v", tc.name, merged, stg.Collect())
		}
		f, d := h.CollectCounts()
		if gotFull := f == fulls+1 && d == deltas; gotFull != tc.wantFull || f+d != fulls+deltas+1 {
			t.Errorf("%s: the collect after the fault moved fulls %d→%d, deltas %d→%d; want a full resync %v",
				tc.name, fulls, f, deltas, d, tc.wantFull)
		}
	}

	verdict = io.EOF
	_, first := ping(h)
	if !errors.Is(first, ErrDeparted) {
		t.Fatalf("a hang-up: err = %v, want ErrDeparted", first)
	}
	if _, err := ping(h); err != first {
		t.Errorf("after the hang-up: err = %v, want the first cause %v", err, first)
	}
	if n := clk.PendingWaiters(); n != 0 {
		t.Errorf("%d waiters left on the clock", n)
	}
}

// TestConnectionDeathEndsTheHandle: the server side kills the
// connection after 6 chunks. FlakyConn counts a chunk per Read and per
// Write call, and the server reads a whole request through its receive
// buffer, so an exchange is two chunks — read, write — and the script
// is R W R W R W: three pings are answered, then the seventh chunk (the
// read of the fourth request) closes the connection. The fourth ping
// finds the stage gone (ErrDeparted), and every later one fails at once
// with that first cause: the handle never dials again, so the listener
// accepts one connection in all. On a clock nobody advances a sleep
// would never end, so the failures cannot have waited on the clock.
func TestConnectionDeathEndsTheHandle(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []DialOption
	}{
		{"wall clock", nil},
		{"clock nobody advances", []DialOption{WithHandleClock(clock.NewSim(epoch))}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, h, l := flakyServedStage(t, Flakiness{FailAfter: 6}, tc.opts...)
			for i := 0; i < 3; i++ {
				if _, err := ping(h); err != nil {
					t.Fatalf("Ping %d: %v", i, err)
				}
			}
			_, first := ping(h)
			if !errors.Is(first, ErrDeparted) {
				t.Fatalf("Ping 3 over the killed connection: err = %v, want ErrDeparted", first)
			}
			for i := 4; i < 10; i++ {
				if _, err := ping(h); err != first {
					t.Fatalf("Ping %d: err = %v, want the first cause %v", i, err, first)
				}
			}
			if got := l.accepted.Load(); got != 1 {
				t.Errorf("ten pings used %d connections, want 1: a handle never dials again", got)
			}
		})
	}
}

// packageGoroutines returns the IDs of the live goroutines the package
// started: every stack created by an rpcio function.
func packageGoroutines() map[string]bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	ids := make(map[string]bool)
	for _, g := range strings.Split(string(buf), "\n\n") {
		id, _, ok := strings.Cut(strings.TrimPrefix(g, "goroutine "), " ")
		if ok && strings.Contains(g, "created by padll/internal/rpcio.") {
			ids[id] = true
		}
	}
	return ids
}

// TestHandleRunsNoGoroutine: a dialed handle's exchanges run on their
// caller's goroutine, so dialing a stage and exchanging with it adds
// one goroutine to the process — the server's, for the connection —
// and nothing on the client's side. It counts the goroutines alive
// after the exchanges that were not alive before them, so one an
// earlier test left exiting cannot offset the server's.
func TestHandleRunsNoGoroutine(t *testing.T) {
	stg := stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clock.NewSim(epoch))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ServeStage(l, stg))
	before := packageGoroutines()
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
	got := 0
	for id := range packageGoroutines() {
		if !before[id] {
			got++
		}
	}
	if got != 1 {
		t.Errorf("a dialed handle raised the package's goroutines by %d, want 1 (the server's)", got)
	}
}

func TestDuplicatedResponsesDoNotBreakCalls(t *testing.T) {
	// Every response arrives twice: the duplicate carries a stream ID
	// the next exchange does not await, so it is discarded, and calls
	// keep succeeding over the one connection.
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

// TestCallsFailFastAfterBudgetAgainstDeadPeer: a peer that dies for
// good — its connection closed, its listener gone — is a departure the
// next exchange sees at once, well inside its deadline, with no retry
// to spend; every later exchange fails with that same cause.
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
	h, err := DialStage(l.Addr().String(), withCallTimeout(time.Minute), withDialTimeout(200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Close() }()
	// The peer dies for good: live connection and listener both gone.
	_ = (<-accepted).Close()
	_ = l.Close()

	_, first := ping(h)
	if !errors.Is(first, ErrDeparted) {
		t.Fatalf("Ping against a dead stage: err = %v, want ErrDeparted before its deadline", first)
	}
	if _, err := ping(h); err != first {
		t.Errorf("second Ping: err = %v, want the first cause %v", err, first)
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

// TestSilentRegistrarCostsOneDeadline points a registration at a
// controller that accepts connections and never answers. It must fail
// once its deadline has passed, not before and not much after, and
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
	stop := ServeRegistrar(l, func(info stage.Info, h *StageHandle) (time.Duration, error) {
		regCalls.Add(1)
		return refuse(info, h)
	})
	defer stop()
	_, err = RegisterWithController(l.Addr().String(), NewStageService(stage.New(stage.Info{StageID: "sX"}, clock.NewReal())))
	if err == nil || !strings.Contains(err.Error(), "registry full") {
		t.Fatalf("err = %v, want the service refusal", err)
	}
	if got := regCalls.Load(); got != 1 {
		t.Errorf("onRegister ran %d times, want 1", got)
	}
}
