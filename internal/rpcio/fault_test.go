package rpcio

import (
	"errors"
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

// TestCallDeadlineRecoversFromDroppedResponses: the stage applies
// every request, and its second reply is lost on the wire, so that
// exchange fails at its deadline on the handle's simulated clock, which
// the test steps through it. The lost reply ends the connection: the
// next exchange fails at once with the same cause, and Done is closed.
// A fresh handle, as the stage's next registration would give its
// controller, is answered: a lost reply costs one deadline and one
// connection, with no sleep.
func TestCallDeadlineRecoversFromDroppedResponses(t *testing.T) {
	clk := clock.NewSim(epoch)
	_, h, l := flakyServedStage(t, Flakiness{DropEvery: 2}, WithHandleClock(clk))
	if _, err := ping(h); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := ping(h)
		done <- err
	}()
	clk.BlockUntil(1) // the read waits on its deadline
	clk.Advance(DefaultCallTimeout)
	first := <-done
	if first == nil || !strings.Contains(first.Error(), "deadline") {
		t.Fatalf("ping whose reply was lost: err = %v, want its deadline", first)
	}
	if _, err := ping(h); err != first {
		t.Errorf("after the lost reply: err = %v, want the first cause %v", err, first)
	}
	select {
	case <-h.Done():
	default:
		t.Error("the lost reply left the handle's Done open")
	}
	nh, err := DialStage(l.Addr().String(), WithHandleClock(clk))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nh.Close() }()
	if _, err := ping(nh); err != nil {
		t.Errorf("a fresh handle: %v", err)
	}
	if n := clk.PendingWaiters(); n != 0 {
		t.Errorf("%d waiters left on the clock: nothing but the deadline may wait", n)
	}
	if elapsed := clk.Now().Sub(epoch); elapsed != DefaultCallTimeout {
		t.Errorf("the exchanges took %v of clock, want one deadline (%v)", elapsed, DefaultCallTimeout)
	}
}

// refusingConn is a client's TCP connection whose writes fail once
// refused is set, as a write towards an unreachable peer does.
type refusingConn struct {
	*net.TCPConn
	refused atomic.Bool
}

func (c *refusingConn) Write(b []byte) (int, error) {
	if c.refused.Load() {
		return 0, errRefused
	}
	return c.TCPConn.Write(b)
}

var (
	errRefused = errors.New("injected refusal")
	errLost    = errors.New("injected reply loss")
)

// failureOutcome is what a handle makes of one failure: the class of
// the exchange's error, whether each later exchange failed at once
// with that same error (nil: answered), and whether Done closed.
type failureOutcome struct {
	first string
	later [2]string
	done  bool
}

// failureClass names an exchange's error as the control plane tells
// errors apart.
func failureClass(err error) string {
	var remote RemoteError
	switch {
	case err == nil:
		return "answered"
	case errors.As(err, &remote):
		return "the stage's answer: " + string(remote)
	case errors.Is(err, ErrDeparted):
		return "departed"
	case errors.Is(err, errRefused):
		return "refused"
	case Retryable(err):
		return "wire failure"
	}
	return "unclassified: " + err.Error()
}

// TestOneFailureRuleOnEveryConn drives a handle over LocalStage and a
// TCP handle (the stage behind a FlakyListener, deadlines on clock.Sim)
// through the same failures — a refusal, a lost reply, a hang-up and a
// RemoteError — and requires the same outcome from both: the first
// error's class; every later exchange failing at once with that same
// error; Done closed, except after a RemoteError, which leaves the
// connection in service.
func TestOneFailureRuleOnEveryConn(t *testing.T) {
	for _, tc := range []struct {
		name    string
		verdict error     // the in-memory conn's Fault
		flaky   Flakiness // the TCP stage's wire
		ops     []StageOp // the failing exchange's, besides its collect
		want    failureOutcome
	}{
		{"refusal", errRefused, Flakiness{}, nil,
			failureOutcome{"refused", [2]string{"the first cause", "the first cause"}, true}},
		{"lost reply", ReplyLost{Err: errLost}, Flakiness{DropEvery: 2}, nil,
			failureOutcome{"wire failure", [2]string{"the first cause", "the first cause"}, true}},
		{"hang-up", io.EOF, Flakiness{FailAfter: 2}, nil,
			failureOutcome{"departed", [2]string{"the first cause", "the first cause"}, true}},
		{"remote error", nil, Flakiness{}, []StageOp{{Kind: 99}},
			failureOutcome{"the stage's answer: rpcio: batch op 0: unknown kind 99", [2]string{"answered", "answered"}, false}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// run scripts the failure on h: one exchange answered, the
			// failing one (arm readies it; wait steps a clock through its
			// deadline), then two more.
			run := func(h *StageHandle, arm, wait func()) (o failureOutcome) {
				defer func() { _ = h.Close() }()
				if _, err := ping(h); err != nil {
					t.Fatalf("before the failure: %v", err)
				}
				arm()
				done := make(chan error, 1)
				go func() {
					_, _, err := h.Exec(tc.ops, &stage.Stats{})
					done <- err
				}()
				wait()
				first := <-done
				o.first = failureClass(first)
				for i := range o.later {
					switch _, err := ping(h); {
					case err == nil:
						o.later[i] = "answered"
					case err == first:
						o.later[i] = "the first cause"
					default:
						o.later[i] = err.Error()
					}
				}
				select {
				case <-h.Done():
					o.done = true
				default:
				}
				return o
			}

			var verdict atomic.Value
			svc := NewStageService(stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clock.NewSim(epoch)))
			mem := run(LocalStage(svc, func([]StageOp, bool) error {
				if v, _ := verdict.Load().(error); v != nil {
					return v
				}
				return nil
			}), func() {
				if tc.verdict != nil {
					verdict.Store(tc.verdict)
				}
			}, func() {})

			clk := clock.NewSim(epoch)
			tcp := func() failureOutcome {
				stg := stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clock.NewSim(epoch))
				l, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				stop := ServeStage(&FlakyListener{Listener: l, Flaky: tc.flaky}, stg)
				defer stop()
				raw, err := net.Dial("tcp", l.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				conn := &refusingConn{TCPConn: raw.(*net.TCPConn)}
				cfg := defaultDialConfig()
				cfg.clk = clk
				h := newStageHandle(newFrameTransport(l.Addr().String(), cfg, conn, newFrameReader()))
				return run(h, func() { conn.refused.Store(tc.verdict == errRefused) }, func() {
					if tc.flaky.DropEvery > 0 {
						clk.BlockUntil(1) // the read waits on its deadline
						clk.Advance(DefaultCallTimeout)
					}
				})
			}()

			if mem != tc.want {
				t.Errorf("in memory: %+v, want %+v", mem, tc.want)
			}
			if tcp != tc.want {
				t.Errorf("over TCP: %+v, want %+v", tcp, tc.want)
			}
			if n := clk.PendingWaiters(); n != 0 {
				t.Errorf("%d waiters left on the TCP handle's clock", n)
			}
		})
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

// TestCauselessReplyLossNamesTheLoss: a ReplyLost verdict without a
// cause fails the exchange as a lost reply, a wire failure, and not as
// a deadline that never ran.
func TestCauselessReplyLossNamesTheLoss(t *testing.T) {
	svc := NewStageService(stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clock.NewSim(epoch)))
	h := LocalStage(svc, func([]StageOp, bool) error { return ReplyLost{} })
	defer func() { _ = h.Close() }()
	if _, err := ping(h); !errors.Is(err, errReplyLost) || !Retryable(err) {
		t.Errorf("exchange failed with %v, want the reply-lost wire failure", err)
	}
}
