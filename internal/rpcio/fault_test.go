package rpcio

import (
	"errors"
	"net"
	"strings"
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

func TestRetrySleepsOnInjectedClock(t *testing.T) {
	clk := clock.NewSim(epoch)
	var calls atomic.Int32
	done := make(chan error, 1)
	go func() {
		done <- Retry(clk, Backoff{Base: time.Second, Factor: 2, Max: time.Minute, Attempts: 3}, func() error {
			if calls.Add(1) < 3 {
				return errors.New("transient")
			}
			return nil
		})
	}()
	// Two failures -> two parked sleeps (1s then 2s) before success.
	for _, step := range []time.Duration{time.Second, 2 * time.Second} {
		deadline := time.Now().Add(5 * time.Second)
		for clk.PendingWaiters() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("Retry never parked on the simulated clock")
			}
			time.Sleep(time.Millisecond)
		}
		clk.Advance(step)
	}
	if err := <-done; err != nil {
		t.Fatalf("Retry = %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("fn ran %d times, want 3", got)
	}
}

func TestRetryReturnsLastErrorWhenExhausted(t *testing.T) {
	clk := clock.NewSim(epoch)
	go func() {
		// Drain the two backoff sleeps so Retry can finish.
		for i := 0; i < 2; i++ {
			for clk.PendingWaiters() == 0 {
				time.Sleep(time.Millisecond)
			}
			clk.Advance(time.Hour)
		}
	}()
	wantErr := errors.New("still down")
	err := Retry(clk, Backoff{Base: time.Second, Attempts: 3}, func() error { return wantErr })
	if !errors.Is(err, wantErr) {
		t.Fatalf("Retry = %v, want %v", err, wantErr)
	}
}

// flakyServedStage serves a stage behind a FlakyListener and returns a
// hardened handle with fast timeouts.
func flakyServedStage(t *testing.T, flaky Flakiness, opts ...DialOption) (*stage.Stage, *StageHandle) {
	t.Helper()
	stg := stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clock.NewSim(epoch))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := ServeStage(&FlakyListener{Listener: l, Flaky: flaky}, stg)
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
	return stg, h
}

func TestCallDeadlineRecoversFromDroppedResponses(t *testing.T) {
	// Every second response the server writes is silently dropped: the
	// client must hit its per-call deadline, redial, and retry.
	_, h := flakyServedStage(t, Flakiness{DropEvery: 2})
	for i := 0; i < 6; i++ {
		if _, err := ping(h); err != nil {
			t.Fatalf("Ping %d: %v", i, err)
		}
	}
}

func TestRedialAfterConnectionDeath(t *testing.T) {
	// The server side kills each connection after 6 chunks; the handle
	// must keep succeeding by redialing.
	_, h := flakyServedStage(t, Flakiness{FailAfter: 6})
	for i := 0; i < 10; i++ {
		if _, err := ping(h); err != nil {
			t.Fatalf("Ping %d: %v", i, err)
		}
	}
}

func TestDuplicatedResponsesDoNotBreakCalls(t *testing.T) {
	// A duplicated response either desynchronizes the frame stream or is
	// discarded as an unknown stream ID; calls must keep succeeding via
	// redial either way.
	stg, h := flakyServedStage(t, Flakiness{DupEvery: 1})
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
