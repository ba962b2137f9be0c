package stage

import (
	"testing"
	"time"

	"padll/internal/clock"
	"padll/internal/policy"
)

// The quiescence token (CollectQuietInto / QuietSince) lets a control
// service skip steady-state collects entirely. Its contract: a non-zero
// token held valid by QuietSince guarantees a repeat collect would
// return identical statistics. These tests drive every invalidation
// edge: data-plane events, rate decay, control mutations, degraded
// mode, and in-flight waiters.

func collectQuiet(t *testing.T, s *Stage) (Stats, uint64) {
	t.Helper()
	var st Stats
	tok := s.CollectQuietInto(&st)
	return st, tok
}

func TestQuietTokenMintedWhenIdle(t *testing.T) {
	s := New(info(), clock.NewSim(epoch))
	s.ApplyRule(policy.Rule{ID: "meta", Rate: 100})

	st, tok := collectQuiet(t, s)
	if tok == 0 {
		t.Fatal("idle stage minted no quiescence token")
	}
	if !s.QuietSince(tok) {
		t.Fatal("token invalid immediately after minting")
	}

	// A repeat collect while quiet returns the same token and
	// byte-identical statistics.
	st2, tok2 := collectQuiet(t, s)
	if tok2 != tok {
		t.Errorf("repeat collect minted a new token: %d != %d", tok2, tok)
	}
	if len(st2.Queues) != len(st.Queues) || st2.Queues[0] != st.Queues[0] {
		t.Error("repeat collect of a quiet stage returned different stats")
	}
}

func TestQuietTokenInvalidatedByTraffic(t *testing.T) {
	clk := clock.NewSim(epoch)
	s := New(info(), clk)
	s.ApplyRule(policy.Rule{ID: "meta", Rate: 1000})

	_, tok := collectQuiet(t, s)
	if tok == 0 {
		t.Fatal("idle stage minted no token")
	}
	if err := s.Enforce(openReq()); err != nil {
		t.Fatal(err)
	}
	if s.QuietSince(tok) {
		t.Fatal("token survived a data-plane event")
	}

	// The next collect sees the event but cannot re-mint yet: the count
	// is pending in an open window, so the rate is still to surface.
	st, tok2 := collectQuiet(t, s)
	if st.Queues[0].Total != 1 {
		t.Fatalf("collect after traffic: total = %d, want 1", st.Queues[0].Total)
	}
	if tok2 != 0 {
		t.Error("minted a token with counts pending in an open window")
	}

	// One window on: the count's window closes with a non-zero rate —
	// still not a fixed point.
	clk.Advance(time.Second)
	st, tok3 := collectQuiet(t, s)
	if st.Queues[0].ThroughputRate == 0 {
		t.Fatal("closed window lost its rate")
	}
	if tok3 != 0 {
		t.Error("minted a token while rates are non-zero")
	}

	// Another window on: rates have decayed to zero and nothing is
	// pending — the fixed point is re-established with a fresh token.
	clk.Advance(time.Second)
	st, tok4 := collectQuiet(t, s)
	if st.Queues[0].ThroughputRate != 0 {
		t.Fatalf("rate did not decay: %v", st.Queues[0].ThroughputRate)
	}
	if tok4 == 0 {
		t.Fatal("no token after rates decayed")
	}
	if tok4 == tok {
		t.Error("re-established fixed point reused the stale token")
	}
	if !s.QuietSince(tok4) {
		t.Error("fresh token not valid")
	}
	if s.QuietSince(tok) {
		t.Error("stale token still valid")
	}
}

func TestQuietTokenInvalidatedByControlMutations(t *testing.T) {
	mutations := map[string]func(s *Stage){
		"apply rule":   func(s *Stage) { s.ApplyRule(policy.Rule{ID: "extra", Rate: 50}) },
		"set rate":     func(s *Stage) { s.SetRate("meta", 77) },
		"remove rule":  func(s *Stage) { s.RemoveRule("meta") },
		"set mode":     func(s *Stage) { s.SetMode(Passthrough) },
		"set degraded": func(s *Stage) { s.SetDegraded(true) },
	}
	for name, mutate := range mutations {
		s := New(info(), clock.NewSim(epoch))
		s.ApplyRule(policy.Rule{ID: "meta", Rate: 100})
		_, tok := collectQuiet(t, s)
		if tok == 0 {
			t.Fatalf("%s: no token before mutation", name)
		}
		mutate(s)
		if s.QuietSince(tok) {
			t.Errorf("%s: token survived the mutation", name)
		}
	}
}

func TestDegradedStageNeverQuiet(t *testing.T) {
	s := New(info(), clock.NewSim(epoch))
	s.ApplyRule(policy.Rule{ID: "meta", Rate: 100})
	s.SetDegraded(true)
	// DegradedSeconds grows with the clock, so no fixed point exists.
	if _, tok := collectQuiet(t, s); tok != 0 {
		t.Fatal("degraded stage minted a quiescence token")
	}
	s.SetDegraded(false)
	if _, tok := collectQuiet(t, s); tok == 0 {
		t.Fatal("recovered stage minted no token")
	}
}

func TestInFlightWaiterBlocksQuiet(t *testing.T) {
	clk := clock.NewSim(epoch)
	s := New(info(), clk)
	// Rate 1 with burst 1: the second request blocks.
	s.ApplyRule(policy.Rule{ID: "meta", Rate: 1, Burst: 1})
	if err := s.Enforce(openReq()); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Enforce(openReq()) }()
	waitForWaiter(t, s, clk)

	// Rates may still be pending, but the decisive check here is the
	// waiter: its admission and latency sample will land with no new
	// arrival to raise the active flag, so no token may exist while it
	// queues — however long that is. The waiter sleeps one second, so
	// the three collects stay inside it.
	for i := 0; i < 3; i++ {
		if _, tok := collectQuiet(t, s); tok != 0 {
			t.Fatalf("minted a token with a waiter in flight (advance %d)", i)
		}
		clk.Advance(300 * time.Millisecond)
	}
	clk.Advance(time.Second)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// Waiter released: once rates decay the fixed point returns, with
	// the waiter's admission and wait-time sample in the stats.
	clk.Advance(2 * time.Second)
	st, tok := collectQuiet(t, s)
	if tok == 0 {
		t.Fatal("no token after the waiter drained and rates decayed")
	}
	if st.Queues[0].Total != 2 {
		t.Errorf("total = %d, want 2", st.Queues[0].Total)
	}
	if st.Queues[0].WaitP99 == 0 {
		t.Error("waiter's latency sample missing from the quiet snapshot")
	}
}

// waitForWaiter parks until the stage reports one queued waiter.
func waitForWaiter(t *testing.T, s *Stage, clk *clock.Sim) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var st Stats
		s.CollectInto(&st)
		if len(st.Queues) > 0 && st.Queues[0].Waiting == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
}
