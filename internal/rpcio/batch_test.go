package rpcio

import (
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"

	"padll/internal/clock"
	"padll/internal/policy"
	"padll/internal/posix"
	"padll/internal/stage"
)

// TestBatchOpsMatchPerCallSemantics pins each op kind's outcome inside
// one batch to what that operation does on its own: ops apply in order
// and Found reports whether the named rule existed.
func TestBatchOpsMatchPerCallSemantics(t *testing.T) {
	stg, h := servedStage(t)
	results, _, err := h.Exec([]StageOp{
		{Kind: OpApplyRule, Rule: policy.Rule{ID: "a", Rate: 100, Burst: 5}},
		{Kind: OpApplyRule, Rule: policy.Rule{ID: "b", Rate: 200}},
		{Kind: OpSetRate, ID: "a", Rate: 150},
		{Kind: OpSetRate, ID: "ghost", Rate: 1},
		{Kind: OpRemoveRule, ID: "b"},
		{Kind: OpRemoveRule, ID: "b"},
		{Kind: OpSetMode, Mode: stage.Passthrough},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantFound := []bool{true, true, true, false, true, false, true}
	if len(results) != len(wantFound) {
		t.Fatalf("got %d results, want %d", len(results), len(wantFound))
	}
	for i, want := range wantFound {
		if results[i].Found != want {
			t.Errorf("op %d Found = %v, want %v", i, results[i].Found, want)
		}
	}
	rules := stg.Rules()
	if len(rules) != 1 || rules[0].ID != "a" || rules[0].Rate != 150 {
		t.Errorf("stage rules after batch = %+v", rules)
	}
	if stg.Mode() != stage.Passthrough {
		t.Error("mode op in batch not applied")
	}
}

func TestBatchRejectsUnknownOpKindAtomically(t *testing.T) {
	stg, h := servedStage(t)
	_, _, err := h.Exec([]StageOp{
		{Kind: OpApplyRule, Rule: policy.Rule{ID: "x", Rate: 100}},
		{Kind: OpKind(99)},
	}, nil)
	if err == nil {
		t.Fatal("batch with unknown op kind succeeded")
	}
	// Validation runs before any op applies: the valid first op must not
	// have leaked through.
	if got := len(stg.Rules()); got != 0 {
		t.Errorf("%d rules installed by a rejected batch, want 0", got)
	}
}

// TestDeltaCollectMatchesDirectCollect is the core property of the
// incremental protocol: at every point in a random op/traffic history,
// the client's merged snapshot equals what a direct Collect on the
// stage returns at the same instant. With a second handle collecting
// the same stage every fifth round, just before the first, the stage's
// one baseline moves to the second handle each time: the first
// handle's next collect is then a full snapshot, and must be exactly
// right too.
func TestDeltaCollectMatchesDirectCollect(t *testing.T) {
	for _, tc := range []struct {
		name  string
		every int // rounds between the second handle's collects; 0: none
	}{{"one handle", 0}, {"interleaved second handle", 5}} {
		for _, seed := range []int64{1, 7, 2022} {
			clk := clock.NewSim(epoch)
			stg := stage.New(stage.Info{StageID: "s1", JobID: "j1", Hostname: "n1", PID: 7}, clk)
			svc := NewStageService(stg)
			h, other := LocalStage(svc, nil), LocalStage(svc, nil)
			rng := rand.New(rand.NewSource(seed))

			ids := []string{"r0", "r1", "r2", "r3", "r4", "r5"}
			var merged, otherMerged stage.Stats
			foreign := uint64(0)
			for round := 0; round < 60; round++ {
				// A few random mutations per round, so some queues change,
				// some stay identical (delta must skip those), and some
				// disappear (delta must name them in Removed).
				for m := 0; m < 1+rng.Intn(3); m++ {
					id := ids[rng.Intn(len(ids))]
					switch rng.Intn(4) {
					case 0:
						stg.ApplyRule(policy.Rule{
							ID:    id,
							Match: policy.Matcher{Ops: []posix.Op{posix.OpOpen}, JobID: "j1"},
							Rate:  float64(100 * (1 + rng.Intn(50))),
						})
					case 1:
						stg.RemoveRule(id)
					case 2:
						stg.SetRate(id, float64(100*(1+rng.Intn(50))))
					default:
						stg.Offer(&posix.Request{Op: posix.OpOpen, JobID: "j1"}, float64(1+rng.Intn(5000)), time.Second)
					}
				}
				clk.Advance(time.Second)

				if tc.every > 0 && round%tc.every == tc.every-1 {
					foreign++
					if err := other.CollectDeltaInto(&otherMerged); err != nil {
						t.Fatal(err)
					}
					if direct := stg.Collect(); !sameStats(otherMerged, direct) {
						t.Fatalf("%s seed %d round %d: second handle diverged from direct collect\nmerged: %+v\ndirect: %+v",
							tc.name, seed, round, otherMerged, direct)
					}
				}
				if err := h.CollectDeltaInto(&merged); err != nil {
					t.Fatal(err)
				}
				if direct := stg.Collect(); !sameStats(merged, direct) {
					t.Fatalf("%s seed %d round %d: merged snapshot diverged from direct collect\nmerged: %+v\ndirect: %+v",
						tc.name, seed, round, merged, direct)
				}
			}
			fulls, deltas := h.CollectCounts()
			if fulls != 1+foreign {
				t.Errorf("%s seed %d: %d full snapshots, want %d (the first contact and one after each foreign collect)",
					tc.name, seed, fulls, 1+foreign)
			}
			if deltas == 0 {
				t.Errorf("%s seed %d: no incremental replies in 60 rounds", tc.name, seed)
			}
			if fulls, deltas := other.CollectCounts(); fulls != foreign || deltas != 0 {
				t.Errorf("%s seed %d: second handle saw %d full / %d delta collects, want %d/0",
					tc.name, seed, fulls, deltas, foreign)
			}
		}
	}
}

// TestDeltaFallsBackToFullAfterStageRestart: the stage process dies
// and a fresh one (new StageService) registers in its place, so the
// controller collects it over a new handle into the same merge buffer,
// which still holds the dead stage's snapshot. The new handle has no
// acknowledgment for that buffer, so the stage answers with a full
// snapshot, and the merged state must match the new stage exactly —
// none of the dead stage's queues may survive the merge.
func TestDeltaFallsBackToFullAfterStageRestart(t *testing.T) {
	clk := clock.NewSim(epoch)
	stg1 := stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clk)
	stg1.ApplyRule(policy.Rule{ID: "old-only", Rate: 100})
	stg1.ApplyRule(policy.Rule{ID: "shared", Rate: 200})
	h := LocalStage(NewStageService(stg1), nil)

	var merged stage.Stats
	for i := 0; i < 3; i++ {
		if err := h.CollectDeltaInto(&merged); err != nil {
			t.Fatal(err)
		}
	}

	// The stage process restarts: fresh state, fresh service, new handle.
	_ = h.Close()
	stg2 := stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clk)
	stg2.ApplyRule(policy.Rule{ID: "shared", Rate: 999})
	h = LocalStage(NewStageService(stg2), nil)

	if err := h.CollectDeltaInto(&merged); err != nil {
		t.Fatal(err)
	}
	direct := stg2.Collect()
	if !sameStats(merged, direct) {
		t.Fatalf("merged snapshot after restart diverged:\nmerged: %+v\ndirect: %+v", merged, direct)
	}
	for _, q := range merged.Queues {
		if q.RuleID == "old-only" {
			t.Error("queue from the dead stage survived into the new handle's full snapshot")
		}
	}
	if fulls, deltas := h.CollectCounts(); fulls != 1 || deltas != 0 {
		t.Errorf("new handle: %d full / %d delta collects, want 1/0 (the restart's full snapshot)", fulls, deltas)
	}
}

// TestDeltaTrackerOneBaseline drives two handles against one service,
// interleaved. The stage keeps one baseline — the snapshot it last sent
// — so each collect that follows the other handle's finds its
// acknowledgment superseded and is answered in full, and every merged
// snapshot must still be exactly right. Two collects in a row by one
// handle stay incremental.
func TestDeltaTrackerOneBaseline(t *testing.T) {
	clk := clock.NewSim(epoch)
	stg := stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clk)
	stg.ApplyRule(policy.Rule{ID: "q", Match: policy.Matcher{JobID: "j1"}, Rate: 500})
	svc := NewStageService(stg)
	a, b := LocalStage(svc, nil), LocalStage(svc, nil)
	merged := map[*StageHandle]*stage.Stats{a: {}, b: {}}

	const rounds = 4
	for i := 0; i < rounds; i++ {
		stg.Offer(&posix.Request{Op: posix.OpOpen, JobID: "j1"}, 100, time.Second)
		clk.Advance(time.Second)
		for _, h := range []*StageHandle{a, b} {
			if err := h.CollectDeltaInto(merged[h]); err != nil {
				t.Fatal(err)
			}
			if direct := stg.Collect(); !sameStats(*merged[h], direct) {
				t.Fatalf("round %d: interleaved client diverged\nmerged: %+v\ndirect: %+v", i, *merged[h], direct)
			}
		}
	}
	for name, h := range map[string]*StageHandle{"a": a, "b": b} {
		if fulls, deltas := h.CollectCounts(); fulls != rounds || deltas != 0 {
			t.Errorf("client %s: fulls=%d deltas=%d, want %d/0 (each collect follows the other client's)",
				name, fulls, deltas, rounds)
		}
	}
	if served := svc.Served(); served.FullCollects != 2*rounds || served.DeltaCollects != 0 {
		t.Errorf("service counters = %+v, want %d fulls and no deltas", served, 2*rounds)
	}

	if err := b.CollectDeltaInto(merged[b]); err != nil {
		t.Fatal(err)
	}
	if !sameStats(*merged[b], stg.Collect()) {
		t.Fatal("repeat collect diverged from direct collect")
	}
	if _, deltas := b.CollectCounts(); deltas != 1 {
		t.Errorf("a repeat collect by the same client got %d deltas, want 1", deltas)
	}
}

// TestBatchStaleGenerationGetsFull exercises the service-side ack check
// directly: an acknowledgment for any generation but the current one —
// stale, or future — must produce a full snapshot.
func TestBatchStaleGenerationGetsFull(t *testing.T) {
	stg := stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clock.NewSim(epoch))
	svc := NewStageService(stg)

	var first BatchReply
	if err := svc.Batch(BatchArgs{Collect: true}, &first); err != nil {
		t.Fatal(err)
	}
	if !first.Delta.Full {
		t.Fatal("first collect was not a full snapshot")
	}

	var second BatchReply
	if err := svc.Batch(BatchArgs{Collect: true, AckGen: first.Delta.Gen}, &second); err != nil {
		t.Fatal(err)
	}
	if second.Delta.Full {
		t.Error("matching ack still produced a full snapshot")
	}

	for name, args := range map[string]BatchArgs{
		"stale gen":  {Collect: true, AckGen: first.Delta.Gen},
		"future gen": {Collect: true, AckGen: second.Delta.Gen + 7},
	} {
		var reply BatchReply
		if err := svc.Batch(args, &reply); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reply.Delta.Full {
			t.Errorf("%s: reply was incremental, want full fallback", name)
		}
		// Resync: the fallback advanced the generation.
		var resync BatchReply
		if err := svc.Batch(BatchArgs{Collect: true, AckGen: reply.Delta.Gen}, &resync); err != nil {
			t.Fatal(err)
		}
		if resync.Delta.Full {
			t.Errorf("%s: client did not resync to incremental after the fallback", name)
		}
	}
}

// TestDeltaCollectOverWire runs the incremental protocol over the real
// TCP transport (ServeStageService + DialStage) instead of in process. This
// is the regression test for reply reuse: a handle reuses one reply
// struct across exchanges, so a decoder that merged instead of
// overwrote would read every post-full incremental reply with a stale
// Full=true and wipe unchanged queues from the merged snapshot.
func TestDeltaCollectOverWire(t *testing.T) {
	clk := clock.NewSim(epoch)
	stg := stage.New(stage.Info{StageID: "s1", JobID: "j1", Hostname: "n1", PID: 7}, clk)
	stg.ApplyRule(policy.Rule{ID: "a", Match: policy.Matcher{Ops: []posix.Op{posix.OpOpen}, JobID: "j1"}, Rate: 100})
	stg.ApplyRule(policy.Rule{ID: "b", Rate: 200})
	svc := NewStageService(stg)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := ServeStageService(l, svc)
	t.Cleanup(stop)
	h, err := DialStage(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })

	var merged stage.Stats
	check := func(round string) stage.Stats {
		t.Helper()
		if err := h.CollectDeltaInto(&merged); err != nil {
			t.Fatal(err)
		}
		direct := stg.Collect()
		if !sameStats(merged, direct) {
			t.Fatalf("%s: merged snapshot diverged from direct collect\nmerged: %+v\ndirect: %+v", round, merged, direct)
		}
		return merged
	}

	check("first contact (full)")
	// Nothing changed: the delta is empty on the wire, and the merged
	// snapshot must still hold both queues.
	if got := check("empty delta"); len(got.Queues) != 2 {
		t.Fatalf("merged snapshot lost queues over an empty delta: %d queues, want 2", len(got.Queues))
	}
	// Traffic on one queue only: the other must survive the merge.
	stg.Offer(&posix.Request{Op: posix.OpOpen, JobID: "j1"}, 50, time.Second)
	clk.Advance(time.Second)
	if got := check("one-queue delta"); len(got.Queues) != 2 {
		t.Fatalf("merged snapshot lost the unchanged queue: %d queues, want 2", len(got.Queues))
	}
	// A removal must cross the wire in Removed.
	stg.RemoveRule("b")
	check("removal delta")

	fulls, deltas := h.CollectCounts()
	if fulls != 1 || deltas != 3 {
		t.Errorf("client counted fulls=%d deltas=%d, want 1/3", fulls, deltas)
	}
	served := svc.Served()
	if served.FullCollects != 1 || served.DeltaCollects != 3 {
		t.Errorf("server sent fulls=%d deltas=%d, want 1/3 (client and server must agree the steady state is incremental)",
			served.FullCollects, served.DeltaCollects)
	}
}

// TestBatchResultsOverWireDropStaleFound: the handle reuses its reply,
// so a decoder that left slots untouched would keep a previous round's
// Found=true in place. Over the real transport, ops that fail after ops
// that succeeded must still decode as Found=false.
func TestBatchResultsOverWireDropStaleFound(t *testing.T) {
	_, h := servedStage(t)
	results, _, err := h.Exec([]StageOp{
		{Kind: OpApplyRule, Rule: policy.Rule{ID: "a", Rate: 100}},
		{Kind: OpRemoveRule, ID: "a"},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].Found || !results[1].Found {
		t.Fatalf("first batch results = %+v, want both Found", results)
	}
	results, _, err = h.Exec([]StageOp{
		{Kind: OpRemoveRule, ID: "a"},
		{Kind: OpSetRate, ID: "ghost", Rate: 1},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Found || results[1].Found {
		t.Fatalf("second batch results = %+v, want both not-Found (stale Found=true leaked through reply reuse)", results)
	}
}

func TestServiceStatsCountBatchTraffic(t *testing.T) {
	clk := clock.NewSim(epoch)
	stg := stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clk)
	svc := NewStageService(stg)
	h := LocalStage(svc, nil)

	var st stage.Stats
	if _, _, err := h.Exec([]StageOp{
		{Kind: OpApplyRule, Rule: policy.Rule{ID: "a", Rate: 100}},
		{Kind: OpSetRate, ID: "a", Rate: 200},
	}, &st); err != nil {
		t.Fatal(err)
	}
	if err := h.CollectDeltaInto(&st); err != nil {
		t.Fatal(err)
	}
	got := svc.Served()
	want := ServiceStats{Calls: 2, BatchedOps: 2, DeltaCollects: 1, FullCollects: 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Served() = %+v, want %+v", got, want)
	}
}

// BenchmarkCollectDeltaSteadyState measures the per-round cost of an
// incremental collect when nothing changes — the fleet steady state the
// controller's feedback loop sits in. It runs the whole frame transport
// in process (LocalStage: the binary codec, the frame cutter, the
// gather) and materializes into a caller-owned buffer;
// the interesting number is allocs: the service reuses its scratch
// snapshot, the handle its args/reply buffers and delta cache, and the
// codec appends into reused frames, so steady-state rounds must stay
// allocation-free (≤2 allocs/op tolerated for map-iteration noise).
func BenchmarkCollectDeltaSteadyState(b *testing.B) {
	clk := clock.NewSim(epoch)
	stg := stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clk)
	for _, id := range []string{"a", "b", "c", "d"} {
		stg.ApplyRule(policy.Rule{ID: id, Rate: 1000})
	}
	h := LocalStage(NewStageService(stg), nil)
	var st stage.Stats
	if err := h.CollectDeltaInto(&st); err != nil { // first contact: full
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.CollectDeltaInto(&st); err != nil {
			b.Fatal(err)
		}
	}
}
