package rpcio

import (
	"bytes"
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
	}, nil, false)
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
	}, nil, false)
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
// the client's merged snapshot is codec-byte-identical to what a direct
// Collect on the stage returns at the same instant.
func TestDeltaCollectMatchesDirectCollect(t *testing.T) {
	for _, seed := range []int64{1, 7, 2022} {
		clk := clock.NewSim(epoch)
		stg := stage.New(stage.Info{StageID: "s1", JobID: "j1", Hostname: "n1", PID: 7}, clk)
		svc := NewStageService(stg)
		h := EncodedLoopbackStage(svc)
		rng := rand.New(rand.NewSource(seed))

		ids := []string{"r0", "r1", "r2", "r3", "r4", "r5"}
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

			merged, err := collect(h)
			if err != nil {
				t.Fatal(err)
			}
			direct := stg.Collect()
			if !bytes.Equal(statsBytes(merged), statsBytes(direct)) {
				t.Fatalf("seed %d round %d: merged snapshot diverged from direct collect\nmerged: %+v\ndirect: %+v",
					seed, round, merged, direct)
			}
		}
		fulls, deltas := h.CollectCounts()
		if fulls != 1 {
			t.Errorf("seed %d: %d full snapshots, want exactly 1 (the first contact)", seed, fulls)
		}
		if deltas == 0 {
			t.Errorf("seed %d: no incremental replies in 60 rounds", seed)
		}
	}
}

// switchableTransport lets a test swap the peer under a live handle —
// the client-side view of a stage process that died and was replaced.
type switchableTransport struct {
	inner Transport
}

func (s *switchableTransport) Start(method string, args, reply any) {
	s.inner.Start(method, args, reply)
}
func (s *switchableTransport) Finish() error          { return s.inner.Finish() }
func (s *switchableTransport) Retry(attempt int) bool { return s.inner.Retry(attempt) }
func (s *switchableTransport) WireStats() WireStats   { return s.inner.WireStats() }
func (s *switchableTransport) Close() error           { return s.inner.Close() }

// TestDeltaFallsBackToFullAfterStageRestart kills the serving stage and
// replaces it with a fresh one (new StageService, new epoch). The
// client's acknowledged generation is now meaningless; the stage must
// answer with a full snapshot, and the merged state must match the new
// stage exactly — none of the dead stage's queues may survive the merge.
func TestDeltaFallsBackToFullAfterStageRestart(t *testing.T) {
	clk := clock.NewSim(epoch)
	stg1 := stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clk)
	stg1.ApplyRule(policy.Rule{ID: "old-only", Rate: 100})
	stg1.ApplyRule(policy.Rule{ID: "shared", Rate: 200})
	sw := &switchableTransport{inner: NewEncodedLoopback(NewStageService(stg1))}
	h := NewStageHandle(sw)

	for i := 0; i < 3; i++ {
		if _, err := collect(h); err != nil {
			t.Fatal(err)
		}
	}

	// The stage process restarts: fresh state, fresh service epoch.
	stg2 := stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clk)
	stg2.ApplyRule(policy.Rule{ID: "shared", Rate: 999})
	sw.inner = NewEncodedLoopback(NewStageService(stg2))

	merged, err := collect(h)
	if err != nil {
		t.Fatal(err)
	}
	direct := stg2.Collect()
	if !bytes.Equal(statsBytes(merged), statsBytes(direct)) {
		t.Fatalf("merged snapshot after restart diverged:\nmerged: %+v\ndirect: %+v", merged, direct)
	}
	for _, q := range merged.Queues {
		if q.RuleID == "old-only" {
			t.Error("queue from the dead stage survived the epoch change")
		}
	}
	fulls, _ := h.CollectCounts()
	if fulls != 2 {
		t.Errorf("%d full snapshots, want 2 (first contact + restart fallback)", fulls)
	}
}

// TestDeltaTrackerPerClientBaselines drives two clients against one
// service. The stage keeps one baseline per client (keyed by the
// handle's ClientID), so interleaved collectors don't invalidate each
// other's acknowledgments: after each client's first-contact full
// snapshot, both stay incremental — and every snapshot must still be
// exactly right.
func TestDeltaTrackerPerClientBaselines(t *testing.T) {
	clk := clock.NewSim(epoch)
	stg := stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clk)
	stg.ApplyRule(policy.Rule{ID: "q", Match: policy.Matcher{JobID: "j1"}, Rate: 500})
	svc := NewStageService(stg)
	a, b := EncodedLoopbackStage(svc), EncodedLoopbackStage(svc)

	const rounds = 4
	for i := 0; i < rounds; i++ {
		stg.Offer(&posix.Request{Op: posix.OpOpen, JobID: "j1"}, 100, time.Second)
		clk.Advance(time.Second)
		for _, h := range []*StageHandle{a, b} {
			merged, err := collect(h)
			if err != nil {
				t.Fatal(err)
			}
			direct := stg.Collect()
			if !bytes.Equal(statsBytes(merged), statsBytes(direct)) {
				t.Fatalf("round %d: interleaved client diverged\nmerged: %+v\ndirect: %+v", i, merged, direct)
			}
		}
	}
	for name, h := range map[string]*StageHandle{"a": a, "b": b} {
		fulls, deltas := h.CollectCounts()
		if fulls != 1 || deltas != rounds-1 {
			t.Errorf("client %s: fulls=%d deltas=%d, want 1/%d (per-client baselines must keep interleaved collectors incremental)",
				name, fulls, deltas, rounds-1)
		}
	}
	served := svc.Served()
	if served.FullCollects != 2 || served.DeltaCollects != 2*(rounds-1) {
		t.Errorf("service counters = %+v, want 2 fulls and %d deltas", served, 2*(rounds-1))
	}
}

// TestDeltaTrackerEvictionFallsBackToFull fills the service's baseline
// table past its cap and returns to the first (evicted) client: its next
// collect must degrade to a full snapshot, not a bogus delta.
func TestDeltaTrackerEvictionFallsBackToFull(t *testing.T) {
	stg := stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clock.NewSim(epoch))
	stg.ApplyRule(policy.Rule{ID: "q", Rate: 500})
	svc := NewStageService(stg)

	first := EncodedLoopbackStage(svc)
	if _, err := collect(first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxDeltaTrackers; i++ {
		if _, err := collect(EncodedLoopbackStage(svc)); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := collect(first)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(statsBytes(merged), statsBytes(stg.Collect())) {
		t.Fatal("evicted client's merged snapshot diverged from direct collect")
	}
	if fulls, _ := first.CollectCounts(); fulls != 2 {
		t.Errorf("evicted client saw %d full snapshots, want 2 (first contact + post-eviction fallback)", fulls)
	}
}

// TestBatchStaleGenerationGetsFull exercises the service-side ack check
// directly: an acknowledgment for any generation but the current one —
// stale, future, or another client's — must produce a full snapshot.
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
	if err := svc.Batch(BatchArgs{Collect: true, AckEpoch: first.Delta.Epoch, AckGen: first.Delta.Gen}, &second); err != nil {
		t.Fatal(err)
	}
	if second.Delta.Full {
		t.Error("matching ack still produced a full snapshot")
	}

	for name, args := range map[string]BatchArgs{
		"stale gen":   {Collect: true, AckEpoch: second.Delta.Epoch, AckGen: first.Delta.Gen},
		"future gen":  {Collect: true, AckEpoch: second.Delta.Epoch, AckGen: second.Delta.Gen + 7},
		"wrong epoch": {Collect: true, AckEpoch: second.Delta.Epoch + 1, AckGen: second.Delta.Gen},
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
		if err := svc.Batch(BatchArgs{Collect: true, AckEpoch: reply.Delta.Epoch, AckGen: reply.Delta.Gen}, &resync); err != nil {
			t.Fatal(err)
		}
		if resync.Delta.Full {
			t.Errorf("%s: client did not resync to incremental after the fallback", name)
		}
	}
}

// TestDeltaCollectOverWire runs the incremental protocol over the real
// TCP transport (ServeStageService + DialStage) instead of a loopback. This
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

	check := func(round string) stage.Stats {
		t.Helper()
		merged, err := collect(h)
		if err != nil {
			t.Fatal(err)
		}
		direct := stg.Collect()
		if !bytes.Equal(statsBytes(merged), statsBytes(direct)) {
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
	}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].Found || !results[1].Found {
		t.Fatalf("first batch results = %+v, want both Found", results)
	}
	results, _, err = h.Exec([]StageOp{
		{Kind: OpRemoveRule, ID: "a"},
		{Kind: OpSetRate, ID: "ghost", Rate: 1},
	}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Found || results[1].Found {
		t.Fatalf("second batch results = %+v, want both not-Found (stale Found=true leaked through reply reuse)", results)
	}
}

func TestServiceStatsCountBatchTraffic(t *testing.T) {
	stg := stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clock.NewSim(epoch))
	svc := NewStageService(stg)
	h := EncodedLoopbackStage(svc)

	var st stage.Stats
	if _, _, err := h.Exec([]StageOp{
		{Kind: OpApplyRule, Rule: policy.Rule{ID: "a", Rate: 100}},
		{Kind: OpSetRate, ID: "a", Rate: 200},
	}, &st, false); err != nil {
		t.Fatal(err)
	}
	if _, err := collect(h); err != nil {
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
// controller's feedback loop sits in. It runs the full binary wire
// codec (EncodedLoopback) and materializes into a caller-owned buffer;
// the interesting number is allocs: the service reuses its scratch
// snapshot, the handle its args/reply buffers and delta cache, and the
// codec appends into reused frames, so steady-state rounds must stay
// allocation-free (≤2 allocs/op tolerated for map-iteration noise).
func BenchmarkCollectDeltaSteadyState(b *testing.B) {
	stg := stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clock.NewSim(epoch))
	for _, id := range []string{"a", "b", "c", "d"} {
		stg.ApplyRule(policy.Rule{ID: id, Rate: 1000})
	}
	h := EncodedLoopbackStage(NewStageService(stg))
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
