package rpcio

import (
	"bytes"
	"testing"
	"time"

	"padll/internal/clock"
	"padll/internal/policy"
	"padll/internal/posix"
	"padll/internal/stage"
)

// The service-side quiescence skip: while the stage holds a valid
// quiescence token for a client's baseline, that client's collects are
// answered without snapshotting the stage or diffing — an empty delta
// that still advances the generation. The merged client view must stay
// codec-byte-identical to a direct Collect through skip rounds, traffic, and
// the transition back to quiet.
func TestQuietSkipKeepsClientViewExact(t *testing.T) {
	clk := clock.NewSim(epoch)
	stg := stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clk)
	stg.ApplyRule(policy.Rule{ID: "q", Match: policy.Matcher{JobID: "j1"}, Rate: 500})
	svc := NewStageService(stg)
	h := EncodedLoopbackStage(svc)

	check := func(round string) stage.Stats {
		t.Helper()
		merged, err := collect(h)
		if err != nil {
			t.Fatal(err)
		}
		direct := stg.Collect()
		if !bytes.Equal(statsBytes(merged), statsBytes(direct)) {
			t.Fatalf("%s: merged view diverged\nmerged: %+v\ndirect: %+v", round, merged, direct)
		}
		return merged
	}

	// Round 1: full snapshot; the idle stage is quiet at once, so the
	// tracker holds a token for rounds 2-3.
	check("full")
	check("skip-1")
	check("skip-2")

	// Traffic breaks the token; the next collect carries the change.
	stg.Offer(&posix.Request{Op: posix.OpOpen, JobID: "j1"}, 100, time.Second)
	clk.Advance(time.Second)
	st := check("after-traffic")
	if st.Queues[0].Total == 0 {
		t.Fatal("traffic missing from merged view after skip rounds")
	}

	// Rates decay back to zero: quiet returns, and the view stays exact
	// through another skip round.
	clk.Advance(2 * time.Second)
	check("decay")
	check("skip-3")

	// The skip still serves and counts as a delta collect; only the
	// first round was full.
	fulls, deltas := h.CollectCounts()
	if fulls != 1 || deltas != 5 {
		t.Errorf("client counts: fulls=%d deltas=%d, want 1/5", fulls, deltas)
	}
}

// A quiet skip advances the generation like any collect, so a client
// acknowledging anything but the latest generation — e.g. one that lost
// a skip reply — still falls back to a full resync.
func TestQuietSkipAdvancesGeneration(t *testing.T) {
	stg := stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clock.NewSim(epoch))
	stg.ApplyRule(policy.Rule{ID: "q", Match: policy.Matcher{JobID: "j1"}, Rate: 500})
	svc := NewStageService(stg)

	var first, second, third BatchReply
	if err := svc.Batch(BatchArgs{Collect: true, ClientID: 7}, &first); err != nil {
		t.Fatal(err)
	}
	if err := svc.Batch(BatchArgs{Collect: true, ClientID: 7, AckEpoch: first.Delta.Epoch, AckGen: first.Delta.Gen}, &second); err != nil {
		t.Fatal(err)
	}
	if second.Delta.Full {
		t.Fatal("quiet second collect produced a full snapshot")
	}
	if len(second.Delta.Queues) != 0 || len(second.Delta.Removed) != 0 {
		t.Fatalf("quiet skip emitted a non-empty delta: %+v", second.Delta)
	}
	if second.Delta.Gen != first.Delta.Gen+1 {
		t.Fatalf("skip did not advance gen: %d after %d", second.Delta.Gen, first.Delta.Gen)
	}

	// Acking the pre-skip generation must resync with a full snapshot.
	if err := svc.Batch(BatchArgs{Collect: true, ClientID: 7, AckEpoch: first.Delta.Epoch, AckGen: first.Delta.Gen}, &third); err != nil {
		t.Fatal(err)
	}
	if !third.Delta.Full {
		t.Fatal("stale ack after a skip round did not fall back to full")
	}
}
