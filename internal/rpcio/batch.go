// The batched, delta-encoded control protocol — the only stage protocol.
//
// One round trip per operation per stage per control round, with every
// collect shipping the stage's full Stats blob even when nothing moved,
// bounds the controller's feedback loop (§III-C) by the wire instead of
// the allocation algorithm. Stage.Batch therefore carries a round's
// worth of operations for one stage in a single RPC (a single operation
// is a one-op batch), and its collect half is incremental. Each end
// keeps one baseline: the stage remembers the last snapshot it sent
// (identified by its generation) and sends only the queues that changed
// since, and the handle merges each reply in place into the caller's
// buffer that holds the previous one. An acknowledgment that doesn't
// match — first contact, another collector's collect in between, or a
// new buffer — gets a full snapshot, so correctness never depends on
// both sides staying in sync. A handle meets one stage service in its
// life (its connection's), and a restarted stage is a new connection
// and so a new handle, whose first collect acknowledges nothing.
package rpcio

import (
	"fmt"
	"sort"
	"sync"

	"padll/internal/policy"
	"padll/internal/stage"
)

// OpKind selects which stage operation a StageOp performs.
type OpKind uint8

const (
	// OpApplyRule installs or updates Rule (upsert).
	OpApplyRule OpKind = iota + 1
	// OpRemoveRule deletes rule ID.
	OpRemoveRule
	// OpSetRate retunes rule ID's queue to Rate.
	OpSetRate
	// OpSetMode switches the stage to Mode.
	OpSetMode
)

// StageOp is one control operation inside a batch. Exactly the fields
// its Kind names are meaningful.
type StageOp struct {
	Kind OpKind
	Rule policy.Rule // OpApplyRule
	ID   string      // OpRemoveRule, OpSetRate
	Rate float64     // OpSetRate
	Mode stage.Mode  // OpSetMode
}

// OpResult reports one op's outcome. Found is whether the rule existed
// for OpRemoveRule (it was removed) and OpSetRate (it was retuned);
// always true for OpApplyRule and OpSetMode.
type OpResult struct {
	Found bool
}

// BatchArgs carries one control round's operations for a stage.
type BatchArgs struct {
	Ops []StageOp
	// Collect asks for a statistics snapshot in the same round trip,
	// taken after Ops applied.
	Collect bool
	// AckGen acknowledges the last StatsDelta this client merged; when
	// it matches the stage's current generation — no other collect came
	// in between — the reply is incremental.
	AckGen uint64
}

// BatchReply answers a batch: one result per op, plus the stats delta
// when a collect was requested.
type BatchReply struct {
	Results []OpResult
	Delta   StatsDelta
}

// StatsDelta is an incremental form of stage.Stats. When Full is set it
// is a complete snapshot (Queues holds every queue, Info is set); when
// clear, Queues holds only the queues whose statistics changed since
// the acknowledged generation and Removed names the rules deleted since
// then. The cheap scalar fields are always absolute values.
type StatsDelta struct {
	// Gen is the generation this delta advances the client to.
	Gen  uint64
	Full bool
	// Info is set only on full snapshots (stage identity is immutable).
	Info    stage.Info
	Queues  []stage.QueueStats
	Removed []string

	Passthrough     int64
	Degraded        bool
	DegradedSeconds float64
}

// ServiceStats counts what a StageService has served, for observability
// (the replayer prints them at shutdown).
type ServiceStats struct {
	// Calls is the number of Stage.Batch calls served.
	Calls uint64
	// BatchedOps is the number of operations that arrived inside
	// Stage.Batch calls.
	BatchedOps uint64
	// DeltaCollects and FullCollects split collects by reply form.
	DeltaCollects uint64
	FullCollects  uint64
}

// deltaTracker is the stage-side memory of the last snapshot it sent:
// the generation counter and the per-queue values at that generation,
// which the next collect diffs against.
type deltaTracker struct {
	mu  sync.Mutex
	gen uint64
	// last holds the queue values at gen, sorted by rule ID — the order
	// CollectInto emits. Diffing the next snapshot is one two-pointer
	// walk over two equally sorted slices and advancing the baseline is
	// one bulk copy, where a map baseline would hash every rule ID on
	// every round.
	last    []stage.QueueStats
	scratch stage.Stats // CollectInto buffer, reused every round

	// tok is the stage's quiescence token from the last collect (see
	// stage.CollectQuietInto). While it holds, collects acknowledging
	// gen skip the snapshot and the diff entirely.
	tok uint64
}

// applyOps applies ops to stg in order, appending one result per op to
// results. A malformed batch is rejected before any op applies, so it
// is all-or-nothing instead of partially executed.
func applyOps(stg *stage.Stage, ops []StageOp, results []OpResult) ([]OpResult, error) {
	for i, op := range ops {
		if op.Kind < OpApplyRule || op.Kind > OpSetMode {
			return results, fmt.Errorf("rpcio: batch op %d: unknown kind %d", i, op.Kind)
		}
	}
	for _, op := range ops {
		res := OpResult{Found: true}
		switch op.Kind {
		case OpApplyRule:
			stg.ApplyRule(op.Rule)
		case OpRemoveRule:
			res.Found = stg.RemoveRule(op.ID)
		case OpSetRate:
			res.Found = stg.SetRate(op.ID, op.Rate)
		case OpSetMode:
			stg.SetMode(op.Mode)
		}
		results = append(results, res)
	}
	return results, nil
}

// Batch executes a round's operations and optional incremental collect
// in one round trip.
func (s *StageService) Batch(args BatchArgs, reply *BatchReply) (err error) {
	if reply.Results, err = applyOps(s.stg, args.Ops, reply.Results[:0]); err != nil {
		return err
	}
	s.calls.Add(1)
	s.batchedOps.Add(uint64(len(args.Ops)))
	if args.Collect {
		s.collectDelta(args.AckGen, &reply.Delta)
	}
	return nil
}

// collectDelta snapshots the stage and encodes it as a delta against
// the client's acknowledged generation, or a full snapshot when the ack
// doesn't match. The reply owns its data: queue values are copied out
// of the tracker's scratch buffer, never aliased, because the reply is
// encoded after this method returns, when a concurrent call from
// another connection may already be rewriting the scratch.
func (s *StageService) collectDelta(ackGen uint64, d *StatsDelta) {
	t := &s.track
	t.mu.Lock()
	defer t.mu.Unlock()

	incremental := ackGen == t.gen && t.gen > 0
	if incremental && t.tok != 0 && s.stg.QuietSince(t.tok) {
		// The stage proves its statistics unchanged since the collect this
		// client acknowledges: an empty delta, touching no counter. The scratch
		// buffer still holds the snapshot the token vouches for, so the
		// scalar fields every delta carries come straight from it. The
		// generation still advances — gen identifies the collect, not
		// the baseline, and any ack but the latest must keep falling
		// back to a full snapshot.
		s.deltaCollects.Add(1)
		t.gen++
		d.Gen = t.gen
		d.Full = false
		d.Info = stage.Info{}
		d.Queues = d.Queues[:0]
		d.Removed = d.Removed[:0]
		d.Passthrough = t.scratch.Passthrough
		d.Degraded = t.scratch.Degraded
		d.DegradedSeconds = t.scratch.DegradedSeconds
		return
	}

	t.tok = s.stg.CollectQuietInto(&t.scratch)
	st := &t.scratch

	t.gen++
	d.Gen = t.gen
	d.Full = !incremental
	d.Queues = d.Queues[:0]
	d.Removed = d.Removed[:0]
	d.Passthrough = st.Passthrough
	d.Degraded = st.Degraded
	d.DegradedSeconds = st.DegradedSeconds
	if incremental {
		d.Info = stage.Info{}
		s.deltaCollects.Add(1)
		// Both slices are sorted by rule ID (Collect sorts), so one
		// two-pointer walk finds changed, added, and removed rules.
		j := 0
		for i := range st.Queues {
			q := &st.Queues[i]
			for j < len(t.last) && t.last[j].RuleID < q.RuleID {
				d.Removed = append(d.Removed, t.last[j].RuleID)
				j++
			}
			if j < len(t.last) && t.last[j].RuleID == q.RuleID {
				if t.last[j] != *q {
					d.Queues = append(d.Queues, *q)
				}
				j++
			} else {
				d.Queues = append(d.Queues, *q)
			}
		}
		for ; j < len(t.last); j++ {
			d.Removed = append(d.Removed, t.last[j].RuleID)
		}
	} else {
		d.Info = st.Info
		s.fullCollects.Add(1)
		d.Queues = append(d.Queues, st.Queues...)
	}

	// Advance the baseline to this generation: a bulk copy of the
	// already sorted snapshot.
	t.last = append(t.last[:0], st.Queues...)
}

// deltaState is the client half of incremental collection. The merged
// snapshot a sequence of StatsDelta replies reconstructs is the caller's
// own buffer, buf; the state holds only what acknowledges it. It is not
// safe for concurrent use; StageHandle guards its own instance.
type deltaState struct {
	// gen acknowledges the last reply merged into buf.
	gen uint64
	buf *stage.Stats

	// fulls/deltas count reply forms, for tests and experiments.
	fulls, deltas uint64
}

// find binary-searches qs for a rule ID, returning its index (or the
// insertion point) and whether it is present.
func find(qs []stage.QueueStats, id string) (int, bool) {
	i := sort.Search(len(qs), func(k int) bool { return qs[k].RuleID >= id })
	return i, i < len(qs) && qs[i].RuleID == id
}

// apply merges one reply into buf in place and reports whether buf
// changed — false exactly when it already was the snapshot the reply
// describes. buf ends equal to what a direct Collect at the same
// instant would have returned: queues sorted by rule ID, which is the
// order deltas arrive in, so a steady-state round is binary-search
// overwrites with no sort and no per-rule hashing. Queue entries may
// arrive in any order and may repeat within a reply (later entries
// win). Info is written by full snapshots only (a stage's identity never
// changes), the scalars by every reply; capacity is reused, so a
// steady-state collect allocates nothing.
func (ds *deltaState) apply(d *StatsDelta) (changed bool) {
	st := ds.buf
	changed = d.Full || len(d.Queues) > 0 || len(d.Removed) > 0 ||
		d.Passthrough != st.Passthrough || d.Degraded != st.Degraded ||
		d.DegradedSeconds != st.DegradedSeconds
	if d.Full {
		ds.fulls++
		st.Queues = st.Queues[:0]
		st.Info = d.Info
	} else {
		ds.deltas++
		for _, id := range d.Removed {
			if i, ok := find(st.Queues, id); ok {
				st.Queues = append(st.Queues[:i], st.Queues[i+1:]...)
			}
		}
	}
	for _, q := range d.Queues {
		if i, ok := find(st.Queues, q.RuleID); ok {
			st.Queues[i] = q
		} else {
			st.Queues = append(st.Queues, stage.QueueStats{})
			copy(st.Queues[i+1:], st.Queues[i:])
			st.Queues[i] = q
		}
	}
	ds.gen = d.Gen
	st.Passthrough = d.Passthrough
	st.Degraded = d.Degraded
	st.DegradedSeconds = d.DegradedSeconds
	return changed
}

// ---- handle-side batched API ----
//
// A handle's exchange comes in two halves, Start and Finish, so a caller
// driving many stages can have every request on the wire before it
// waits for the first reply: ops apply in order, then, when dst is
// non-nil, an incremental statistics collect taken after the ops
// applied — all in one Stage.Batch round trip.
//
// The collect merges the reply into caller-owned dst, which is the
// handle's merged snapshot: when dst is the buffer this handle last
// filled, only what changed is written, and changed reports whether
// anything was; any other buffer is filled from a full snapshot. Between
// collects dst belongs to the handle — a caller that writes it must
// hand the next collect another buffer.

// resetReply zeroes the handle's reusable reply in place while keeping
// slice capacity: the codec overwrites every schema field it decodes,
// so the reset guarantees a clean reply on error paths that decode
// nothing, and clears residue past the decoded length in backing arrays
// the decoder reuses — except the queue rows, which the decoder
// overwrites whole and whose rule IDs it keeps when the next reply
// names the same rule (readQueueStatsSlice).
func resetReply(r *BatchReply) {
	results := r.Results[:cap(r.Results)]
	for i := range results {
		results[i] = OpResult{}
	}
	queues := r.Delta.Queues
	removed := r.Delta.Removed[:cap(r.Delta.Removed)]
	for i := range removed {
		removed[i] = ""
	}
	*r = BatchReply{Results: results[:0]}
	r.Delta.Queues = queues[:0]
	r.Delta.Removed = removed[:0]
}

// Start is the first half of one exchange: the request is on the wire
// (or, in process, the work is done) when it returns. ops and dst
// belong to the exchange until Finish, which must follow exactly once,
// on any goroutine. Exchanges on one handle serialize: a second Start
// waits for the first exchange's Finish, so callers that start several
// handles before finishing any must start them in one order or never
// overlap (a control round's split collect does not keep StageID order,
// so rounds and installs share a lock). The delta acknowledgment Start
// sends is the one Finish applies the reply against, because nothing
// else can move the merged state while the exchange owns the handle.
func (h *StageHandle) Start(ops []StageOp, dst *stage.Stats) {
	h.bmu.Lock()
	for h.busy {
		h.idle.Wait() //lint:allow lockcheck Cond.Wait releases h.bmu for as long as it blocks
	}
	h.busy = true
	if dst != nil && dst != h.dstate.buf {
		// A buffer other than the one last filled holds nothing a delta
		// could apply to: drop the acknowledgment, and the stage answers
		// in full.
		h.dstate.gen, h.dstate.buf = 0, dst
	}
	h.bargs.AckGen = h.dstate.gen
	h.bmu.Unlock()
	h.bargs.Ops = ops
	h.bargs.Collect = dst != nil
	resetReply(&h.breply)
	h.t.Start(methodBatch, &h.bargs, &h.breply)
}

// Finish waits for the started exchange's outcome. results has one
// entry per op.
func (h *StageHandle) Finish() (results []OpResult, changed bool, err error) {
	err = h.t.Finish()
	h.bargs.Ops = nil
	if err == nil && len(h.breply.Results) > 0 {
		results = make([]OpResult, len(h.breply.Results))
		copy(results, h.breply.Results)
	}
	h.bmu.Lock()
	if err == nil && h.bargs.Collect {
		changed = h.dstate.apply(&h.breply.Delta)
	}
	h.busy = false
	h.bmu.Unlock()
	h.idle.Signal()
	return results, changed, err
}

// Exec is the blocking exchange: Start, then Finish. Exchanges on one
// handle serialize with each other, so interleaved collectors, each
// into a buffer of its own, each see a whole snapshot.
func (h *StageHandle) Exec(ops []StageOp, dst *stage.Stats) (results []OpResult, changed bool, err error) {
	h.Start(ops, dst)
	return h.Finish()
}

// CollectDeltaInto fetches the stage's statistics into a caller-owned
// buffer over the incremental protocol: after the first (full)
// exchange into dst, only changed queues cross the wire each round, and
// the steady-state path (empty delta, warm capacities) is
// allocation-free end to end. Between collects dst belongs to the
// handle: a caller that writes it collects into another buffer next.
func (h *StageHandle) CollectDeltaInto(dst *stage.Stats) error {
	_, _, err := h.Exec(nil, dst)
	return err
}

// CollectCounts reports how many of this handle's incremental collects
// were answered with full snapshots vs deltas.
func (h *StageHandle) CollectCounts() (fulls, deltas uint64) {
	h.bmu.Lock()
	defer h.bmu.Unlock()
	return h.dstate.fulls, h.dstate.deltas
}
