// The batched, delta-encoded control protocol — the only stage protocol.
//
// One round trip per operation per stage per control round, with every
// collect shipping the stage's full Stats blob even when nothing moved,
// bounds the controller's feedback loop (§III-C) by the wire instead of
// the allocation algorithm. Stage.Batch therefore carries a round's
// worth of operations for one stage in a single RPC (a single operation
// is a one-op batch), and its collect half is incremental: the stage remembers, per client, the last snapshot that
// client merged (identified by an epoch+generation pair) and sends only
// the queues that changed since. A client whose acknowledgment doesn't
// match —
// first contact, a restarted stage (fresh epoch), or an evicted/
// re-registered one — gets a full snapshot, so correctness never
// depends on both sides staying in sync.
package rpcio

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

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
	// ClientID names the collecting client; the stage keeps one delta
	// baseline per client, so independent collectors (controller loop,
	// monitor, an operator CLI) each stay incremental instead of
	// invalidating each other's acknowledgments. Zero is a valid shared
	// identity (all anonymous clients alternate over one baseline).
	ClientID uint64
	// AckEpoch/AckGen acknowledge the last StatsDelta this client
	// merged; when they match the stage's current generation for this
	// client the reply is incremental.
	AckEpoch uint64
	AckGen   uint64
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
	// Epoch identifies the serving StageService instance; it changes
	// when a stage restarts, so a client can never misapply a delta
	// from a reborn stage onto stale merged state.
	Epoch uint64
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

// newEpoch draws a random nonzero identifier, used both as a service
// instance's epoch and as a handle's collector ClientID. Identifiers
// only need to differ across stage restarts (epochs) or live handles
// (client IDs); 32 random bits make an accidental match (which would
// silently corrupt one client's merged snapshot) a non-event. Bit 31 is
// always set, so each varint-encodes to exactly 5 bytes: three ride
// every steady-state batch exchange (ClientID, AckEpoch, Epoch), and a
// fixed width keeps wireB/round the same from run to run. The wire
// field stays uint64: the decoder accepts historic full-width values.
func newEpoch() uint64 {
	var b [4]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		// No entropy source: fall back to a process-unique value, which
		// still separates in-process restarts (the common test case).
		return epochFallback.Add(1)<<1 | 1<<31
	}
	return uint64(binary.LittleEndian.Uint32(b[:]) | 1<<31 | 1)
}

var epochFallback atomic.Uint64

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

// deltaTracker is the stage-side memory of the last snapshot one client
// acknowledged: the generation counter and the per-queue values at that
// generation, which the next collect diffs against.
type deltaTracker struct {
	mu  sync.Mutex
	gen uint64
	// last holds the queue values at gen, sorted by rule ID — the order
	// CollectInto emits. Diffing the next snapshot is one two-pointer
	// walk over two equally sorted slices and advancing the baseline is
	// one bulk copy, where a map baseline would hash every rule ID on
	// every round of every client.
	last    []stage.QueueStats
	scratch stage.Stats // CollectInto buffer, reused every round

	// tok is the stage's quiescence token from the last collect (see
	// stage.CollectQuietInto). While it holds, this client's collects
	// skip the snapshot and the diff entirely.
	tok uint64

	// lastUse is the service's LRU stamp, guarded by trackMu (not mu).
	lastUse uint64
}

// maxDeltaTrackers bounds how many client baselines one StageService
// remembers. A stage normally has a couple of collectors (controller,
// monitor, maybe a CLI); the bound keeps re-dialed handles — each draws
// a fresh ClientID — from accumulating baselines forever. At the cap
// the least-recently-used baseline is evicted; its client simply falls
// back to a full snapshot on its next collect.
const maxDeltaTrackers = 64

// tracker returns clientID's baseline, creating it (and evicting the
// least-recently-used one at the cap) on first contact.
func (s *StageService) tracker(clientID uint64) *deltaTracker {
	s.trackMu.Lock()
	defer s.trackMu.Unlock()
	s.trackUse++
	if t, ok := s.trackers[clientID]; ok {
		t.lastUse = s.trackUse
		return t
	}
	if s.trackers == nil {
		s.trackers = make(map[uint64]*deltaTracker)
	}
	if len(s.trackers) >= maxDeltaTrackers {
		var evictID, minUse uint64
		first := true
		for id, t := range s.trackers {
			if first || t.lastUse < minUse {
				first = false
				evictID, minUse = id, t.lastUse
			}
		}
		// A collect concurrently holding the evicted tracker finishes on
		// the orphan; the client's next ack then mismatches the fresh
		// tracker's generation and degrades to a full snapshot.
		delete(s.trackers, evictID)
	}
	t := &deltaTracker{lastUse: s.trackUse}
	s.trackers[clientID] = t
	return t
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
		s.collectDelta(args.ClientID, args.AckEpoch, args.AckGen, &reply.Delta)
	}
	return nil
}

// collectDelta snapshots the stage and encodes it as a delta against
// the client's acknowledged generation, or a full snapshot when the ack
// doesn't match. The reply owns its data: queue values are copied out
// of the tracker's scratch buffer, never aliased, because the reply is
// encoded after this method returns, when a concurrent call from
// another connection may already be rewriting the scratch.
func (s *StageService) collectDelta(clientID, ackEpoch, ackGen uint64, d *StatsDelta) {
	t := s.tracker(clientID)
	t.mu.Lock()
	defer t.mu.Unlock()

	incremental := ackEpoch == s.epoch && ackGen == t.gen && t.gen > 0
	if incremental && t.tok != 0 && s.stg.QuietSince(t.tok) {
		// The stage proves its statistics unchanged since this client's
		// last collect: an empty delta, touching no counter. The scratch
		// buffer still holds the snapshot the token vouches for, so the
		// scalar fields every delta carries come straight from it. The
		// generation still advances — gen identifies the collect, not
		// the baseline, and any ack but the latest must keep falling
		// back to a full snapshot.
		s.deltaCollects.Add(1)
		t.gen++
		d.Epoch, d.Gen = s.epoch, t.gen
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
	d.Epoch, d.Gen = s.epoch, t.gen
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

// deltaState is the client half of incremental collection: the merged
// snapshot a sequence of StatsDelta replies reconstructs. It is not
// safe for concurrent use; StageHandle guards its own instance.
type deltaState struct {
	epoch uint64
	gen   uint64
	info  stage.Info
	// qs holds the merged queue stats sorted by rule ID — the order
	// deltas arrive in and the order snapshotInto must emit — so a
	// steady-state round is binary-search overwrites on apply and one
	// bulk copy on snapshot, with no per-rule hashing anywhere.
	qs []stage.QueueStats

	passthrough     int64
	degraded        bool
	degradedSeconds float64

	// fulls/deltas count reply forms, for tests and experiments.
	fulls, deltas uint64
}

// ack returns the epoch/generation pair to acknowledge in the next
// BatchArgs.
func (ds *deltaState) ack() (epoch, gen uint64) { return ds.epoch, ds.gen }

// find binary-searches qs for a rule ID, returning its index (or the
// insertion point) and whether it is present.
func (ds *deltaState) find(id string) (int, bool) {
	i := sort.Search(len(ds.qs), func(k int) bool { return ds.qs[k].RuleID >= id })
	return i, i < len(ds.qs) && ds.qs[i].RuleID == id
}

// apply merges one reply into the state and reports whether the merged
// snapshot differs from what it was before this reply — false exactly
// when a materialization from before the call is still current. Queue
// entries may arrive in any order and may repeat within a reply (later
// entries win); the merged state stays sorted.
func (ds *deltaState) apply(d *StatsDelta) (changed bool) {
	changed = d.Full || len(d.Queues) > 0 || len(d.Removed) > 0 ||
		d.Passthrough != ds.passthrough || d.Degraded != ds.degraded ||
		d.DegradedSeconds != ds.degradedSeconds
	if d.Full {
		ds.fulls++
		ds.qs = ds.qs[:0]
		ds.info = d.Info
	} else {
		ds.deltas++
		for _, id := range d.Removed {
			if i, ok := ds.find(id); ok {
				ds.qs = append(ds.qs[:i], ds.qs[i+1:]...)
			}
		}
	}
	for _, q := range d.Queues {
		if i, ok := ds.find(q.RuleID); ok {
			ds.qs[i] = q
		} else {
			ds.qs = append(ds.qs, stage.QueueStats{})
			copy(ds.qs[i+1:], ds.qs[i:])
			ds.qs[i] = q
		}
	}
	ds.epoch, ds.gen = d.Epoch, d.Gen
	ds.passthrough = d.Passthrough
	ds.degraded = d.Degraded
	ds.degradedSeconds = d.DegradedSeconds
	return changed
}

// snapshotInto materializes the merged state into a caller-owned
// buffer, equal to what a direct Collect at the same instant would have
// returned (queues sorted by rule ID): every
// field of dst is overwritten and dst.Queues is rebuilt in place, so a
// caller reusing dst across rounds pays no allocations once capacities
// warm up. The merged state is kept sorted on apply, so this is one
// bulk copy with no sort and no per-rule lookups.
func (ds *deltaState) snapshotInto(dst *stage.Stats) {
	dst.Info = ds.info
	dst.Passthrough = ds.passthrough
	dst.Degraded = ds.degraded
	dst.DegradedSeconds = ds.degradedSeconds
	dst.Queues = append(dst.Queues[:0], ds.qs...)
}

// collectCounts reports how many replies arrived in each form.
func (ds *deltaState) collectCounts() (fulls, deltas uint64) { return ds.fulls, ds.deltas }

// ---- handle-side batched API ----
//
// A handle's exchange comes in two halves, Start and Finish, so a caller
// driving many stages can have every request on the wire before it
// waits for the first reply: ops apply in order, then, when dst is
// non-nil, an incremental statistics collect taken after the ops
// applied — all in one Stage.Batch round trip.
//
// The collect materializes the full snapshot into caller-owned dst:
// every field is overwritten and capacity reused, so a steady-state
// collect allocates nothing. held is the caller's promise that nobody
// has written dst since this handle last filled it; then a reply
// showing nothing changed since that fill leaves dst untouched — it
// already is the current snapshot — and changed reports false. Without
// the promise (or when the handle last filled some other buffer) dst
// is always rewritten and changed is true.

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

// Start is the first half of one attempt: the request is on the wire
// (or, in process, the work is done) when it returns. ops and dst
// belong to the exchange until Finish, which must follow exactly once,
// on any goroutine. Exchanges on one handle serialize: a second Start
// waits for the first exchange's Finish, so callers that start several
// handles before finishing any must start them in one order or never
// overlap (a control round's split collect does not keep StageID order,
// so rounds and installs share a lock). The delta acknowledgment Start
// sends is the one Finish applies the reply against, because nothing
// else can move the merged state while the exchange owns the handle.
func (h *StageHandle) Start(ops []StageOp, dst *stage.Stats, held bool) {
	h.bmu.Lock()
	for h.busy {
		h.idle.Wait() //lint:allow lockcheck Cond.Wait releases h.bmu for as long as it blocks
	}
	h.busy = true
	if h.bargs.ClientID == 0 {
		// Lazily draw this handle's collector identity; the stage keys
		// its delta baselines by it, so two handles never invalidate
		// each other's acknowledged generations.
		h.bargs.ClientID = newEpoch()
	}
	h.bargs.AckEpoch, h.bargs.AckGen = h.dstate.ack()
	h.bmu.Unlock()
	h.bargs.Ops = ops
	h.bargs.Collect = dst != nil
	h.dst, h.held = dst, held
	resetReply(&h.breply)
	h.t.Start("Stage.Batch", &h.bargs, &h.breply)
}

// Finish waits for the started exchange's outcome. results has one
// entry per op.
func (h *StageHandle) Finish() (results []OpResult, changed bool, err error) {
	err = h.t.Finish()
	dst, held := h.dst, h.held
	h.dst, h.bargs.Ops = nil, nil
	if err == nil && len(h.breply.Results) > 0 {
		results = make([]OpResult, len(h.breply.Results))
		copy(results, h.breply.Results)
	}
	h.bmu.Lock()
	if err == nil && dst != nil {
		moved := h.dstate.apply(&h.breply.Delta)
		if changed = moved || !held || dst != h.filled; changed {
			h.dstate.snapshotInto(dst)
			h.filled = dst
		}
	}
	h.busy = false
	h.bmu.Unlock()
	h.idle.Signal()
	return results, changed, err
}

// Exec is the blocking exchange: start, finish, and try again while the
// failure is the wire's and the transport's retry schedule allows.
// Exchanges on one handle serialize with each other, so interleaved
// collectors (controller loop and monitor) merge deltas consistently.
func (h *StageHandle) Exec(ops []StageOp, dst *stage.Stats, held bool) (results []OpResult, changed bool, err error) {
	h.Start(ops, dst, held)
	results, changed, err = h.Finish()
	return h.Reattempt(ops, dst, held, results, changed, err)
}

// Reattempt is the retrying tail of Exec, given a first attempt's
// outcome: a caller that started many exchanges and finished each once
// hands the failures here, and has spent exactly what Exec would have.
func (h *StageHandle) Reattempt(ops []StageOp, dst *stage.Stats, held bool, results []OpResult, changed bool, err error) ([]OpResult, bool, error) {
	for attempt := 0; Retryable(err) && h.t.Retry(attempt); attempt++ {
		h.Start(ops, dst, held)
		results, changed, err = h.Finish()
	}
	return results, changed, err
}

// CollectDeltaInto fetches the stage's statistics into a caller-owned
// buffer over the incremental protocol: after the first (full)
// exchange, only changed queues cross the wire each round, and the
// steady-state path (empty delta, warm capacities) is allocation-free
// end to end.
func (h *StageHandle) CollectDeltaInto(dst *stage.Stats) error {
	_, _, err := h.Exec(nil, dst, false)
	return err
}

// CollectCounts reports how many of this handle's incremental collects
// were answered with full snapshots vs deltas.
func (h *StageHandle) CollectCounts() (fulls, deltas uint64) {
	h.bmu.Lock()
	defer h.bmu.Unlock()
	return h.dstate.collectCounts()
}
