// The shard: the one piece of the control plane that exchanges with
// stages during a round.
//
// An Aggregator fronts a set of member stages. One round of it fans a
// task out to every member — bring the managed queue to the granted
// rate, collect the statistics — and folds what came back into one row
// per job. The controller keeps every stage registered with it in
// Aggregators of its own (one for the whole registry unless
// WithTopology caps them), so a flat fleet and a tree run the same
// code; an Aggregator built by hand and served with rpcio.NewAggService
// is the same shard one network hop away, where the controller pays one
// Agg.Round per phase whatever the shard's size.
//
// Borrowing (WithBorrowing / WithAggBorrowing) keeps enforcement
// work-conserving between rounds: a shard's member stages share a
// tokenbucket.BorrowPool on the managed control queue, so a stage that
// runs dry borrows unused tokens from idle siblings — bounded by the
// pool's budget, settled when the next plan lands. Tokens move, they
// are never minted, so the sum of effective rates under a shard can
// never exceed what the controller granted it — even while the shard
// is down or partitioned, which is exactly when the fleet depends on it
// (the chaos AggregatorLoss scenario).
package control

import (
	"fmt"
	"sort"
	"sync"

	"padll/internal/policy"
	"padll/internal/posix"
	"padll/internal/rpcio"
	"padll/internal/stage"
	"padll/internal/tokenbucket"
)

// LocalStage exposes the in-process stage behind a LocalConn so a shard
// can wire borrow pools to its token buckets. Wrappers that embed
// LocalConn (fault injectors) inherit it.
func (c *LocalConn) LocalStage() *stage.Stage { return c.Stg }

// localStager is the one capability a shard asserts a StageConn for. It
// stays outside the contract because it is not a control exchange: a
// borrow pool links token buckets that live in this process's memory,
// which no wire operation can express. Remote members don't satisfy it
// and simply never join a pool.
type localStager interface {
	LocalStage() *stage.Stage
}

// AggOption configures an Aggregator.
type AggOption func(*Aggregator)

// WithAggWorkers sets how many goroutines drive one round (default
// defaultWorkers). Each takes a contiguous StageID range of the members,
// starts every exchange of it and then gathers the replies, so the
// number of exchanges in flight is the shard's size whatever the count;
// 1 keeps every first attempt on the caller's goroutine, started in
// strict StageID order.
func WithAggWorkers(n int) AggOption {
	return func(a *Aggregator) {
		if n > 0 {
			a.workers = n
		}
	}
}

// WithAggMatcher overrides the matcher template of the managed rule
// (default: the metadata-like classes — the controller's default).
func WithAggMatcher(m policy.Matcher) AggOption {
	return func(a *Aggregator) { a.matcher = m }
}

// WithAggBorrowing links every local member's managed control queue
// into one shared borrow pool; budget bounds each member's outstanding
// debt as a fraction of its burst capacity (non-positive selects
// tokenbucket.DefaultBorrowBudget).
func WithAggBorrowing(budget float64) AggOption {
	return func(a *Aggregator) { a.pool = tokenbucket.NewBorrowPool(budget) }
}

// WithAggErrorHandler installs a sink for member-communication errors
// (default: drop — a dead member is reported upward as FailedStages).
// It is called from the round's goroutine, in StageID order.
func WithAggErrorHandler(f func(stageID string, err error)) AggOption {
	return func(a *Aggregator) { a.onError = f }
}

// defaultMatcher selects what the managed queue throttles unless told
// otherwise: the operations that land on the MDS.
func defaultMatcher() policy.Matcher {
	return policy.Matcher{Classes: []posix.Class{
		posix.ClassMetadata, posix.ClassDirectory, posix.ClassExtAttr,
	}}
}

// groupByJob is the default orchestration entity: the job (§III-B).
func groupByJob(info stage.Info) string { return info.JobID }

// managedRule builds the control rule for the stages of entity key.
// Grouped by job, the matcher is scoped to the job ID; under a custom
// grouping it is left unscoped (each stage belongs to exactly one
// entity, so the queue's rate is the scoping).
func managedRule(m policy.Matcher, scoped bool, key string, rate float64) policy.Rule {
	if scoped {
		m.JobID = key
	}
	return policy.Rule{ID: ControlRuleID, Match: m, Rate: rate}
}

// member is one stage of a shard together with what rounds remember
// about it. A member's record outlives the topology it was added under
// — and, when the controller reshards, the Aggregator — so a stage
// keeps its collect slot and its probe for as long as its connection
// stays registered. Everything but conn is owned by the roundMu of the
// shard currently holding the member.
type member struct {
	conn StageConn
	// stats is the member's collect slot: only conn's Exec writes it, so
	// once conn has filled it (held) the shard can promise it is
	// untouched and an unchanged member costs no snapshot copy.
	stats stage.Stats
	held  bool
	// probe is what the latest collect learned about the managed queue.
	probe stageProbe
	// err, changed and calls are the outcome of the round in flight:
	// the exchange's error, whether the collect rewrote stats (or
	// failed), and the push round trips spent.
	err     error
	changed bool
	calls   int
	// push is the operation the round in flight sends the member (none:
	// the zero op), kept here so starting it allocates nothing; started
	// and retry mark a pass's progress: an exchange begun and not yet
	// finished, a first attempt that failed in transport.
	push    [1]rpcio.StageOp
	started bool
	retry   bool
}

// stageProbe is what a collect learns about one stage beyond the
// per-job rows: whether it answered, and the managed control queue's
// currently enforced limit. The push uses it to skip stages that
// already enforce the target rate and to spot stages that lost their
// managed queue.
type stageProbe struct {
	ok       bool
	hasCtl   bool
	ctlLimit float64
}

// aggTopo is an immutable snapshot of a shard's membership and its
// derived indexes. A membership change publishes a fresh snapshot
// (copy-on-write), so a round in flight never sees a half-built
// topology and the hot path needs no per-round map building: a member's
// row is an index, not a hash lookup.
type aggTopo struct {
	members  []*member // StageID-sorted: the deterministic fan-out order
	rowOf    []int     // member index -> index into jobs
	jobs     []string  // distinct member group keys, sorted
	jobCount []int     // member count per jobs[i]
}

// buildAggTopo indexes StageID-sorted members by groupBy's key.
func buildAggTopo(members []*member, groupBy func(stage.Info) string) *aggTopo {
	t := &aggTopo{members: members, rowOf: make([]int, len(members))}
	keys := make([]string, len(members))
	for i, m := range members {
		keys[i] = groupBy(m.conn.Info())
	}
	t.jobs = append(t.jobs, keys...)
	sort.Strings(t.jobs)
	n := 0
	for i, k := range t.jobs {
		if i == 0 || k != t.jobs[n-1] {
			t.jobs[n] = k
			n++
		}
	}
	t.jobs = t.jobs[:n]
	t.jobCount = make([]int, n)
	for i, k := range keys {
		t.rowOf[i] = sort.SearchStrings(t.jobs, k)
		t.jobCount[t.rowOf[i]]++
	}
	return t
}

func sortMembers(ms []*member) {
	sort.Slice(ms, func(i, j int) bool { return ms[i].conn.Info().StageID < ms[j].conn.Info().StageID })
}

// Aggregator is one shard of stages. It implements rpcio.AggBackend so
// it can be served over the wire (rpcio.NewAggService), and is driven
// in-process through LocalAggConn or, for the shards the controller
// builds, directly. It is safe for concurrent use.
type Aggregator struct {
	id      string
	workers int
	matcher policy.Matcher
	pool    *tokenbucket.BorrowPool
	onError func(stageID string, err error)
	// groupBy keys members into rows, and scoped says whether the
	// managed rule's matcher names that key as its job. Shards the
	// controller builds inherit its grouping; any other groups by job.
	groupBy func(stage.Info) string
	scoped  bool

	mu   sync.Mutex
	topo *aggTopo // immutable; replaced wholesale on a membership change

	// roundMu serializes rounds and owns the members' round state plus
	// the per-job scratch below, which is sized for scratchTopo.
	roundMu     sync.Mutex
	scratchTopo *aggTopo
	rates       []float64 // per-row target member rate this round
	hasRate     []bool
	rows        []JobSnapshot
	rowsValid   bool // rows still describe the members' current stats
}

// NewAggregator returns an empty aggregator; add members, then serve or
// register it.
func NewAggregator(id string, opts ...AggOption) *Aggregator {
	a := &Aggregator{
		id:      id,
		topo:    &aggTopo{},
		workers: defaultWorkers,
		matcher: defaultMatcher(),
		onError: func(string, error) {},
		groupBy: groupByJob,
		scoped:  true,
	}
	for _, o := range opts {
		o(a)
	}
	return a
}

// ID returns the aggregator's identity (its mux attach name when
// served).
func (a *Aggregator) ID() string { return a.id }

// AddMember adds a stage to the shard. When borrowing is enabled and
// the connection exposes its in-process stage, the stage's managed
// control queue joins the shard's borrow pool.
func (a *Aggregator) AddMember(conn StageConn) {
	a.mu.Lock()
	members := make([]*member, 0, len(a.topo.members)+1)
	members = append(members, a.topo.members...)
	members = append(members, &member{conn: conn})
	a.mu.Unlock()
	sortMembers(members)
	a.setMembers(members)
}

// setMembers publishes StageID-sorted members as the shard's topology
// and links the local ones into the borrow pool.
func (a *Aggregator) setMembers(members []*member) {
	topo := buildAggTopo(members, a.groupBy)
	a.mu.Lock()
	a.topo = topo
	a.mu.Unlock()
	if a.pool == nil {
		return
	}
	for _, m := range members {
		if ls, ok := m.conn.(localStager); ok {
			ls.LocalStage().SetBorrowPool(ControlRuleID, a.pool)
		}
	}
}

func (a *Aggregator) topology() *aggTopo {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.topo
}

// Members returns the current member count.
func (a *Aggregator) Members() int { return len(a.topology().members) }

// BorrowCounts reports the shard pool's lifetime token movement
// (all zero when borrowing is disabled).
func (a *Aggregator) BorrowCounts() (borrowed, repaid, forgiven float64) {
	if a.pool == nil {
		return 0, 0, 0
	}
	return a.pool.Counts()
}

// wireStats sums the members' cumulative traffic.
func (a *Aggregator) wireStats() (w rpcio.WireStats) {
	for _, m := range a.topology().members {
		s := m.conn.WireStats()
		w.BytesRead += s.BytesRead
		w.BytesWritten += s.BytesWritten
	}
	return w
}

// Describe implements rpcio.AggBackend: identity plus current
// membership (distinct member job IDs, sorted).
func (a *Aggregator) Describe(reply *rpcio.AggInfo) {
	topo := a.topology()
	reply.AggID = a.id
	reply.Stages = len(topo.members)
	reply.Jobs = append(reply.Jobs, topo.jobs...)
}

// defaultWorkers is how many goroutines drive a round unless told
// otherwise. A round's exchanges overlap because they are all started
// before the first is awaited, not because goroutines wait side by
// side, so a second goroutine only pays where a controller has cores to
// spare for encoding and decoding; where it shares them with its peers
// it adds hand-offs (on fleet_rounds, 2 vCPUs: overhead_ratio 1.90 at
// 1, 1.96 at 2, 2.06 at 8 — the sweep is in CHANGES.md, PR 21).
const defaultWorkers = 1

// eachSpan cuts [0, n) into min(workers, n) contiguous ranges and runs
// fn on each, concurrently when there is more than one; workers <= 1 is
// fn(0, n) on the caller's goroutine. Every goroutine is gone when it
// returns — a dropped shard must leave none behind.
func eachSpan(n, workers int, fn func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		go func() {
			defer wg.Done()
			fn(lo, hi)
		}()
	}
	wg.Wait()
}

// pass is one kind of exchange with every member that has one to make:
// scatter, gather, retry. args names what member m sends (ok false:
// nothing this pass) and must answer the same each time it is asked;
// done takes m's final outcome. Each of the round's goroutines starts
// every exchange of its StageID range and only then finishes them, in
// order, so every request is on the wire before the first reply is
// awaited and — deadlines running from the send — hung members expire
// together. A member whose attempt failed in transport is set aside,
// and once every range is gathered the set-aside members run the rest
// of the blocking exchange (rpcio.Reattempt: backoff, redial, try
// again) side by side, so k dead peers cost the round one retry
// schedule, not k.
func (a *Aggregator) pass(members []*member,
	args func(m *member) (ops []rpcio.StageOp, dst *stage.Stats, held, ok bool),
	done func(m *member, res []rpcio.OpResult, changed bool, err error)) {
	eachSpan(len(members), a.workers, func(lo, hi int) {
		span := members[lo:hi]
		for _, m := range span {
			if ops, dst, held, ok := args(m); ok {
				m.conn.Start(ops, dst, held)
				m.started = true
			}
		}
		for _, m := range span {
			if !m.started {
				continue
			}
			m.started = false
			res, changed, err := m.conn.Finish()
			if rpcio.Retryable(err) {
				m.retry, m.err = true, err
				continue
			}
			done(m, res, changed, err)
		}
	})

	var failed []*member
	for _, m := range members {
		if m.retry {
			m.retry = false
			failed = append(failed, m)
		}
	}
	// One goroutine each, whatever the worker count: they wait — sleep,
	// dial, deadline — rather than compute.
	eachSpan(len(failed), len(failed), func(lo, hi int) {
		for _, m := range failed[lo:hi] {
			ops, dst, held, _ := args(m)
			res, changed, err := rpcio.Reattempt(m.conn, ops, dst, held, nil, false, m.err)
			done(m, res, changed, err)
		}
	})
}

// pushOp is what brings one stage's managed queue to managed.Rate given
// the stage's latest collect probe: nothing (the zero op) when the probe
// already shows the rate enforced — the collect just proved it, so
// nothing needs to cross the wire; a reinstall of the managed rule when
// the stage answered collect without the queue (restarted); a retune
// otherwise.
func pushOp(probe stageProbe, managed policy.Rule) rpcio.StageOp {
	switch {
	case probe.ok && probe.hasCtl && probe.ctlLimit == managed.Rate:
		return rpcio.StageOp{}
	case probe.ok && !probe.hasCtl:
		return rpcio.StageOp{Kind: rpcio.OpApplyRule, Rule: managed}
	default:
		return rpcio.StageOp{Kind: rpcio.OpSetRate, ID: ControlRuleID, Rate: managed.Rate}
	}
}

// round is one exchange with every member, the only place the control
// plane talks to stages during a round. Each grant names a job and the
// rate every member stage of it is to enforce; a granted member is
// brought to that rate with pushOp's operation — none when its latest
// probe shows the rate enforced, the managed rule reinstalled where it
// vanished, and a retune that finds the queue gone (a restart raced
// the probe) chased by a reinstall. With collect set the members'
// statistics then fan in, folded into one row per job (sorted by job).
// Pushes and collects are a pass each: scatter, gather, retry.
// Member failures never fail the round: they are reported to the error
// handler in StageID order, counted as FailedStages, and the loop runs
// on the partial snapshot.
//
// When grants land on a borrowing shard the pool settles first: debts
// repay from whatever each debtor still holds and the rest is forgiven,
// so the fresh allocation starts from a clean ledger.
//
// rs accumulates member-level accounting: one collect call per member,
// push round trips and skips per granted member. The caller holds
// roundMu, and the rows are the shard's scratch: they stay valid until
// the shard's next round.
func (a *Aggregator) round(grants []rpcio.JobGrant, collect bool, rs *RoundStats) []JobSnapshot {
	topo := a.topology()
	members := topo.members
	nj := len(topo.jobs)

	if a.pool != nil && len(grants) > 0 {
		a.pool.Settle()
	}
	if a.scratchTopo != topo {
		a.scratchTopo = topo
		a.rates = append(a.rates[:0], make([]float64, nj)...)
		a.hasRate = append(a.hasRate[:0], make([]bool, nj)...)
		a.rows = append(a.rows[:0], make([]JobSnapshot, nj)...)
		a.rowsValid = false
	}
	rates, hasRate := a.rates, a.hasRate
	for j := range rates {
		rates[j], hasRate[j] = 0, false
	}
	for _, g := range grants {
		if j := sort.SearchStrings(topo.jobs, g.JobID); j < nj && topo.jobs[j] == g.JobID {
			rates[j], hasRate[j] = g.Rate, true
		}
	}

	pushes := false
	for i, m := range members {
		m.err, m.changed, m.calls, m.push[0] = nil, false, 0, rpcio.StageOp{}
		if j := topo.rowOf[i]; hasRate[j] {
			m.push[0] = pushOp(m.probe, managedRule(a.matcher, a.scoped, topo.jobs[j], rates[j]))
			pushes = pushes || m.push[0].Kind != 0
		}
	}
	if pushes {
		a.pass(members,
			func(m *member) ([]rpcio.StageOp, *stage.Stats, bool, bool) {
				return m.push[:], nil, false, m.push[0].Kind != 0
			},
			func(m *member, res []rpcio.OpResult, _ bool, err error) {
				m.calls = 1
				if op := m.push[0]; err == nil && op.Kind == rpcio.OpSetRate && len(res) == 1 && !res[0].Found {
					managed := managedRule(a.matcher, a.scoped, a.groupBy(m.conn.Info()), op.Rate)
					m.push[0] = rpcio.StageOp{Kind: rpcio.OpApplyRule, Rule: managed}
					_, _, err = rpcio.Exec(m.conn, m.push[:], nil, false)
					m.calls = 2
				}
				m.err = err
				m.changed = err != nil // excluded from the fold: rows must rebuild
			})
	}
	if collect {
		// An unchanged member leaves its held slot as it is — no snapshot
		// copy — and if the whole shard is unchanged the fold below is
		// skipped too. A member whose push failed is not asked.
		a.pass(members,
			func(m *member) ([]rpcio.StageOp, *stage.Stats, bool, bool) {
				return nil, &m.stats, m.held, m.err == nil
			},
			func(m *member, _ []rpcio.OpResult, changed bool, err error) {
				m.err = err
				m.held = err == nil
				m.changed = changed || err != nil
			})
	}

	// Fold in member (StageID-sorted) order: rows, error reports and
	// counts are deterministic whatever the worker interleaving was.
	rebuild := collect && !a.rowsValid
	failed := 0
	for i, m := range members {
		if hasRate[topo.rowOf[i]] {
			rs.PushCalls += m.calls
			rs.PushOps += m.calls // every push round trip is a one-op batch
			if m.calls == 0 {
				rs.PushesSkipped++
			}
		}
		if m.err != nil {
			failed++
			a.onError(m.conn.Info().StageID, m.err)
		}
		rebuild = rebuild || collect && m.changed
	}
	if !collect {
		return nil
	}
	rs.Stages += len(members)
	rs.CollectCalls += len(members)
	rs.CollectFailures += failed
	if rebuild {
		for j := range a.rows {
			a.rows[j] = JobSnapshot{JobID: topo.jobs[j]}
		}
		for i, m := range members {
			row := &a.rows[topo.rowOf[i]]
			if m.err != nil {
				m.probe = stageProbe{}
				row.FailedStages++
				continue
			}
			m.probe = row.addStage(&m.stats)
		}
		// Rows with a failed member must rebuild next round: the member
		// may recover without its stats changing, and a cached row would
		// keep counting it failed.
		a.rowsValid = failed == 0
	}
	// Not rebuilt: every member answered "unchanged", so last round's
	// rows (and probes) already describe this round exactly.
	return a.rows
}

// Round implements rpcio.AggBackend: one round over the shard, its rows
// projected onto the wire.
func (a *Aggregator) Round(args *rpcio.AggRoundArgs, reply *rpcio.AggRoundReply) error {
	a.roundMu.Lock()
	defer a.roundMu.Unlock()
	var rs RoundStats
	rows := a.round(args.Grants, args.Collect, &rs)
	reply.AggID = a.id
	reply.Stages = len(a.scratchTopo.members) // the membership the round ran over
	for i := range rows {
		r := &rows[i]
		reply.Jobs = append(reply.Jobs, rpcio.AggJobDelta{
			JobID: r.JobID, Stages: r.Stages, Demand: r.Demand, Throughput: r.Throughput,
			WaitP99: r.WaitP99, Dropped: r.Dropped, FailedStages: r.FailedStages,
		})
	}
	reply.Borrowed, reply.Repaid, reply.Forgiven = a.BorrowCounts()
	return nil
}

// ---- controller-side aggregator connections ----

// AggConn abstracts the controller's channel to one registered
// aggregator, the analogue of StageConn: in-process ones use
// LocalAggConn, remote ones a dialed rpcio.AggHandle via
// NewRemoteAggConn.
type AggConn interface {
	// ID returns the aggregator's identity.
	ID() string
	// Round drives one control round: grants fan down, and when collect
	// is set the merged per-job delta lands in reply (fully
	// overwritten).
	Round(grants []rpcio.JobGrant, collect bool, reply *rpcio.AggRoundReply) error
	// WireStats reports the connection's cumulative traffic (zero for
	// connections that never serialize).
	WireStats() rpcio.WireStats
	// Close releases the connection.
	Close() error
}

// LocalAggConn drives an in-process Aggregator through the wire
// contract without serializing, mirroring LocalConn for stages.
type LocalAggConn struct {
	Agg *Aggregator
}

var _ AggConn = (*LocalAggConn)(nil)

// ID implements AggConn.
func (c *LocalAggConn) ID() string { return c.Agg.ID() }

// Round implements AggConn, honoring the wire contract that the reply
// is fully overwritten with slice capacity reused.
func (c *LocalAggConn) Round(grants []rpcio.JobGrant, collect bool, reply *rpcio.AggRoundReply) error {
	args := rpcio.AggRoundArgs{Grants: grants, Collect: collect}
	*reply = rpcio.AggRoundReply{Jobs: reply.Jobs[:0]}
	return c.Agg.Round(&args, reply)
}

// WireStats implements AggConn: nothing is serialized.
func (c *LocalAggConn) WireStats() rpcio.WireStats { return rpcio.WireStats{} }

// Close implements AggConn without closing the aggregator's members:
// an in-process aggregator's lifecycle belongs to whoever built it.
func (c *LocalAggConn) Close() error { return nil }

// RemoteAggConn drives an aggregator over the frame transport.
type RemoteAggConn struct {
	id     string
	handle *rpcio.AggHandle
}

var _ AggConn = (*RemoteAggConn)(nil)

// NewRemoteAggConn attaches to the aggregator behind handle, learning
// its identity from the Agg.Attach handshake.
func NewRemoteAggConn(handle *rpcio.AggHandle) (*RemoteAggConn, error) {
	info, err := handle.Attach(0)
	if err != nil {
		return nil, fmt.Errorf("control: attach aggregator: %w", err)
	}
	return &RemoteAggConn{id: info.AggID, handle: handle}, nil
}

// ID implements AggConn.
func (c *RemoteAggConn) ID() string { return c.id }

// Round implements AggConn.
func (c *RemoteAggConn) Round(grants []rpcio.JobGrant, collect bool, reply *rpcio.AggRoundReply) error {
	return c.handle.Round(grants, collect, reply)
}

// WireStats implements AggConn.
func (c *RemoteAggConn) WireStats() rpcio.WireStats { return c.handle.WireStats() }

// Close implements AggConn.
func (c *RemoteAggConn) Close() error { return c.handle.Close() }
