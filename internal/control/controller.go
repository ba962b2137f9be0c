package control

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"padll/internal/clock"
	"padll/internal/policy"
	"padll/internal/rpcio"
	"padll/internal/stage"
)

// ControlRuleID is the rule/queue name the feedback loop manages on every
// stage.
const ControlRuleID = "padll-control"

// Controller is the control plane core. It maintains the stage registry,
// groups stages by job (§III-B: "orchestrating the stages that belong to
// the same job-ID as a single one"), serves administrator policy
// operations at per-job, group-of-jobs, and cluster-wide granularity, and
// runs the feedback control loop when an Algorithm is installed.
type Controller struct {
	clk clock.Clock

	mu     sync.Mutex
	stages map[string]StageConn // by StageID
	// registryRev counts mutations of the registry; the round loop
	// reshards lazily when it has moved.
	registryRev  int
	reservations map[string]float64 // per-job reserved rate
	clusterLimit float64
	algorithm    Algorithm
	// controlled is the matcher template for the feedback loop's managed
	// queue on every stage.
	controlled policy.Matcher
	// limitAdapter, when set, retunes clusterLimit each loop iteration.
	limitAdapter LimitAdapter
	// groupBy derives the orchestration entity from a stage's identity;
	// the default groups by JobID (§III-B), but administrators may group
	// by user or project ("group of jobs" granularity).
	groupBy          func(stage.Info) string
	isDefaultGroupBy bool
	onError          func(stageID string, err error)
	lastAlloc        map[string]float64
	loopStop         chan struct{}
	loopDone         chan struct{}

	// workers is how many goroutines drive a round (default
	// defaultWorkers; 1 keeps every exchange on the round's goroutine in
	// StageID order, which the chaos harness relies on for deterministic
	// fault injection).
	workers int
	// lastRound is the most recent RunOnce's accounting.
	lastRound RoundStats
	haveRound bool
	// evictAfter is the mark-sweep threshold: a stage whose collect/push
	// RPCs fail this many consecutive rounds is evicted from the registry
	// (0 disables eviction — dead stages are skipped but kept).
	evictAfter int
	// misses counts consecutive communication failures per stage (the
	// "mark" half of mark-sweep; any answered collect clears the mark).
	misses map[string]int
	// adminRules and clusterRules remember administrator intent (the
	// aggregate rule, pre-split) per group and cluster-wide, so an
	// idempotent re-registration replays the last-known rule set onto a
	// restarted stage.
	adminRules   map[string]map[string]policy.Rule
	clusterRules map[string]policy.Rule

	// roundMu serializes rounds (RunOnce and CollectAll alike) and owns
	// the shard. It is taken before mu, never while holding it.
	roundMu sync.Mutex
	// sh is what a round drives: the stage registry at revision shardRev
	// (nil before the first round).
	sh       *shard
	shardRev int
}

// Option configures a Controller.
type Option func(*Controller)

// WithClusterLimit sets the maximum aggregate rate the algorithm may hand
// out (the paper's 300 KOps/s PFS metadata cap in §IV-B).
func WithClusterLimit(limit float64) Option {
	return func(c *Controller) { c.clusterLimit = limit }
}

// WithAlgorithm installs the control algorithm evaluated by the loop.
func WithAlgorithm(a Algorithm) Option {
	return func(c *Controller) { c.algorithm = a }
}

// WithControlledMatcher overrides which requests the managed queue
// throttles (default: metadata, directory, and ext-attr classes — the
// operations that land on the MDS).
func WithControlledMatcher(m policy.Matcher) Option {
	return func(c *Controller) { c.controlled = m }
}

// WithLimitAdapter installs a dynamic cluster-limit policy (e.g.
// AIMDLimit probing the MDS) applied at the start of every feedback-loop
// iteration.
func WithLimitAdapter(a LimitAdapter) Option {
	return func(c *Controller) { c.limitAdapter = a }
}

// WithGroupBy overrides how stages aggregate into orchestration entities
// for the feedback loop: the default is per job; GroupByUser implements
// the paper's "group of jobs" granularity by sharing one allocation among
// all of a user's jobs.
func WithGroupBy(f func(stage.Info) string) Option {
	return func(c *Controller) {
		c.groupBy = f
		c.isDefaultGroupBy = false
	}
}

// GroupByUser groups stages by submitting user.
func GroupByUser(info stage.Info) string { return info.User }

// WithErrorHandler installs a sink for stage-communication errors; the
// default drops them (a dead stage is simply skipped until it
// re-registers). It is called from the round's goroutine, one error at
// a time, in StageID order within a phase.
func WithErrorHandler(f func(stageID string, err error)) Option {
	return func(c *Controller) { c.onError = f }
}

// WithPushConcurrency sets how many goroutines drive a round, in the
// collect phase and the push phase alike (default 1): each takes a
// contiguous StageID range of the registry, starts every exchange of it
// and then gathers the replies, so a round has every request in flight
// whatever the count, and the count is about cores, not about overlap.
// 1 keeps every first attempt on the round's goroutine, started in
// strict StageID order. Whatever the count, outcomes are folded in
// StageID order, so error reporting and eviction marks stay
// deterministic.
func WithPushConcurrency(n int) Option {
	return func(c *Controller) {
		if n > 0 {
			c.workers = n
		}
	}
}

// WithEvictAfter enables mark-sweep eviction: a stage that fails n
// consecutive control rounds is deregistered and its group's share
// released for redistribution. n <= 0 disables eviction.
func WithEvictAfter(n int) Option {
	return func(c *Controller) { c.evictAfter = n }
}

// New returns a controller. A nil clk defaults to the wall clock (the
// loop timestamps its round accounting even when the caller never
// starts Run).
func New(clk clock.Clock, opts ...Option) *Controller {
	if clk == nil {
		clk = clock.NewReal()
	}
	c := &Controller{
		clk:              clk,
		stages:           make(map[string]StageConn),
		reservations:     make(map[string]float64),
		controlled:       defaultMatcher(),
		groupBy:          groupByJob,
		isDefaultGroupBy: true,
		onError:          func(string, error) {},
		lastAlloc:        make(map[string]float64),
		workers:          defaultWorkers,
		misses:           make(map[string]int),
		adminRules:       make(map[string]map[string]policy.Rule),
		clusterRules:     make(map[string]policy.Rule),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Clock exposes the controller's time source so collaborators (the HTTP
// monitor, reports) timestamp with the same clock the feedback loop runs
// on — real time in production, simulated time in experiment replays.
func (c *Controller) Clock() clock.Clock { return c.clk }

// ---- registry ----

// Register adds a stage to the registry. A stage re-registering under an
// existing ID (restart or reconnect after a network failure — the
// dependability case §VI highlights) replaces its previous connection,
// which is closed, and has its failure marks cleared. If an algorithm is
// active, the stage immediately receives the managed control queue — at
// its group's last-known per-stage allocation when one exists, so a
// restarted stage resumes the frozen rate rather than resetting to an
// equal share. Administrator rules recorded for the group (and
// cluster-wide) are replayed onto the connection, making re-registration
// idempotent: a stage that lost its state comes back with the last-known
// rule set.
func (c *Controller) Register(conn StageConn) error {
	info := conn.Info()
	id := info.StageID
	c.mu.Lock()
	old := c.stages[id]
	c.stages[id] = conn
	c.registryRev++
	delete(c.misses, id)
	alg := c.algorithm
	key := c.groupBy(info)
	rate, haveAlloc := 0.0, false
	if a, ok := c.lastAlloc[key]; ok {
		if n := len(c.stagesOfJobLocked(key)); n > 0 {
			rate, haveAlloc = a/float64(n), true
		}
	}
	replay := c.replayRulesLocked(key)
	c.mu.Unlock()

	if old != nil && old != conn {
		// A replaced connection's close error is unactionable here: the
		// new connection is already installed.
		_ = old.Close()
	}
	// The managed control rule plus the whole replay set travel in one
	// exchange — what keeps a re-registration storm (every stage
	// reconnecting after a controller restart) from multiplying into
	// rules×stages round trips.
	ops := make([]rpcio.StageOp, 0, 1+len(replay))
	if alg != nil {
		// Without a recorded allocation, start at a conservative equal
		// share; the next loop iteration assigns the real rate.
		if !haveAlloc {
			rate = c.initialRate()
		}
		ops = append(ops, rpcio.StageOp{Kind: rpcio.OpApplyRule, Rule: managedRule(c.controlled, c.isDefaultGroupBy, key, rate)})
	}
	for _, r := range replay {
		ops = append(ops, rpcio.StageOp{Kind: rpcio.OpApplyRule, Rule: r})
	}
	if len(ops) == 0 {
		return nil
	}
	if _, _, err := rpcio.Exec(conn, ops, nil, false); err != nil {
		return fmt.Errorf("control: install rules on %s: %w", id, err)
	}
	return nil
}

// replayRulesLocked materializes the per-stage form of every recorded
// administrator rule a (re-)registering stage of group key should carry,
// in deterministic (ID-sorted) order. Rates are split by the group's
// current stage count, matching how the rules were originally pushed.
func (c *Controller) replayRulesLocked(key string) []policy.Rule {
	var out []policy.Rule
	if group := c.adminRules[key]; len(group) > 0 {
		n := len(c.stagesOfJobLocked(key))
		ids := make([]string, 0, len(group))
		for rid := range group {
			ids = append(ids, rid)
		}
		sort.Strings(ids)
		for _, rid := range ids {
			r := group[rid]
			if r.Rate != policy.Unlimited && n > 1 {
				r.Rate /= float64(n)
			}
			out = append(out, r)
		}
	}
	if len(c.clusterRules) > 0 {
		n := len(c.stages)
		ids := make([]string, 0, len(c.clusterRules))
		for rid := range c.clusterRules {
			ids = append(ids, rid)
		}
		sort.Strings(ids)
		for _, rid := range ids {
			r := c.clusterRules[rid]
			if r.Rate != policy.Unlimited && n > 1 {
				r.Rate /= float64(n)
			}
			out = append(out, r)
		}
	}
	return out
}

// initialRate is the rate a just-registered job starts at before
// the first allocation round: an equal share of the cluster limit.
func (c *Controller) initialRate() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.jobIDsLocked())
	if n == 0 {
		n = 1
	}
	if c.clusterLimit <= 0 {
		return policy.Unlimited
	}
	return c.clusterLimit / float64(n)
}

// Deregister removes a stage (job completion, node failure, or
// eviction). When the stage was its group's last, the group's share is
// released — residual allocation, reservation, and recorded rules are
// dropped — so the next RunOnce redistributes the rate to the remaining
// jobs instead of holding it for a departed one.
func (c *Controller) Deregister(stageID string) bool {
	c.mu.Lock()
	conn, ok := c.stages[stageID]
	if ok {
		key := c.groupBy(conn.Info())
		delete(c.stages, stageID)
		c.registryRev++
		delete(c.misses, stageID)
		if len(c.stagesOfJobLocked(key)) == 0 {
			delete(c.lastAlloc, key)
			delete(c.reservations, key)
			delete(c.adminRules, key)
		}
	}
	c.mu.Unlock()
	if ok {
		// The stage is gone (job completion or node failure); its close
		// error carries no recovery path.
		_ = conn.Close()
	}
	return ok
}

// ErrEvicted is reported to the error handler for each stage removed by
// mark-sweep eviction.
var ErrEvicted = errors.New("control: stage evicted after repeated failures")

// EvictDead sweeps the registry: every stage whose consecutive-failure
// mark reached the eviction threshold is deregistered (releasing its
// group's share, see Deregister) and reported to the error handler with
// ErrEvicted. It returns the evicted stage IDs, sorted. RunOnce calls
// this between collect and allocate; it is exported for callers driving
// the loop manually.
func (c *Controller) EvictDead() []string {
	c.mu.Lock()
	threshold := c.evictAfter
	var ids []string
	if threshold > 0 {
		for id, n := range c.misses {
			if n >= threshold {
				ids = append(ids, id)
			}
		}
	}
	c.mu.Unlock()
	sort.Strings(ids)
	for _, id := range ids {
		if c.Deregister(id) {
			c.onError(id, ErrEvicted)
		}
	}
	return ids
}

// memberFailed is the error sink of the shard the controller builds:
// the failed exchange goes to the error handler, and the stage's
// eviction mark rises.
func (c *Controller) memberFailed(stageID string, err error) {
	c.onError(stageID, err)
	c.mu.Lock()
	if _, ok := c.stages[stageID]; ok {
		c.misses[stageID]++
	}
	c.mu.Unlock()
}

// Stages returns the registered stage identities, sorted by StageID.
func (c *Controller) Stages() []stage.Info {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]stage.Info, 0, len(c.stages))
	for _, conn := range c.stages {
		out = append(out, conn.Info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StageID < out[j].StageID })
	return out
}

// Jobs returns the distinct job IDs with at least one registered stage.
func (c *Controller) Jobs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.jobIDsLocked()
}

func (c *Controller) jobIDsLocked() []string {
	seen := map[string]bool{}
	var out []string
	for _, conn := range c.stages {
		j := c.groupBy(conn.Info())
		if !seen[j] {
			seen[j] = true
			out = append(out, j)
		}
	}
	sort.Strings(out)
	return out
}

// stagesOfJobLocked returns the connections serving an orchestration
// entity (a job under the default grouping).
func (c *Controller) stagesOfJobLocked(jobID string) []StageConn {
	var out []StageConn
	for _, conn := range c.stages {
		if c.groupBy(conn.Info()) == jobID {
			out = append(out, conn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Info().StageID < out[j].Info().StageID })
	return out
}

// ---- administrator operations (simple policies) ----

// ApplyRuleToJob installs a rule on every stage of one job (per-job
// granularity). The per-stage rate is the job rate divided by the job's
// stage count, so a distributed job's aggregate stays at the intent.
func (c *Controller) ApplyRuleToJob(jobID string, r policy.Rule) error {
	c.mu.Lock()
	conns := c.stagesOfJobLocked(jobID)
	if len(conns) > 0 {
		// Remember the aggregate intent so a restarted stage of this
		// group gets the rule replayed at re-registration.
		if c.adminRules[jobID] == nil {
			c.adminRules[jobID] = make(map[string]policy.Rule)
		}
		c.adminRules[jobID][r.ID] = r
	}
	c.mu.Unlock()
	if len(conns) == 0 {
		return fmt.Errorf("control: no stages for job %q", jobID)
	}
	return installSplit(conns, r)
}

// installSplit installs r on every connection as a one-op batch, its
// rate split equally among them, in the same pass a round makes: every
// install is started in StageID order before the first is awaited.
// Every stage is attempted whatever the others answer — a failure in
// the middle must not leave an arbitrary remainder of the job without
// the rule — and the error returned is the first in StageID order.
func installSplit(conns []StageConn, r policy.Rule) error {
	if r.Rate != policy.Unlimited && len(conns) > 1 {
		r.Rate /= float64(len(conns))
	}
	sort.Slice(conns, func(i, j int) bool { return conns[i].Info().StageID < conns[j].Info().StageID })
	ops := []rpcio.StageOp{{Kind: rpcio.OpApplyRule, Rule: r}}
	for _, conn := range conns {
		conn.Start(ops, nil, false)
	}
	var first error
	for _, conn := range conns {
		res, changed, err := conn.Finish()
		if _, _, err = rpcio.Reattempt(conn, ops, nil, false, res, changed, err); err != nil && first == nil {
			first = fmt.Errorf("control: install rule %s on %s: %w", r.ID, conn.Info().StageID, err)
		}
	}
	return first
}

// ApplyRuleToJobs installs a rule on a group of jobs (group granularity),
// splitting the rate equally across the jobs and then across each job's
// stages. Every job is attempted; the error is the first in argument
// order.
func (c *Controller) ApplyRuleToJobs(jobIDs []string, r policy.Rule) error {
	if len(jobIDs) == 0 {
		return fmt.Errorf("control: empty job group")
	}
	perJob := r
	if r.Rate != policy.Unlimited {
		perJob.Rate = r.Rate / float64(len(jobIDs))
	}
	var first error
	for _, j := range jobIDs {
		if err := c.ApplyRuleToJob(j, perJob); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ApplyRuleCluster installs a rule on every registered stage
// (cluster-wide granularity), splitting the rate across all stages.
func (c *Controller) ApplyRuleCluster(r policy.Rule) error {
	c.mu.Lock()
	conns := c.connsLocked()
	if len(conns) > 0 {
		c.clusterRules[r.ID] = r
	}
	c.mu.Unlock()
	if len(conns) == 0 {
		return fmt.Errorf("control: no registered stages")
	}
	return installSplit(conns, r)
}

// SetReservation records a job's reserved/priority rate used by
// FixedRates and ProportionalShare.
func (c *Controller) SetReservation(jobID string, rate float64) {
	c.mu.Lock()
	c.reservations[jobID] = rate
	c.mu.Unlock()
}

// ---- feedback control loop ----

// JobSnapshot is one job's aggregated state from a collect round: the
// row the shard folds the job's member stages' statistics into.
type JobSnapshot struct {
	JobID       string
	Stages      int     // stages that answered the collect
	Demand      float64 // aggregate arrival rate, ops/s
	Throughput  float64 // aggregate admitted rate, ops/s
	Allocated   float64 // rate granted by the last allocation
	Reservation float64
	// WaitP50/WaitP95/WaitP99 are the worst (max) control-queue shaping
	// wait percentiles across the job's stages, in seconds — the
	// queueing delay the current allocation is costing the job.
	WaitP50 float64
	WaitP95 float64
	WaitP99 float64
	// Dropped counts requests the job's control queues rejected.
	Dropped int64
	// Degraded reports that at least one of the job's stages is running
	// in degraded mode (enforcing frozen limits without its controller);
	// DegradedStages counts them and DegradedSeconds is the worst
	// cumulative outage among them.
	Degraded        bool
	DegradedStages  int
	DegradedSeconds float64
	// FailedStages counts registered stages of the job that did not
	// answer this collect round (the snapshot is partial).
	FailedStages int
}

// addStage folds one answering stage's statistics into the row and
// returns what they say about the stage's managed queue.
func (s *JobSnapshot) addStage(st *stage.Stats) stageProbe {
	probe := stageProbe{ok: true}
	s.Stages++
	if st.Degraded {
		s.Degraded = true
		s.DegradedStages++
		s.DegradedSeconds = max(s.DegradedSeconds, st.DegradedSeconds)
	}
	for i := range st.Queues {
		q := &st.Queues[i]
		if q.RuleID != ControlRuleID {
			continue
		}
		probe.hasCtl = true
		probe.ctlLimit = q.Limit
		s.Demand += q.DemandRate
		s.Throughput += q.ThroughputRate
		s.Dropped += q.Dropped
		s.WaitP50 = max(s.WaitP50, q.WaitP50)
		s.WaitP95 = max(s.WaitP95, q.WaitP95)
		s.WaitP99 = max(s.WaitP99, q.WaitP99)
	}
	return probe
}

// state projects a collected snapshot onto the algorithm's input.
func (s *JobSnapshot) state() JobState {
	return JobState{JobID: s.JobID, Demand: s.Demand, Reservation: s.Reservation, Stages: s.Stages}
}

// RoundStats is one RunOnce iteration's accounting: what the feedback
// loop cost at the current fleet size, and what the delta protocol
// saved. The monitor and padll-controller's report surface it;
// experiment E13 sweeps it against stage count.
//
// The counts are the exchanges the controller issued and the decisions
// it took, one per stage: a 256-stage fleet reports Stages 256,
// CollectCalls 256, and a push or a skip per stage.
type RoundStats struct {
	// Stages is the number of stages the collect phase covered.
	Stages int
	// CollectCalls counts collect round trips issued; CollectFailures
	// counts the ones that errored.
	CollectCalls    int
	CollectFailures int
	// PushCalls counts push-phase round trips; PushOps the operations
	// (stage retunes) they carried.
	PushCalls int
	PushOps   int
	// PushesSkipped counts pushes that did not need to happen: a stage
	// whose collect probe showed the target rate already enforced — the
	// delta protocol's steady-state win.
	PushesSkipped int
	// Duration is the wall (or simulated) time the round took.
	Duration time.Duration
	// BytesRead/BytesWritten are the controller-side frame traffic this
	// round, in-process loopback stages included.
	BytesRead    uint64
	BytesWritten uint64
}

// RPCs is the round's total round trips.
func (r RoundStats) RPCs() int { return r.CollectCalls + r.PushCalls }

// LastRound reports the most recent RunOnce's accounting; ok is false
// before the first completed round.
func (c *Controller) LastRound() (rs RoundStats, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastRound, c.haveRound
}

// reshard brings the shard up to the registry's current revision and
// returns it: one shard over every registered stage in StageID order, a
// pure function of the registry, so same-seed chaos runs are identical.
// A stage whose connection is still registered keeps its member record,
// and with it its collect slot and probe. Caller holds roundMu.
func (c *Controller) reshard() *shard {
	c.mu.Lock()
	rev := c.registryRev
	if c.sh != nil && rev == c.shardRev {
		c.mu.Unlock()
		return c.sh
	}
	conns := c.connsLocked()
	c.mu.Unlock()

	kept := make(map[StageConn]*member, len(conns))
	if c.sh != nil {
		for _, m := range c.sh.members {
			kept[m.conn] = m
		}
	}
	members := make([]*member, len(conns))
	for i, conn := range conns {
		if members[i] = kept[conn]; members[i] == nil {
			members[i] = &member{conn: conn}
		}
	}
	sortMembers(members)
	c.sh, c.shardRev = c.newShard(members), rev
	return c.sh
}

// connsLocked copies the registry's connections out, unordered.
func (c *Controller) connsLocked() []StageConn {
	conns := make([]StageConn, 0, len(c.stages))
	for _, conn := range c.stages {
		conns = append(conns, conn)
	}
	return conns
}

// collect runs the collect phase over sh and returns its rows, one
// snapshot per job, sorted by job. A job none of whose stages answered
// has no snapshot: the loop runs on what it can see rather than holding
// a share for a dead peer. Caller holds roundMu.
func (c *Controller) collect(sh *shard, rs *RoundStats) []JobSnapshot {
	c.mu.Lock()
	var marked map[string]int
	if len(c.misses) > 0 {
		marked = make(map[string]int, len(c.misses))
		for id, n := range c.misses {
			marked[id] = n
		}
	}
	c.mu.Unlock()

	sh.round(nil, true, rs)

	c.mu.Lock()
	// The collect reached every registered stage, and a failed exchange
	// raised the stage's mark (memberFailed): a mark still where it
	// stood before the collect belongs to a stage that answered.
	for id, n := range marked {
		if c.misses[id] == n {
			delete(c.misses, id)
		}
	}
	out := make([]JobSnapshot, 0, len(sh.rows))
	for _, s := range sh.rows {
		if s.Stages == 0 {
			continue
		}
		s.Reservation, s.Allocated = c.reservations[s.JobID], c.lastAlloc[s.JobID]
		out = append(out, s)
	}
	c.mu.Unlock()
	return out
}

// CollectAll gathers statistics from every stage, aggregated per job
// (feedback-loop step 1): the collect phase of a round on its own,
// through the same shard and collect slots RunOnce uses. Stages that
// fail to respond are reported to the error handler, marked for eviction, and
// skipped: the loop runs on partial snapshots rather than blocking
// behind a dead peer.
func (c *Controller) CollectAll() []JobSnapshot {
	c.roundMu.Lock()
	defer c.roundMu.Unlock()
	return c.collect(c.reshard(), &RoundStats{})
}

// roundStart begins a feedback iteration: it applies the limit adapter
// and returns the algorithm and cluster limit the round runs under.
func (c *Controller) roundStart() (Algorithm, float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.limitAdapter != nil {
		c.clusterLimit = c.limitAdapter.AdjustLimit(c.clusterLimit)
	}
	return c.algorithm, c.clusterLimit
}

// RunOnce executes one feedback-loop iteration and returns the per-job
// allocation for reporting. It is a no-op (returning nil) when no
// algorithm is installed.
//
// The round is collect, sweep, allocate, split, push. Both exchanges
// with the fleet happen in the shard (shard.round): collects are
// incremental (only changed queues on the wire, an unchanged stage's
// slot left as it is), and a push is skipped outright for a stage whose
// collect probe shows the target rate already enforced — in-process
// stages included, so a steady round leaves a stage's rule snapshot
// (and its classification cache) untouched. What is the controller's
// own is here: evict the stages past the failure threshold, run the
// algorithm, divide each job's allocation among its registered stages,
// and account.
func (c *Controller) RunOnce() map[string]float64 {
	alg, limit := c.roundStart()
	if alg == nil {
		return nil
	}
	c.roundMu.Lock()
	defer c.roundMu.Unlock()

	start := c.clk.Now()
	sh := c.reshard()
	wireBefore := sh.wireStats()

	var rs RoundStats
	snaps := c.collect(sh, &rs)
	// Sweep before allocating: stages past the eviction threshold leave
	// the registry now, so the split below divides a job's allocation
	// among its live stages only instead of letting a dead one hold its
	// share.
	c.EvictDead()
	jobs := make([]JobState, len(snaps))
	for i := range snaps {
		jobs[i] = snaps[i].state()
	}
	alloc := alg.Allocate(limit, jobs)
	c.mu.Lock()
	c.lastAlloc = alloc
	c.mu.Unlock()

	// The sweep, or a registration that raced the collect, moved the
	// registry: the plan is made over the stages registered now.
	push := c.reshard()
	if grants := push.grant(alloc); len(grants) > 0 {
		push.round(grants, false, &rs)
	}

	rs.Duration = c.clk.Now().Sub(start)
	wireAfter := sh.wireStats()
	rs.BytesRead = wireAfter.BytesRead - wireBefore.BytesRead
	rs.BytesWritten = wireAfter.BytesWritten - wireBefore.BytesWritten
	c.mu.Lock()
	c.lastRound, c.haveRound = rs, true
	c.mu.Unlock()
	return alloc
}

// Run executes the feedback loop every interval until Stop is called.
func (c *Controller) Run(interval time.Duration) {
	c.mu.Lock()
	if c.loopStop != nil {
		c.mu.Unlock()
		return // already running
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	c.loopStop, c.loopDone = stop, done
	c.mu.Unlock()

	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			case <-c.clk.After(interval):
				c.RunOnce()
			}
		}
	}()
}

// Stop halts the feedback loop started by Run.
func (c *Controller) Stop() {
	c.mu.Lock()
	stop, done := c.loopStop, c.loopDone
	c.loopStop, c.loopDone = nil, nil
	c.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// ClusterLimit returns the current cluster-wide limit (which a
// LimitAdapter may be moving).
func (c *Controller) ClusterLimit() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clusterLimit
}

// LastAllocation returns the most recent per-job allocation.
func (c *Controller) LastAllocation() map[string]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]float64, len(c.lastAlloc))
	for k, v := range c.lastAlloc {
		out[k] = v
	}
	return out
}

// ---- network server ----

// Server exposes a Controller on the network: a registrar endpoint
// stages dial at job start; the controller dials back to each stage's
// control service.
type Server struct {
	ctl      *Controller
	stopReg  func()
	listener net.Listener
}

// Serve starts the registration listener on addr (e.g. "127.0.0.1:0").
func (c *Controller) Serve(addr string) (*Server, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("control: listen %s: %w", addr, err)
	}
	s := &Server{ctl: c, listener: l}
	s.stopReg = rpcio.ServeRegistrar(l,
		func(reg rpcio.Registration) error {
			h, err := rpcio.DialStage(reg.Addr)
			if err != nil {
				return err
			}
			return c.Register(NewRemoteConn(reg.Info, h))
		},
		func(stageID string) { c.Deregister(stageID) },
	)
	return s, nil
}

// Addr returns the registrar's listen address.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// Close stops the registrar listener.
func (s *Server) Close() { s.stopReg() }
