package control

import (
	"cmp"
	"fmt"
	"maps"
	"net"
	"slices"
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
	stages map[string]*member // by StageID
	// jobStages counts the registered stages of each job with any.
	jobStages map[string]int
	// registryRev counts mutations of the registry; the round loop
	// reshards lazily when it has moved.
	registryRev  int
	reservations map[string]float64 // per-job reserved rate
	clusterLimit float64
	algorithm    Algorithm
	// limitAdapter, when set, retunes clusterLimit each loop iteration.
	limitAdapter *AIMDLimit
	onError      func(stageID string, err error)
	lastAlloc    map[string]float64
	// split is the membership the latest push split the rules over
	// (empty before the first), and splitRev its registry revision, or -1
	// once the administrators' intent has changed since.
	split    census
	splitRev int
	// provisional sums what registrations granted, since the latest
	// allocation, to jobs it left out.
	provisional float64
	loopStop    chan struct{}
	loopDone    chan struct{}
	// period is the running loop's (0: none runs), which a registration
	// over the network answers with.
	period time.Duration

	// lastRound is the most recent RunOnce's accounting.
	lastRound RoundStats
	haveRound bool
	// admin is the administrators' intent, in the order recorded.
	admin []adminRule

	// roundMu serializes rounds (RunOnce and CollectAll alike) and
	// administrator installs, and owns the shard. It is taken before mu,
	// never while holding it.
	roundMu sync.Mutex
	// sh is what a round drives: the job index over the registry's
	// records at revision shardRev (nil before the first round).
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

// WithLimitAdapter installs a dynamic cluster-limit policy, AIMD probing
// the MDS, applied at the start of every feedback-loop iteration.
func WithLimitAdapter(a *AIMDLimit) Option {
	return func(c *Controller) { c.limitAdapter = a }
}

// WithErrorHandler installs a sink for stage-communication errors; the
// default drops them. It is called from the round's goroutine, one
// error at a time, in StageID order within a phase, once for each
// failure: a failure on the wire ends the stage's handle, and the round
// drops the stage, which registers again. A stage's departure
// (rpcio.ErrDeparted) is no error and never reaches it.
func WithErrorHandler(f func(stageID string, err error)) Option {
	return func(c *Controller) { c.onError = f }
}

// New returns a controller on clk, which times its rounds and paces Run.
func New(clk clock.Clock, opts ...Option) *Controller {
	c := &Controller{
		clk:          clk,
		stages:       make(map[string]*member),
		jobStages:    make(map[string]int),
		reservations: make(map[string]float64),
		onError:      func(string, error) {},
		lastAlloc:    make(map[string]float64),
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

// Register adds the stage info names, reached through h, to the
// registry. A stage re-registering under an existing ID (restart or
// reconnect after a network failure — the dependability case §VI
// highlights) replaces its record. Re-registering the same handle with
// the same identity keeps the record, and with it its collect slot; a
// new handle or identity gets a fresh record (a record's identity never
// changes, so a round reads it without the registry lock), and a handle
// it replaces is closed. In one exchange the stage receives the managed
// control queue, if an algorithm is active, and the administrator rules
// recorded for its job and the cluster, each at what the rule's holders
// leave free (rulesLocked): a restarted stage resumes its share with the
// last-known rule set. A rule's shares follow membership: the next round
// re-splits every rule over the stages then registered, or, with no
// algorithm, a registration that changes a job's stage count does.
func (c *Controller) Register(info stage.Info, h *rpcio.StageHandle) error {
	id, job := info.StageID, info.JobID
	c.mu.Lock()
	old := c.stages[id]
	if old == nil || old.h != h || old.info != info {
		c.stages[id] = &member{info: info, h: h}
	}
	if old != nil { // the stage's count moves to its job now
		c.uncountLocked(old.info.JobID)
	}
	c.jobStages[job]++
	c.registryRev++
	var ops []rpcio.StageOp
	if _, ok := c.lastAlloc[job]; c.algorithm != nil && !ok {
		ops = append(ops, rpcio.StageOp{Kind: rpcio.OpApplyRule, Rule: managedRule(job, c.startLocked())})
	}
	ops = c.rulesLocked(ops, job, c.lastAlloc, c.split, &census{c.jobStages, len(c.stages)})
	c.mu.Unlock()

	if old != nil && old.h != h {
		// A replaced handle's close error is unactionable here: the new
		// handle is already installed.
		_ = old.h.Close()
	}
	// The whole rule set travels in one exchange — what keeps a
	// re-registration storm (every stage reconnecting after a controller
	// restart) from multiplying into rules×stages round trips.
	if len(ops) > 0 {
		if _, _, err := h.Exec(ops, nil); err != nil {
			return fmt.Errorf("control: install rules on %s: %w", id, err)
		}
	}
	c.resplit()
	return nil
}

// startLocked is the managed rate a registering stage of a job without
// an allocation starts at: an equal share of the cluster limit among
// the registered jobs, and while other jobs hold an allocation, no more
// than the limit those allocations and the grants since leave free. The
// next round assigns the real rate. Caller holds mu, with the stage
// counted.
func (c *Controller) startLocked() float64 {
	if c.clusterLimit <= 0 {
		return policy.Unlimited
	}
	rate := c.clusterLimit / float64(len(c.jobStages))
	if len(c.lastAlloc) == 0 {
		return rate
	}
	free := c.clusterLimit - c.provisional
	for _, a := range c.lastAlloc {
		free -= a
	}
	rate = max(0, min(rate, free))
	c.provisional += rate
	return rate
}

// census is a membership as a split sees it: the stages serving each
// job, and all of them.
type census struct {
	jobs  map[string]int
	total int
}

// adminRule is one recorded administrator rule, at its aggregate rate:
// a job's, or a cluster rule, which every job without a rule of its own
// of that ID carries.
type adminRule struct {
	rule    policy.Rule
	job     string
	cluster bool
}

// rulesLocked is the one place a rate is divided among stages. It maps
// the intent (alloc and the administrator rules) onto the membership
// split and appends to out the installs of what a stage of job carries
// there: the managed rule while alloc holds the job, then every
// administrator rule covering the job, each at its share, the rule's
// rate divided among the stages that carry it. A stage just registered
// into now gets a share only while now holds the rule on no more stages
// than split divided it among, else none: every holder holds at most
// its share of the latest split, so no rule's shares ever sum above the
// rule, and the next split makes them sum to it. Caller holds mu.
func (c *Controller) rulesLocked(out []rpcio.StageOp, job string, alloc map[string]float64, split census, now *census) []rpcio.StageOp {
	first := len(out)
	if a, ok := alloc[job]; ok {
		out = append(out, rpcio.StageOp{Kind: rpcio.OpApplyRule, Rule: managedRule(job, a)})
	}
	for _, a := range c.admin {
		if a.cluster && !c.ownsLocked(job, a.rule.ID) || !a.cluster && a.job == job {
			out = append(out, rpcio.StageOp{Kind: rpcio.OpApplyRule, Rule: a.rule})
		}
	}
	for i := first; i < len(out); i++ {
		if r := &out[i].Rule; r.Rate != policy.Unlimited {
			n := c.holdersLocked(r.ID, job, split)
			if n > 1 {
				r.Rate /= float64(n)
			}
			if now != nil && c.holdersLocked(r.ID, job, *now) > max(n, 1) {
				r.Rate = 0
			}
		}
	}
	return out
}

// holdersLocked is how many stages of n carry rule id as a stage of job
// does: the job's, for its managed rule and its own rules, and for a
// cluster rule every stage of a job without its own. Caller holds mu.
func (c *Controller) holdersLocked(id, job string, n census) int {
	if id == ControlRuleID || c.ownsLocked(job, id) {
		return n.jobs[job]
	}
	held := n.total
	for _, a := range c.admin {
		if !a.cluster && a.rule.ID == id {
			held -= n.jobs[a.job]
		}
	}
	return held
}

// ownsLocked reports whether job has a rule of its own of ID id. Caller
// holds mu.
func (c *Controller) ownsLocked(job, id string) bool {
	return slices.ContainsFunc(c.admin, func(a adminRule) bool { return !a.cluster && a.job == job && a.rule.ID == id })
}

// Deregister removes a stage (job completion, node failure, or its
// departure) and closes its handle. When the stage was its job's
// last, the job's residual allocation is dropped, which releases its
// share: the next RunOnce redistributes the rate to the remaining jobs
// instead of holding it for a departed one. The job's reservation and
// recorded rules stay — they are the operator's intent, set once, and a
// job with no stage holds no rate by them — so a job whose stages come
// back gets both again. The rules' shares follow membership: the next
// round re-splits them over the stages left, and with no algorithm
// installed the drop re-splits them in a pass of its own.
func (c *Controller) Deregister(stageID string) bool {
	c.mu.Lock()
	m := c.stages[stageID]
	ok := m != nil && c.dropLocked(m)
	c.mu.Unlock()
	if ok {
		// The stage is gone; its close error carries no recovery path.
		_ = m.h.Close()
		c.resplit()
	}
	return ok
}

// dropLocked takes m out of the registry, unless a registration has
// replaced it, and reports whether it did; the caller closes its handle.
func (c *Controller) dropLocked(m *member) bool {
	id, job := m.info.StageID, m.info.JobID
	if c.stages[id] != m {
		return false
	}
	delete(c.stages, id)
	c.registryRev++
	if c.uncountLocked(job) {
		delete(c.lastAlloc, job)
	}
	return true
}

// uncountLocked takes one stage off job's count and reports whether it
// was the job's last.
func (c *Controller) uncountLocked(job string) (last bool) {
	if c.jobStages[job]--; c.jobStages[job] > 0 {
		return false
	}
	delete(c.jobStages, job)
	return true
}

// sweep drops from the registry, in StageID order, every member of sh
// whose last exchange failed on the wire, and closes its handle: the
// handle is dead for good, whether the stage hung up (ErrDeparted) or
// its link failed, and the stage registers again over a new one. A
// RemoteError is the stage's answer and leaves the member registered.
// A drop releases the job's share as Deregister does. Caller holds
// roundMu.
func (c *Controller) sweep(sh *shard) {
	var gone []*member
	for _, m := range sh.members {
		if rpcio.Retryable(m.err) {
			gone = append(gone, m)
		}
	}
	if len(gone) == 0 {
		return
	}
	c.mu.Lock()
	gone = slices.DeleteFunc(gone, func(m *member) bool { return !c.dropLocked(m) })
	c.mu.Unlock()
	for _, m := range gone {
		// The stage is gone; its close error carries no recovery path.
		_ = m.h.Close()
	}
}

// Stages returns the registered stage identities, sorted by StageID.
func (c *Controller) Stages() []stage.Info {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]stage.Info, 0, len(c.stages))
	for _, m := range c.membersLocked() {
		out = append(out, m.info)
	}
	return out
}

// Jobs returns the distinct job IDs with at least one registered stage.
func (c *Controller) Jobs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Sorted(maps.Keys(c.jobStages))
}

// membersLocked returns the registry's records, sorted by StageID.
func (c *Controller) membersLocked() []*member {
	out := make([]*member, 0, len(c.stages))
	for _, m := range c.stages {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].info.StageID < out[j].info.StageID })
	return out
}

// ---- administrator operations (simple policies) ----

// ApplyRuleToJob installs a rule on the stages of one job (per-job
// granularity). The rate is the job's: each stage holds it divided by
// the job's stage count, and the shares follow membership, as every
// rule's do (Register). The error is the first failure, in StageID
// order, of a stage of the job.
func (c *Controller) ApplyRuleToJob(jobID string, r policy.Rule) error {
	return c.apply(adminRule{rule: r, job: jobID})
}

// ApplyRuleToJobs installs a rule on a group of jobs (group granularity),
// splitting the rate equally across the jobs and then, as
// ApplyRuleToJob does, across each job's stages, in one install. Every
// job is attempted; the error is the first in argument order.
func (c *Controller) ApplyRuleToJobs(jobIDs []string, r policy.Rule) error {
	if len(jobIDs) == 0 {
		return fmt.Errorf("control: empty job group")
	}
	perJob := r
	if r.Rate != policy.Unlimited {
		perJob.Rate = r.Rate / float64(len(jobIDs))
	}
	rules := make([]adminRule, len(jobIDs))
	for i, j := range jobIDs {
		rules[i] = adminRule{rule: perJob, job: j}
	}
	return c.apply(rules...)
}

// ApplyRuleCluster installs a rule on every registered stage
// (cluster-wide granularity), its rate split across all of them. It
// replaces the job rules of its ID, and a job rule of its ID applied
// later takes that job's stages out of the split. Its shares follow
// membership (Register).
func (c *Controller) ApplyRuleCluster(r policy.Rule) error {
	return c.apply(adminRule{rule: r, cluster: true})
}

// apply records each of rules that covers a registered stage in place
// of the rules of its ID it replaces — the job's, or for a cluster rule
// every one — and installs them in one pass. The error is the first
// rule's, in order, that covers no stage or failed on a stage.
func (c *Controller) apply(rules ...adminRule) error {
	errs := make([]error, len(rules))
	c.mu.Lock()
	for i, a := range rules {
		switch {
		case a.cluster && len(c.stages) == 0:
			errs[i] = fmt.Errorf("control: no registered stages")
		case !a.cluster && c.jobStages[a.job] == 0:
			errs[i] = fmt.Errorf("control: no stages for job %q", a.job)
		default:
			c.admin = append(slices.DeleteFunc(c.admin, func(b adminRule) bool {
				return b.rule.ID == a.rule.ID && (a.cluster || !b.cluster && b.job == a.job)
			}), a)
			c.splitRev = -1 // the next push re-splits
		}
	}
	c.mu.Unlock()
	if slices.Contains(errs, nil) {
		c.install(rules, errs)
	}
	return cmp.Or(errs...)
}

// install is a round without an allocation, the latest standing: it
// collects, sweeps and pushes every stage the rules it carries now, each
// rule its collect shows off its share and each of fresh whole
// (shard.push). It leaves in errs[i], if nil, the first failure in
// StageID order of a stage carrying fresh[i]: the collect's of a stage
// it dropped, else the push's.
func (c *Controller) install(fresh []adminRule, errs []error) {
	c.roundMu.Lock()
	defer c.roundMu.Unlock()
	sh := c.reshard()
	c.collect(sh, &RoundStats{})
	push := c.reshard()
	push.push(c.LastAllocation(), fresh, &RoundStats{})
	c.sweep(push)
	for _, m := range sh.members {
		for i, a := range fresh {
			if m.err != nil && errs[i] == nil && (a.cluster || a.job == m.info.JobID) {
				errs[i] = fmt.Errorf("control: install rules on %s: %w", m.info.StageID, m.err)
			}
		}
	}
}

// resplit re-splits the rules in an install pass of its own when no
// round will, no algorithm being installed, and a registration or a drop
// left some job's stage count other than the latest split's: a
// re-registration under the same ID and job costs no pass.
func (c *Controller) resplit() {
	c.mu.Lock()
	moved := c.algorithm == nil && len(c.admin) > 0 && !maps.Equal(c.split.jobs, c.jobStages)
	c.mu.Unlock()
	if moved {
		c.install(nil, nil)
	}
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
// returns its managed queue's limit (held false: it has none).
func (s *JobSnapshot) addStage(st *stage.Stats) (ctl float64, held bool) {
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
		ctl, held = q.Limit, true
		s.Demand += q.DemandRate
		s.Throughput += q.ThroughputRate
		s.Dropped += q.Dropped
		s.WaitP50 = max(s.WaitP50, q.WaitP50)
		s.WaitP95 = max(s.WaitP95, q.WaitP95)
		s.WaitP99 = max(s.WaitP99, q.WaitP99)
	}
	return ctl, held
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
	// whose collect showed the target rate already enforced — the delta
	// protocol's steady-state win.
	PushesSkipped int
	// Duration is the wall (or simulated) time the round took.
	Duration time.Duration
	// BytesRead/BytesWritten are the controller-side frame traffic this
	// round, in-process stages included.
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
// returns it: one job index over every registered record in StageID
// order, a pure function of the registry, so same-seed chaos runs are
// identical. The records are the registry's own, so a stage that stays
// registered keeps its collect slot. Caller holds roundMu.
func (c *Controller) reshard() *shard {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sh == nil || c.shardRev != c.registryRev {
		c.sh, c.shardRev = c.newShard(c.membersLocked()), c.registryRev
	}
	return c.sh
}

// collect runs the collect phase over sh, sweeps the members whose
// link failed out of the registry, and returns the collect's rows, one
// snapshot per job, sorted by job. A job none of whose stages answered
// has no snapshot: the loop runs on what it can see rather than holding
// a share for a dead peer. Caller holds roundMu.
func (c *Controller) collect(sh *shard, rs *RoundStats) []JobSnapshot {
	sh.collect(rs)
	c.sweep(sh)

	c.mu.Lock()
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
// (feedback-loop step 1): a round's collect on its own, through the same
// shard and collect slots. Stages that fail to respond are reported to
// the error handler, counted as FailedStages and skipped: the loop runs
// on partial snapshots rather than blocking behind a dead peer. A stage
// whose exchange failed on the wire leaves the registry here as in a
// round, so its failure is reported once, whoever read first; with no
// algorithm installed, its leaving re-splits the rules (resplit).
func (c *Controller) CollectAll() []JobSnapshot {
	c.roundMu.Lock()
	snaps := c.collect(c.reshard(), &RoundStats{})
	c.roundMu.Unlock()
	c.resplit()
	return snaps
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
// The round is collect, sweep, allocate, split, push, both exchanges in
// the shard (shard.collect, shard.push), one pass each. Collects are
// incremental (only changed queues on the wire); the push maps the
// allocation, and every administrator rule when the registry moved since
// the latest push, onto the stages registered now (rulesLocked), and
// skips a stage whose collect shows its shares enforced, so a steady
// round leaves a stage's rule snapshot untouched.
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
	// The collect sweeps before the allocation: a stage whose link
	// failed leaves the registry now, so the split below divides a job's
	// allocation among its live stages only instead of letting a dead one
	// hold its share.
	snaps := c.collect(sh, &rs)
	jobs := make([]JobState, len(snaps))
	for i := range snaps {
		jobs[i] = snaps[i].state()
	}
	alloc := alg.Allocate(limit, jobs)

	// The sweep, or a registration that raced the collect, moved the
	// registry: the push goes to the stages registered now.
	push := c.reshard()
	c.mu.Lock()
	c.lastAlloc, c.provisional = alloc, 0
	c.mu.Unlock()
	push.push(alloc, nil, &rs)
	c.sweep(push)

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
// A stage that registers over the network while it runs learns the
// interval: its rounds are the stage's sign of its controller's life.
func (c *Controller) Run(interval time.Duration) {
	c.mu.Lock()
	if c.loopStop != nil {
		c.mu.Unlock()
		return // already running
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	c.loopStop, c.loopDone, c.period = stop, done, interval
	c.mu.Unlock()

	go func() {
		defer close(done)
		tick := make(chan struct{}, 1)
		t := c.clk.NewFuncTimer(func() { tick <- struct{}{} })
		defer t.Stop()
		for {
			t.Reset(interval)
			select {
			case <-stop:
				return
			case <-tick:
				c.RunOnce()
			}
		}
	}()
}

// Stop halts the feedback loop started by Run and closes every stage's
// handle, as the controller process's exit would: a stage registered
// over the network sees its connection close. The records stay.
func (c *Controller) Stop() {
	c.mu.Lock()
	stop, done := c.loopStop, c.loopDone
	c.loopStop, c.loopDone, c.period = nil, nil, 0
	members := c.membersLocked()
	c.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	for _, m := range members {
		// The controller is going; a close error changes nothing.
		_ = m.h.Close()
	}
}

// ClusterLimit returns the current cluster-wide limit (which a limit
// adapter may be moving).
func (c *Controller) ClusterLimit() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clusterLimit
}

// LastAllocation returns the most recent per-job allocation.
func (c *Controller) LastAllocation() map[string]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return maps.Clone(c.lastAlloc)
}

// ---- network server ----

// Server exposes a Controller on the network: the registrar endpoint
// stages dial at job start. A stage registers on a connection it keeps,
// and the controller's handle on the stage runs over that connection:
// the controller never dials a stage, and the stage leaves by closing
// it.
type Server struct {
	stopReg  func()
	listener net.Listener
}

// Serve starts the registration listener on addr (e.g. "127.0.0.1:0").
func (c *Controller) Serve(addr string) (*Server, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("control: listen %s: %w", addr, err)
	}
	return c.serveOn(l), nil
}

// serveOn serves the registrar on l. A registration is answered with
// the running loop's period.
func (c *Controller) serveOn(l net.Listener) *Server {
	return &Server{
		listener: l,
		stopReg: rpcio.ServeRegistrar(l, func(info stage.Info, h *rpcio.StageHandle) (time.Duration, error) {
			c.mu.Lock()
			period := c.period
			c.mu.Unlock()
			return period, c.Register(info, h)
		}),
	}
}

// Addr returns the registrar's listen address.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// Close stops the registrar listener. The connections stages registered
// on belong to the controller's handles, and stay open (Controller.Stop
// closes them).
func (s *Server) Close() { s.stopReg() }
