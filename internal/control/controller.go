package control

import (
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
	// split is the shard the latest push divided lastAlloc over (nil
	// before the first round): a job's member count in it is the number
	// of shares its allocation was pushed as.
	split *shard
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
	// adminRules and clusterRules remember administrator intent (the
	// aggregate rule, pre-split) per job and cluster-wide, so an
	// idempotent re-registration replays the last-known rule set onto a
	// restarted stage.
	adminRules   map[string]map[string]policy.Rule
	clusterRules map[string]policy.Rule

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
		adminRules:   make(map[string]map[string]policy.Rule),
		clusterRules: make(map[string]policy.Rule),
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
// highlights) replaces its record. Re-registering the same
// handle with the same identity keeps the stage's record, and with it
// its collect slot and probe; a new handle or identity gets a fresh
// record (a record's identity never changes, so a round reads it
// without the registry lock), and a handle it replaces is closed. If
// an algorithm is active, the stage immediately receives the managed
// control queue at grantLocked's rate — a restarted stage resumes its
// share of its job's last allocation rather than resetting to an equal
// share of the cluster.
// Administrator rules recorded for the job (and cluster-wide) are
// replayed onto the handle, making re-registration idempotent: a stage
// that lost its state comes back with the last-known rule set.
func (c *Controller) Register(info stage.Info, h *rpcio.StageHandle) error {
	id := info.StageID
	c.mu.Lock()
	old := c.stages[id]
	if old == nil || old.h != h || old.info != info {
		c.stages[id] = &member{info: info, h: h}
	}
	job := info.JobID
	if old != nil { // the stage's count moves to its job now
		c.uncountLocked(old.info.JobID)
	}
	c.jobStages[job]++
	c.registryRev++
	alg := c.algorithm
	rate := policy.Unlimited
	if alg != nil {
		rate = c.grantLocked(job)
	}
	replay := c.replayRulesLocked(job)
	c.mu.Unlock()

	if old != nil && old.h != h {
		// A replaced handle's close error is unactionable here: the new
		// handle is already installed.
		_ = old.h.Close()
	}
	// The managed control rule plus the whole replay set travel in one
	// exchange — what keeps a re-registration storm (every stage
	// reconnecting after a controller restart) from multiplying into
	// rules×stages round trips.
	ops := make([]rpcio.StageOp, 0, 1+len(replay))
	if alg != nil {
		ops = append(ops, rpcio.StageOp{Kind: rpcio.OpApplyRule, Rule: managedRule(job, rate)})
	}
	for _, r := range replay {
		ops = append(ops, rpcio.StageOp{Kind: rpcio.OpApplyRule, Rule: r})
	}
	if len(ops) == 0 {
		return nil
	}
	if _, _, err := h.Exec(ops, nil); err != nil {
		return fmt.Errorf("control: install rules on %s: %w", id, err)
	}
	return nil
}

// grantLocked is the managed rate a stage of job that registers now
// starts at: what the controller can grant without pushing another
// stage down, so a job's stages together never hold more than its
// allocation, nor the fleet more than the cluster limit. A job with an
// allocation holds it as one share for each of its stages the latest
// push covered; a stage counted beyond those (one back from a drop
// whose round pushed its share to its siblings, or a new one) holds
// none until the next round. A job without one starts at an equal
// share of the cluster limit among the registered jobs, and while other
// jobs hold an allocation, at no more than the limit those allocations
// and the grants since leave free. The next round assigns the real
// rate. Caller holds mu, with the stage counted.
func (c *Controller) grantLocked(job string) float64 {
	if a, ok := c.lastAlloc[job]; ok {
		n := c.split.count(job)
		if c.jobStages[job] > n {
			return 0
		}
		return a / float64(n)
	}
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

// replayRulesLocked materializes the per-stage form of every recorded
// administrator rule a (re-)registering stage of the job should carry:
// the job's rules, then the cluster's. Rates are split by the job's
// (the cluster's) current stage count, matching how the rules were
// originally pushed.
func (c *Controller) replayRulesLocked(job string) []policy.Rule {
	var out []policy.Rule
	if group := c.adminRules[job]; len(group) > 0 {
		out = appendSplit(out, group, c.jobStages[job])
	}
	return appendSplit(out, c.clusterRules, len(c.stages))
}

// appendSplit appends rules to out in deterministic (ID-sorted) order,
// each finite rate split n ways.
func appendSplit(out []policy.Rule, rules map[string]policy.Rule, n int) []policy.Rule {
	ids := make([]string, 0, len(rules))
	for rid := range rules {
		ids = append(ids, rid)
	}
	sort.Strings(ids)
	for _, rid := range ids {
		r := rules[rid]
		if r.Rate != policy.Unlimited && n > 1 {
			r.Rate /= float64(n)
		}
		out = append(out, r)
	}
	return out
}

// Deregister removes a stage (job completion, node failure, or its
// departure) and closes its handle. When the stage was its job's
// last, the job's residual allocation is dropped, which releases its
// share: the next RunOnce redistributes the rate to the remaining jobs
// instead of holding it for a departed one. The job's reservation and
// recorded rules stay — they are the operator's intent, set once, and a
// job with no stage holds no rate by them — so a job whose stages come
// back gets both again.
func (c *Controller) Deregister(stageID string) bool {
	c.mu.Lock()
	m := c.stages[stageID]
	ok := m != nil && c.dropLocked(m)
	c.mu.Unlock()
	if ok {
		// The stage is gone; its close error carries no recovery path.
		_ = m.h.Close()
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
	for _, m := range c.stages {
		out = append(out, m.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StageID < out[j].StageID })
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
	sortMembers(out)
	return out
}

// stagesOfJobLocked returns the records of the stages serving a job,
// sorted by StageID.
func (c *Controller) stagesOfJobLocked(jobID string) []*member {
	var out []*member
	for _, m := range c.stages {
		if m.info.JobID == jobID {
			out = append(out, m)
		}
	}
	sortMembers(out)
	return out
}

// ---- administrator operations (simple policies) ----

// ApplyRuleToJob installs a rule on every stage of one job (per-job
// granularity). The per-stage rate is the job rate divided by the job's
// stage count, so a distributed job's aggregate stays at the intent.
func (c *Controller) ApplyRuleToJob(jobID string, r policy.Rule) error {
	c.mu.Lock()
	members := c.stagesOfJobLocked(jobID)
	if len(members) > 0 {
		// Remember the aggregate intent so a restarted stage of this
		// job gets the rule replayed at re-registration.
		if c.adminRules[jobID] == nil {
			c.adminRules[jobID] = make(map[string]policy.Rule)
		}
		c.adminRules[jobID][r.ID] = r
	}
	c.mu.Unlock()
	if len(members) == 0 {
		return fmt.Errorf("control: no stages for job %q", jobID)
	}
	return c.installSplit(members, r)
}

// installSplit installs r on every stage of members (StageID-sorted) as
// a one-op batch, its rate split equally among them: every install is
// started in StageID order before the first is awaited (under roundMu: a
// round's split collect does not keep that order), so installs behind
// hung stages wait one deadline in all. It touches only the records'
// identities and handles, none of their round memory. Every stage is
// attempted whatever the others answer — a failure in the middle must
// not leave an arbitrary remainder of the job without the rule — and the
// error returned is the first in StageID order.
func (c *Controller) installSplit(members []*member, r policy.Rule) error {
	c.roundMu.Lock()
	defer c.roundMu.Unlock()
	if r.Rate != policy.Unlimited && len(members) > 1 {
		r.Rate /= float64(len(members))
	}
	ops := []rpcio.StageOp{{Kind: rpcio.OpApplyRule, Rule: r}}
	for _, m := range members {
		m.h.Start(ops, nil)
	}
	var first error
	for _, m := range members {
		if _, _, err := m.h.Finish(); err != nil && first == nil {
			first = fmt.Errorf("control: install rule %s on %s: %w", r.ID, m.info.StageID, err)
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
	members := c.membersLocked()
	if len(members) > 0 {
		c.clusterRules[r.ID] = r
	}
	c.mu.Unlock()
	if len(members) == 0 {
		return fmt.Errorf("control: no registered stages")
	}
	return c.installSplit(members, r)
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
// registered keeps its collect slot and probe. Caller holds roundMu.
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
// (feedback-loop step 1): the collect phase of a round on its own,
// through the same shard and collect slots RunOnce uses. Stages that
// fail to respond are reported to the error handler, counted as
// FailedStages and skipped: the loop runs on partial snapshots rather
// than blocking behind a dead peer. A stage whose exchange failed on
// the wire leaves the registry here as in a round, so its failure is
// reported once, whoever read first.
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
// with the fleet happen in the shard (shard.collect, shard.push), one
// pass each: collects are
// incremental (only changed queues on the wire, an unchanged stage's
// slot left as it is), and a push is skipped outright for a stage whose
// collect probe shows the target rate already enforced — in-process
// stages included, so a steady round leaves a stage's rule snapshot
// untouched. What is the controller's own is here: drop the stages
// whose link failed (sweep), run the algorithm, and account.
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
	c.lastAlloc, c.split, c.provisional = alloc, push, 0
	c.mu.Unlock()
	push.push(alloc, &rs)
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
	out := make(map[string]float64, len(c.lastAlloc))
	for k, v := range c.lastAlloc {
		out[k] = v
	}
	return out
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
