// The shard: the one piece of the control plane that exchanges with
// stages during a round.
//
// A shard fronts the controller's registered stages, its members. One
// round of it fans a task out to every member — bring the managed queue
// to the granted rate, collect the statistics — and folds what came
// back into one row per job. The controller keeps exactly one, over its
// whole registry, and rebuilds it when the registry changes.
package control

import (
	"slices"
	"sort"
	"sync"

	"padll/internal/policy"
	"padll/internal/posix"
	"padll/internal/rpcio"
	"padll/internal/stage"
)

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
// about it. A member's record outlives the shard it was built into when
// the controller reshards, so a stage keeps its collect slot and its
// probe for as long as its connection stays registered.
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

func sortMembers(ms []*member) {
	sort.Slice(ms, func(i, j int) bool { return ms[i].conn.Info().StageID < ms[j].conn.Info().StageID })
}

// jobGrant tells a shard what one job's member stages are to enforce:
// Rate is the rate of each member stage, not of the job.
type jobGrant struct {
	JobID string
	Rate  float64
}

// shard is the controller's stage registry as a round sees it: its
// members, the indexes derived from them, and the scratch its rounds
// reuse.
//
// It carries no lock of its own. Its membership and indexes are written
// once, by newShard, and never change — a registry change builds a new
// shard — and everything else is round state, which only reshard,
// collect, grant and round touch, every one of them with the
// controller's roundMu held. The round's worker goroutines (pass) each
// own a disjoint range of members and are joined before pass returns.
type shard struct {
	// What the controller was configured with, copied at construction.
	workers int
	matcher policy.Matcher
	onError func(stageID string, err error)
	// groupBy keys members into rows, and scoped says whether the
	// managed rule's matcher names that key as its job.
	groupBy func(stage.Info) string
	scoped  bool

	members  []*member // StageID-sorted: the deterministic fan-out order
	rowOf    []int     // member index -> index into jobs
	jobs     []string  // distinct member group keys, sorted
	jobCount []int     // member count per jobs[i]

	// Per-job scratch, one entry per jobs[i].
	rates     []float64 // target member rate this round
	hasRate   []bool
	rows      []JobSnapshot // the latest collect's fold
	rowsValid bool          // rows still describe the members' current stats
	// grants is this round's plan, capacity reused.
	grants []jobGrant
}

// newShard builds the controller's shard over StageID-sorted members,
// indexing them by group key.
func (c *Controller) newShard(members []*member) *shard {
	sh := &shard{
		workers: c.workers,
		matcher: c.controlled,
		onError: c.memberFailed,
		groupBy: c.groupBy,
		scoped:  c.isDefaultGroupBy,
		members: members,
		rowOf:   make([]int, len(members)),
	}
	keys := make([]string, len(members))
	for i, m := range members {
		keys[i] = sh.groupBy(m.conn.Info())
	}
	sh.jobs = slices.Clone(keys)
	sort.Strings(sh.jobs)
	sh.jobs = slices.Compact(sh.jobs)
	n := len(sh.jobs)
	sh.jobCount = make([]int, n)
	for i, k := range keys {
		sh.rowOf[i] = sort.SearchStrings(sh.jobs, k)
		sh.jobCount[sh.rowOf[i]]++
	}
	sh.rates = make([]float64, n)
	sh.hasRate = make([]bool, n)
	sh.rows = make([]JobSnapshot, n)
	return sh
}

// grant plans the push phase: each job's allocation is divided equally
// among its member stages. The plan is valid until the next call.
func (sh *shard) grant(alloc map[string]float64) []jobGrant {
	sh.grants = sh.grants[:0]
	for j, job := range sh.jobs {
		if rate, ok := alloc[job]; ok {
			sh.grants = append(sh.grants, jobGrant{JobID: job, Rate: rate / float64(sh.jobCount[j])})
		}
	}
	return sh.grants
}

// wireStats sums the members' cumulative traffic.
func (sh *shard) wireStats() (w rpcio.WireStats) {
	for _, m := range sh.members {
		s := m.conn.WireStats()
		w.BytesRead += s.BytesRead
		w.BytesWritten += s.BytesWritten
	}
	return w
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
// returns — a replaced shard must leave none behind.
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
func (sh *shard) pass(
	args func(m *member) (ops []rpcio.StageOp, dst *stage.Stats, held, ok bool),
	done func(m *member, res []rpcio.OpResult, changed bool, err error)) {
	members := sh.members
	eachSpan(len(members), sh.workers, func(lo, hi int) {
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
// rs accumulates member-level accounting: one collect call per member,
// push round trips and skips per granted member. The fold is left in
// sh.rows, valid until the shard's next collect.
func (sh *shard) round(grants []jobGrant, collect bool, rs *RoundStats) {
	members := sh.members
	nj := len(sh.jobs)

	rates, hasRate := sh.rates, sh.hasRate
	for j := range rates {
		rates[j], hasRate[j] = 0, false
	}
	for _, g := range grants {
		if j := sort.SearchStrings(sh.jobs, g.JobID); j < nj && sh.jobs[j] == g.JobID {
			rates[j], hasRate[j] = g.Rate, true
		}
	}

	pushes := false
	for i, m := range members {
		m.err, m.changed, m.calls, m.push[0] = nil, false, 0, rpcio.StageOp{}
		if j := sh.rowOf[i]; hasRate[j] {
			m.push[0] = pushOp(m.probe, managedRule(sh.matcher, sh.scoped, sh.jobs[j], rates[j]))
			pushes = pushes || m.push[0].Kind != 0
		}
	}
	if pushes {
		sh.pass(
			func(m *member) ([]rpcio.StageOp, *stage.Stats, bool, bool) {
				return m.push[:], nil, false, m.push[0].Kind != 0
			},
			func(m *member, res []rpcio.OpResult, _ bool, err error) {
				m.calls = 1
				if op := m.push[0]; err == nil && op.Kind == rpcio.OpSetRate && len(res) == 1 && !res[0].Found {
					managed := managedRule(sh.matcher, sh.scoped, sh.groupBy(m.conn.Info()), op.Rate)
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
		sh.pass(
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
	rebuild := collect && !sh.rowsValid
	failed := 0
	for i, m := range members {
		if hasRate[sh.rowOf[i]] {
			rs.PushCalls += m.calls
			rs.PushOps += m.calls // every push round trip is a one-op batch
			if m.calls == 0 {
				rs.PushesSkipped++
			}
		}
		if m.err != nil {
			failed++
			sh.onError(m.conn.Info().StageID, m.err)
		}
		rebuild = rebuild || collect && m.changed
	}
	if !collect {
		return
	}
	rs.Stages += len(members)
	rs.CollectCalls += len(members)
	rs.CollectFailures += failed
	if rebuild {
		for j := range sh.rows {
			sh.rows[j] = JobSnapshot{JobID: sh.jobs[j]}
		}
		for i, m := range members {
			row := &sh.rows[sh.rowOf[i]]
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
		sh.rowsValid = failed == 0
	}
	// Not rebuilt: every member answered "unchanged", so last round's
	// rows (and probes) already describe this round exactly.
}
