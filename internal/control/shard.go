// The shard: the one piece of the control plane that exchanges with
// stages during a round.
//
// A shard indexes the controller's registered stages, its members, by
// job. A round runs two passes over it, each fanning one task out to
// every member: collect the statistics, folded into one row per job,
// then push each job's allocation down to its members' managed queues.
// The controller keeps exactly one, over its whole registry, and
// rebuilds it when the registry changes; the member records are the
// registry's own.
package control

import (
	"errors"
	"maps"
	"runtime"
	"slices"
	"sort"
	"sync"

	"padll/internal/policy"
	"padll/internal/posix"
	"padll/internal/rpcio"
	"padll/internal/stage"
)

// managedClasses is what the managed queue throttles: the operations
// that land on the MDS. Every managed rule shares this one slice, so a
// round builds its rules without allocating; nothing writes to it.
var managedClasses = []posix.Class{posix.ClassMetadata, posix.ClassDirectory, posix.ClassExtAttr}

// managedRule builds the control rule for the stages of one job: the
// managed classes, scoped to the job (§III-B), at rate.
func managedRule(job string, rate float64) policy.Rule {
	return policy.Rule{ID: ControlRuleID, Match: policy.Matcher{Classes: managedClasses, JobID: job}, Rate: rate}
}

// member is the controller's record of one registered stage: the
// identity it registered under and the handle the controller reaches it
// through — over TCP, or in process for the cluster simulator,
// single-process deployments and tests, so live and simulated clusters
// run the same codec, delta protocol and algorithms — together with what
// rounds remember about it. info and h never change once the record is
// registered; the rest is round memory, touched only under roundMu. A
// record outlives the shards built over it, so a stage keeps its collect
// slot for as long as the record stays registered.
type member struct {
	info stage.Info
	h    *rpcio.StageHandle
	// stats is the member's collect slot and h's merged snapshot: only
	// h's exchanges write it, each collect merging its reply in place,
	// so an unchanged member costs no write at all. ctl and hasCtl are
	// its managed queue's limit as the latest fold read it.
	stats  stage.Stats
	ctl    float64
	hasCtl bool
	// err, changed and calls are the outcome of the pass in flight:
	// the exchange's error, whether the collect rewrote stats (or
	// failed), and the push round trips spent.
	err     error
	changed bool
	calls   int
	// ops is what the push in flight sends the member (none: empty),
	// reused push after push; started marks an exchange of the pass in
	// flight begun and not yet finished.
	ops     []rpcio.StageOp
	started bool
}

// departed reports whether an exchange's error is the stage's departure
// (rpcio.ErrDeparted): no failure, and the round's sweep drops it.
func departed(err error) bool { return errors.Is(err, rpcio.ErrDeparted) }

// A collect's scatter is split min(GOMAXPROCS, maxScatter,
// members/scatterChunk) ways. On fleet_rounds over two vCPUs a two-way
// split took overhead_ratio from 1.31 to 1.10 at 256 TCP stages and from
// 1.57 to 1.22 at 64; at one P a forced one cost 2–3 %. Smaller fleets
// and wider splits are unmeasured (an older sweep of per-range workers
// read worse at 8 than at 2), so neither is split.
const scatterChunk, maxScatter = 32, 2

// passArgs names what member m sends in a pass (ok false: nothing).
type passArgs func(m *member) (ops []rpcio.StageOp, dst *stage.Stats, ok bool)

// shard is the controller's stage registry as a round sees it: its
// members in StageID order, the job index derived from them, and the
// scratch its passes reuse.
//
// It carries no lock of its own. Its membership and index are written
// once, by newShard, and never change — a registry change builds a new
// shard — and everything else is round state, which only reshard,
// collect, push and the sweep touch, every one of them with the controller's
// roundMu held. The helpers a split pass starts own disjoint members (a
// scatter chunk each) and are joined before pass returns.
type shard struct {
	c *Controller

	members []*member // StageID-sorted: the deterministic fan-out order
	rowOf   []int     // member index -> index into jobs
	jobs    []string  // distinct member jobs, sorted
	census  census    // the members counted by job

	// Per-job scratch, one entry per jobs[i].
	rules     [][]rpcio.StageOp // the installs of what the job's members carry (rulesLocked)
	rows      []JobSnapshot     // the latest collect's fold
	rowsValid bool              // rows still describe the members' current stats

	// The collect's scatter (see split); args is the pass in flight's.
	first   int
	helpers []func()
	args    passArgs
	wg      sync.WaitGroup
}

// newShard builds the controller's shard over StageID-sorted members,
// indexing them by job.
func (c *Controller) newShard(members []*member) *shard {
	sh := &shard{
		c:       c,
		members: members,
		rowOf:   make([]int, len(members)),
		census:  census{make(map[string]int), len(members)},
	}
	for _, m := range members {
		sh.census.jobs[m.info.JobID]++
	}
	sh.jobs = slices.Sorted(maps.Keys(sh.census.jobs))
	for i, m := range members {
		sh.rowOf[i] = sort.SearchStrings(sh.jobs, m.info.JobID)
	}
	sh.rules = make([][]rpcio.StageOp, len(sh.jobs))
	sh.rows = make([]JobSnapshot, len(sh.jobs))
	sh.split(max(1, min(runtime.GOMAXPROCS(0), maxScatter, len(members)/scatterChunk)))
	return sh
}

// split divides the collect's scatter w ways, into contiguous StageID
// chunks: the round goroutine starts the first, a helper each other one.
func (sh *shard) split(w int) {
	n := len(sh.members)
	sh.first = n / w
	for i := 1; i < w; i++ {
		chunk := sh.members[i*n/w : (i+1)*n/w]
		sh.helpers = append(sh.helpers, func() {
			defer sh.wg.Done()
			sh.start(chunk)
		})
	}
}

// start begins, in order, the exchanges of the members of ms that have one.
func (sh *shard) start(ms []*member) {
	for _, m := range ms {
		if ops, dst, ok := sh.args(m); ok {
			m.h.Start(ops, dst)
			m.started = true
		}
	}
}

// wireStats sums the members' cumulative traffic.
func (sh *shard) wireStats() (w rpcio.WireStats) {
	for _, m := range sh.members {
		s := m.h.WireStats()
		w.BytesRead += s.BytesRead
		w.BytesWritten += s.BytesWritten
	}
	return w
}

// pass is one kind of exchange with every member that has one to make:
// scatter, then gather. done takes m's outcome, on the round's
// goroutine in StageID order. Every exchange is started before the
// round's goroutine finishes any, so every request is on the wire
// before the first reply is awaited and — deadlines running from the
// send — hung members expire together: k hung members cost the round
// one DefaultCallTimeout, not k. The scatter runs in StageID order, but
// a split pass (the collect's) hands the chunks after the first to
// helpers, joined before the gather. Nothing is retried: a failed
// exchange is its member's outcome for the round. Every helper is gone
// when pass returns.
func (sh *shard) pass(split bool, args passArgs,
	done func(m *member, res []rpcio.OpResult, changed bool, err error)) {
	sh.args = args
	first := sh.members
	if split {
		first = first[:sh.first]
		sh.wg.Add(len(sh.helpers))
		for _, h := range sh.helpers {
			go h() //lint:allow leakcheck a helper ends in sh.wg.Done and is joined below; prebuilt, it spawns without allocating
		}
	}
	sh.start(first)
	sh.wg.Wait()
	for _, m := range sh.members {
		if m.started {
			m.started = false
			res, changed, err := m.h.Finish()
			done(m, res, changed, err)
		}
	}
}

// pushOp appends to ops what brings a stage's queue of rule r to r.Rate
// given the member's collect slot (answered false: its latest collect
// failed, or r goes whole whatever the slot shows): nothing when the
// slot shows the rate enforced; a retune of the managed queue where the
// slot shows it, or is stale; else the rule, installed whole (on a stage
// that answered without the managed queue, restarted, or an
// administrator rule off its share). Only an install copies the rule.
func pushOp(ops []rpcio.StageOp, m *member, answered bool, r *policy.Rule) []rpcio.StageOp {
	limit, held := m.ctl, m.hasCtl && r.ID == ControlRuleID
	for i, st := 0, &m.stats; r.ID != ControlRuleID && i < len(st.Queues) && !held; i++ {
		limit, held = st.Queues[i].Limit, st.Queues[i].RuleID == r.ID
	}
	switch {
	case answered && held && limit == r.Rate:
		return ops
	case r.ID == ControlRuleID && (held || !answered):
		return append(ops, rpcio.StageOp{Kind: rpcio.OpSetRate, ID: ControlRuleID, Rate: r.Rate})
	default:
		return append(ops, rpcio.StageOp{Kind: rpcio.OpApplyRule, Rule: *r})
	}
}

// push brings every member to the rules the controller maps alloc and
// the recorded intent to over the shard (rulesLocked), with pushOp's
// operations in one batch, one pass: the managed rule's; every
// administrator rule's when the registry or the intent moved since the
// latest push; each rule of fresh, just applied, whole (a slot's limit
// says nothing of a rule's matcher, burst or action). A retune that
// finds the managed queue gone (a restart raced the collect) is chased
// by a reinstall. A member failure never fails the round: it is reported
// to the error handler in StageID order and left in the member's err
// for the sweep. rs accumulates push round trips and operations, and a
// skip per other member of an allocated job.
func (sh *shard) push(alloc map[string]float64, fresh []adminRule, rs *RoundStats) {
	c := sh.c
	c.mu.Lock()
	resplit := c.splitRev != c.shardRev // sh is c.sh, at shardRev
	c.split, c.splitRev = sh.census, c.shardRev
	for j, job := range sh.jobs {
		sh.rules[j] = c.rulesLocked(sh.rules[j][:0], job, alloc, sh.census, nil)
	}
	c.mu.Unlock()
	pushes := false
	for i, m := range sh.members {
		answered := m.err == nil // the collect's outcome, until this push's
		m.err, m.calls, m.ops = nil, 0, m.ops[:0]
		for k, rules := 0, sh.rules[sh.rowOf[i]]; k < len(rules); k++ {
			r := &rules[k].Rule
			whole := slices.ContainsFunc(fresh, func(a adminRule) bool { return a.rule.ID == r.ID && (a.cluster || a.job == m.info.JobID) })
			if resplit || whole || r.ID == ControlRuleID {
				m.ops = pushOp(m.ops, m, answered && !whole, r)
			}
		}
		pushes = pushes || len(m.ops) > 0
	}
	if pushes {
		sh.pass(false,
			func(m *member) ([]rpcio.StageOp, *stage.Stats, bool) {
				return m.ops, nil, len(m.ops) > 0
			},
			func(m *member, res []rpcio.OpResult, _ bool, err error) {
				m.calls = 1
				if op := &m.ops[0]; err == nil && op.Kind == rpcio.OpSetRate && len(res) > 0 && !res[0].Found {
					_, _, err = m.h.Exec([]rpcio.StageOp{{Kind: rpcio.OpApplyRule, Rule: managedRule(m.info.JobID, op.Rate)}}, nil)
					m.calls = 2
				}
				m.err = err
			})
	}
	// Account in member (StageID-sorted) order, so error reports are too.
	for i, m := range sh.members {
		if m.calls > 0 {
			rs.PushCalls += m.calls
			rs.PushOps += len(m.ops) + m.calls - 1 // the batch, and a chasing reinstall
		} else if rules := sh.rules[sh.rowOf[i]]; len(rules) > 0 && rules[0].Rule.ID == ControlRuleID {
			rs.PushesSkipped++
		}
		if m.err != nil && !departed(m.err) {
			c.onError(m.info.StageID, m.err)
		}
	}
}

// collect fans every member's statistics in, one pass, and folds them
// into one row per job (sorted by job), left in sh.rows until the
// shard's next collect. An unchanged member leaves its slot as it is,
// and if the whole shard is unchanged the fold is skipped too. A member
// failure never fails the round: it is reported to the error handler in
// StageID order, counted as FailedStages, and the loop runs on the
// partial snapshot. A member that departed is neither: it is left out
// of its job's row, for the round's sweep to drop. rs accumulates one
// collect call per member.
func (sh *shard) collect(rs *RoundStats) {
	members := sh.members
	sh.pass(true,
		func(m *member) ([]rpcio.StageOp, *stage.Stats, bool) {
			return nil, &m.stats, true
		},
		func(m *member, _ []rpcio.OpResult, changed bool, err error) {
			m.err = err
			m.changed = changed || err != nil
		})

	// Fold in member (StageID-sorted) order, so rows, error reports and
	// counts are too.
	rebuild := !sh.rowsValid
	failed := 0
	for _, m := range members {
		if m.err != nil && !departed(m.err) {
			failed++
			sh.c.onError(m.info.StageID, m.err)
		}
		rebuild = rebuild || m.changed
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
				if !departed(m.err) {
					row.FailedStages++
				}
				continue
			}
			m.ctl, m.hasCtl = row.addStage(&m.stats)
		}
		// Rows with a failed member must rebuild next round: a member
		// whose stage refused (a RemoteError) may answer next round
		// without its stats changing, and a cached row would keep counting
		// it failed. (A wire failure or a departure moves the registry,
		// which rebuilds the shard.)
		sh.rowsValid = failed == 0
	}
	// Not rebuilt: every member answered "unchanged", so last round's
	// rows already describe this round exactly.
}
