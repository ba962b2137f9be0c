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
// slot and its probe for as long as the record stays registered.
type member struct {
	info stage.Info
	h    *rpcio.StageHandle
	// stats is the member's collect slot and h's merged snapshot: only
	// h's exchanges write it, each collect merging its reply in place,
	// so an unchanged member costs no write at all.
	stats stage.Stats
	// probe is what the latest collect learned about the managed queue.
	probe stageProbe
	// err, changed and calls are the outcome of the pass in flight:
	// the exchange's error, whether the collect rewrote stats (or
	// failed), and the push round trips spent.
	err     error
	changed bool
	calls   int
	// push is the operation the push in flight sends the member (none:
	// the zero op), kept here so starting it allocates nothing; started
	// marks an exchange of the pass in flight begun and not yet finished.
	push    [1]rpcio.StageOp
	started bool
}

// departed reports whether an exchange's error is the stage's departure
// (rpcio.ErrDeparted): no failure, and the round's sweep drops it.
func departed(err error) bool { return errors.Is(err, rpcio.ErrDeparted) }

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

// A collect's scatter is split min(GOMAXPROCS, maxScatter,
// members/scatterChunk) ways. On fleet_rounds over two vCPUs a two-way
// split took overhead_ratio from 1.31 to 1.10 at 256 TCP stages and from
// 1.57 to 1.22 at 64; at one P a forced one cost 2–3 %. Smaller fleets
// and wider splits are unmeasured (an older sweep of per-range workers
// read worse at 8 than at 2), so neither is split.
const scatterChunk, maxScatter = 32, 2

// passArgs names what member m sends in a pass (ok false: nothing).
type passArgs func(m *member) (ops []rpcio.StageOp, dst *stage.Stats, ok bool)

func sortMembers(ms []*member) {
	sort.Slice(ms, func(i, j int) bool { return ms[i].info.StageID < ms[j].info.StageID })
}

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
	// The controller's error handler, copied at construction.
	onError func(stageID string, err error)

	members  []*member // StageID-sorted: the deterministic fan-out order
	rowOf    []int     // member index -> index into jobs
	jobs     []string  // distinct member jobs, sorted
	jobCount []int     // member count per jobs[i]

	// Per-job scratch, one entry per jobs[i].
	rates     []float64 // target member rate this round
	hasRate   []bool
	rows      []JobSnapshot // the latest collect's fold
	rowsValid bool          // rows still describe the members' current stats

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
		onError: c.onError,
		members: members,
		rowOf:   make([]int, len(members)),
	}
	keys := make([]string, len(members))
	for i, m := range members {
		keys[i] = m.info.JobID
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
	sh.split(max(1, min(runtime.GOMAXPROCS(0), maxScatter, len(members)/scatterChunk)))
	return sh
}

// count is the number of members serving job.
func (sh *shard) count(job string) int {
	if i := sort.SearchStrings(sh.jobs, job); i < len(sh.jobs) && sh.jobs[i] == job {
		return sh.jobCount[i]
	}
	return 0
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

// push brings every member of an allocated job to its share of the
// job's allocation in alloc, divided equally among the job's members,
// with pushOp's operation — none when its latest probe shows the rate
// enforced, the managed rule reinstalled where it vanished, and a retune
// that finds the queue gone (a restart raced the probe) chased by a
// reinstall. It is one pass: scatter, then gather. A member failure
// never fails the round: it is reported to the error handler in StageID
// order and left in the member's err for the sweep. rs accumulates push round
// trips and skips per member of an allocated job.
func (sh *shard) push(alloc map[string]float64, rs *RoundStats) {
	rates, hasRate := sh.rates, sh.hasRate
	for j, job := range sh.jobs {
		rate, ok := alloc[job]
		rates[j], hasRate[j] = rate/float64(sh.jobCount[j]), ok
	}
	pushes := false
	for i, m := range sh.members {
		m.err, m.calls, m.push[0] = nil, 0, rpcio.StageOp{}
		if j := sh.rowOf[i]; hasRate[j] {
			m.push[0] = pushOp(m.probe, managedRule(sh.jobs[j], rates[j]))
			pushes = pushes || m.push[0].Kind != 0
		}
	}
	if pushes {
		sh.pass(false,
			func(m *member) ([]rpcio.StageOp, *stage.Stats, bool) {
				return m.push[:], nil, m.push[0].Kind != 0
			},
			func(m *member, res []rpcio.OpResult, _ bool, err error) {
				m.calls = 1
				if op := m.push[0]; err == nil && op.Kind == rpcio.OpSetRate && len(res) == 1 && !res[0].Found {
					m.push[0] = rpcio.StageOp{Kind: rpcio.OpApplyRule, Rule: managedRule(m.info.JobID, op.Rate)}
					_, _, err = m.h.Exec(m.push[:], nil)
					m.calls = 2
				}
				m.err = err
			})
	}
	// Account in member (StageID-sorted) order, so error reports are too.
	for i, m := range sh.members {
		if hasRate[sh.rowOf[i]] {
			rs.PushCalls += m.calls
			rs.PushOps += m.calls // every push round trip is a one-op batch
			if m.calls == 0 {
				rs.PushesSkipped++
			}
		}
		if m.err != nil && !departed(m.err) {
			sh.onError(m.info.StageID, m.err)
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
			sh.onError(m.info.StageID, m.err)
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
				m.probe = stageProbe{}
				if !departed(m.err) {
					row.FailedStages++
				}
				continue
			}
			m.probe = row.addStage(&m.stats)
		}
		// Rows with a failed member must rebuild next round: a member
		// whose stage refused (a RemoteError) may answer next round
		// without its stats changing, and a cached row would keep counting
		// it failed. (A wire failure or a departure moves the registry,
		// which rebuilds the shard.)
		sh.rowsValid = failed == 0
	}
	// Not rebuilt: every member answered "unchanged", so last round's
	// rows (and probes) already describe this round exactly.
}
