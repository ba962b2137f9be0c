// Package stage implements PADLL's data-plane stage (§III-A): the
// per-application-instance component that sits between the application and
// the file-system client, classifies every intercepted POSIX request, and
// rate limits it through per-queue token buckets before it is submitted to
// the PFS.
//
// A stage is organized as multiple queues, each owned by one policy rule:
// queue_1 may handle metadata operations, queue_2 data operations, queue_3
// only open calls, queue_4 requests under /scratch/foo — exactly the
// paper's example. The set of queues and each bucket's rate are installed
// remotely by the control plane.
//
// Concurrency model (see DESIGN.md §7): the classification state is an
// immutable snapshot published through an atomic pointer. Rule-set
// mutations (ApplyRule with a new or re-matched rule, RemoveRule — cold,
// administrator cadence) rebuild the snapshot copy-on-write under s.mu. A
// queue's rate and burst are not part of it: the feedback loop retunes
// them every round (SetRate), so they live on the queue, stored in place,
// and a retune leaves the snapshot — and its classification cache —
// alone. The per-request path
// (Enforce/Offer — hot, every intercepted syscall) classifies against the
// current snapshot and bumps sharded/atomic counters without taking any
// lock. A request under a finite limit whose token is in hand takes it in
// one short critical section on the bucket — the only shared-written
// state the admit path touches; only a request that finds the bucket dry
// blocks, and only inside the token bucket itself.
package stage

import (
	"errors"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"padll/internal/clock"
	"padll/internal/metrics"
	"padll/internal/policy"
	"padll/internal/posix"
	"padll/internal/tokenbucket"
)

// ErrRateLimited is returned by Enforce for requests matched by a
// policing (ActionDrop) rule whose bucket has no token: the request is
// rejected instead of queued, and the application decides whether to
// retry.
var ErrRateLimited = errors.New("stage: rate limited")

// Info identifies a stage to the control plane. Stages report it at
// registration so the controller can orchestrate all stages of the same
// job as a single entity (§III-B).
type Info struct {
	// StageID uniquely names this stage instance.
	StageID string
	// JobID is the scheduler job the application instance belongs to.
	JobID string
	// Hostname is the compute node the stage runs on.
	Hostname string
	// PID is the interposed process.
	PID int
	// User is the submitting user.
	User string
}

// Mode selects the stage's behaviour, matching the paper's evaluation
// setups (§IV methodology).
type Mode int

const (
	// Enforce classifies and rate limits (the "padll" setup).
	Enforce Mode = iota
	// Passthrough classifies and counts but never throttles (the
	// "passthrough" setup used to measure interposition overhead).
	Passthrough
)

// QueueStats is one queue's statistics snapshot, the material the control
// plane collects each feedback-loop iteration.
type QueueStats struct {
	// RuleID names the queue's governing rule.
	RuleID string
	// Limit is the queue's current rate limit (policy.Unlimited if none).
	Limit float64
	// Burst is the bucket capacity.
	Burst float64
	// ThroughputRate is the admission rate over the last completed
	// sampling window (requests/second).
	ThroughputRate float64
	// DemandRate is the arrival rate over the last completed window,
	// before throttling — what the job is asking for.
	DemandRate float64
	// Total is the lifetime admitted count.
	Total int64
	// TotalDemand is the lifetime arrival count.
	TotalDemand int64
	// Dropped is the lifetime count of requests rejected by a policing
	// (drop-action) rule.
	Dropped int64
	// Waiting is the number of requests currently blocked in the queue.
	Waiting int
	// WaitP50, WaitP95 and WaitP99 are percentiles of the queue's shaping
	// wait, in seconds, over every request the bucket admitted. A request
	// that found its token in hand waited 0 — tokens in hand is not a
	// wait — so a queue whose limit never binds reports 0 throughout.
	WaitP50 float64
	WaitP95 float64
	WaitP99 float64
}

// Stats is a full stage snapshot.
type Stats struct {
	Info        Info
	Queues      []QueueStats
	Passthrough int64 // requests forwarded without matching any rule

	// Degraded reports that the stage has lost its controller and is
	// enforcing the last-installed (frozen) limits on its own (§III-C
	// resilience: a dead control plane must not stop enforcement).
	Degraded bool
	// DegradedSeconds is the cumulative time spent degraded, including
	// the current outage when Degraded is true.
	DegradedSeconds float64
}

// entry pairs one rule's classification half — its ID, matcher and
// action, value copies immutable once published — with its queue inside a
// published snapshot. The rule's rate and burst are the queue's (see
// Stage.setLimit): they change without a republish. opDecides caches
// match.OpDecides() so index candidates whose matcher has no
// path/job/user constraint skip the full Matches call.
type entry struct {
	id        string
	match     policy.Matcher
	action    policy.Action
	q         *queue
	opDecides bool
}

// snapshot is the immutable classification state Enforce/Offer run
// against. A new snapshot is built for every rule-set mutation and
// published atomically; readers never see a half-updated rule set.
type snapshot struct {
	// all lists entries in selection (descending-specificity) order.
	all []*entry
	// collect lists the same entries in RuleID order — the order Collect
	// reports in. Sorting here, once per control-plane mutation, keeps
	// the per-round collect path sort-free (sort.Slice allocates its
	// closure and swapper on every call).
	collect []*entry
	// perOp[op] lists the entries whose op/class constraints op can
	// satisfy, in selection order — the hot-path dispatch index.
	perOp [posix.NumOps][]*entry
	// pathFree[op] records that no candidate in perOp[op] constrains the
	// path, so op's classification cannot depend on the directory and
	// its memo keys drop it: a sweep over any number of directories
	// occupies one slot per (op, job, user).
	pathFree [posix.NumOps]bool
	// cache memoizes classification results keyed by (op, job, user,
	// parent directory — "" for pathFree ops). Its generation tag is the snapshot itself:
	// every rule-set mutation publishes a fresh snapshot with a
	// fresh empty cache, so entries are valid exactly as long as the
	// snapshot is the published one — invalidation by construction,
	// with no per-entry version counters on the request path. A rate
	// retune changes no classification and keeps the cache.
	cache [cacheSlots]atomic.Pointer[cacheEntry]
}

// cacheSlots sizes the classification memo (power of two; 512 pointers
// = 4KiB per published snapshot).
const cacheSlots = 512

// cacheEntry is one memoized classification. e == nil records the
// (valid) result "no rule matches requests with this key".
type cacheEntry struct {
	op    posix.Op
	jobID string
	user  string
	dir   string
	e     *entry
}

// dirOf returns p's directory prefix including the trailing slash; ok
// is false for paths with no slash, which are not worth memoizing.
//
//lint:hotpath
func dirOf(p string) (string, bool) {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' {
			return p[:i+1], true
		}
	}
	return "", false
}

// cacheHash is FNV-1a over the classification key.
//
//lint:hotpath
func cacheHash(op posix.Op, jobID, user, dir string) uint32 {
	const prime = 16777619
	h := uint32(2166136261)
	h = (h ^ uint32(op)) * prime
	for i := 0; i < len(jobID); i++ {
		h = (h ^ uint32(jobID[i])) * prime
	}
	h = (h ^ 0xff) * prime
	for i := 0; i < len(user); i++ {
		h = (h ^ uint32(user[i])) * prime
	}
	h = (h ^ 0xff) * prime
	for i := 0; i < len(dir); i++ {
		h = (h ^ uint32(dir[i])) * prime
	}
	return h
}

// classifyCached is classify behind the generation-tagged memo. Rule
// matching depends on the request only through (op, job, user) and the
// path — and the path only through its directory prefix, except when a
// rule's PathPrefix names an entry directly inside that directory
// (Matcher.SplitsDir); such keys are classified directly and never
// memoized. When no candidate rule for the op has a path constraint at
// all (pathFree) the directory cannot matter and the key carries "" in
// its place. A hit is one hash and one atomic load: no lock, no
// allocation, and no rule-list walk.
//
//lint:hotpath
func (sn *snapshot) classifyCached(req *posix.Request) *entry {
	var dir string
	if !req.Op.Valid() || !sn.pathFree[req.Op] {
		var ok bool
		if dir, ok = dirOf(req.Path); !ok {
			return sn.classify(req)
		}
	}
	slot := &sn.cache[cacheHash(req.Op, req.JobID, req.User, dir)&(cacheSlots-1)]
	if ce := slot.Load(); ce != nil &&
		ce.op == req.Op && ce.dir == dir && ce.jobID == req.JobID && ce.user == req.User {
		return ce.e
	}
	return sn.fillCache(slot, req, dir)
}

// fillCache classifies req directly and, when sound, memoizes the
// result into slot. Losing a racing store is fine: both entries are
// derived from this same immutable snapshot.
//
//lint:coldpath one allocation per (snapshot, key); amortized across every subsequent hit
func (sn *snapshot) fillCache(slot *atomic.Pointer[cacheEntry], req *posix.Request, dir string) *entry {
	e := sn.classify(req)
	candidates := sn.all
	if req.Op.Valid() {
		candidates = sn.perOp[req.Op]
	}
	for _, cand := range candidates {
		if cand.match.SplitsDir(dir) {
			return e // two leaves in dir may classify differently
		}
	}
	slot.Store(&cacheEntry{
		op:    req.Op,
		jobID: req.JobID,
		user:  req.User,
		// Clone: dir aliases req.Path, whose backing the caller owns.
		dir: strings.Clone(dir),
		e:   e,
	})
	return e
}

// classify returns the entry of the most specific matching rule, or nil.
func (sn *snapshot) classify(req *posix.Request) *entry {
	if req.Op.Valid() {
		for _, e := range sn.perOp[req.Op] {
			if e.opDecides || e.match.Matches(req) {
				return e
			}
		}
		return nil
	}
	for _, e := range sn.all {
		if e.match.Matches(req) {
			return e
		}
	}
	return nil
}

// Stage is one data-plane stage. It is safe for concurrent use.
type Stage struct {
	info Info
	clk  clock.Clock

	// mode is read on every intercepted request; atomic keeps the hot
	// path lock-free.
	mode atomic.Int32

	// snap is the published classification state; see the package doc.
	snap atomic.Pointer[snapshot]

	// mu guards the control plane's master state (rules, queues) and
	// serializes snapshot rebuilds. Never taken on the request path.
	mu     sync.Mutex
	rules  *policy.RuleSet
	queues map[string]*queue // by rule ID

	// Amortized wall-clock sampling: reading the real clock costs more
	// than the rest of the admit path combined, so the hot path reuses
	// its stripe's last read and refreshes it every clockStride-th
	// request on that stripe — per stripe, so that concurrent callers
	// share no written line. Counter instants may therefore lag by a few
	// requests at a window edge — harmless for wall-clock statistics and
	// for TakeAt, which can only under-refill from a stale instant. nil
	// for simulated clocks, which are always read exactly so experiment
	// runs stay deterministic.
	hotClock *[metrics.Stripes]clockStripe

	// ptRem carries Offer's fractional passthrough credit between ticks.
	ptMu  sync.Mutex
	ptRem float64

	passthrough *metrics.RateCounter
	window      time.Duration

	// Degraded-mode accounting. The flag itself is atomic so Collect and
	// health probes never touch the hot path; the clock bookkeeping is
	// cold (flips only on controller loss/recovery).
	degraded      atomic.Bool
	degMu         sync.Mutex
	degradedSince time.Time
	degradedTotal time.Duration

	// Quiescence tracking: epoch counts control-plane mutations (rule
	// and mode changes, degraded flips), active flags data-plane events
	// since the last collect. The hot path only ever reads active and
	// re-stores it when it finds it false, so in steady state the flag's
	// cache line is shared read-only across cores — no per-request
	// write traffic. Together with per-counter quiet bits (see
	// metrics.RateCounter.CollectAt) they let CollectQuietInto prove
	// "these statistics can no longer change" and mint a token that
	// makes every subsequent collect free; see quietID below.
	epoch  atomic.Uint64
	active atomic.Bool

	// collectMu serializes collects and guards the quiescence ids:
	// quietID is the token of the collect that established the current
	// fixed point (0 = not at a fixed point), quietSeq mints fresh
	// tokens, quietEpoch pins the epoch the token was minted at.
	collectMu  sync.Mutex
	quietID    uint64
	quietSeq   uint64
	quietEpoch uint64
}

// clockStride is how many amortized hot-path clock reads on one stripe
// share one real clock sample (power of two).
const clockStride = 64

// clockStripe is one stripe's amortized clock sample, padded to a cache
// line of its own.
type clockStripe struct {
	tick atomic.Uint64
	nano atomic.Int64
	_    [48]byte
}

type queue struct {
	bucket   *tokenbucket.Bucket
	admitted *metrics.RateCounter
	demand   *metrics.RateCounter
	latency  *metrics.Histogram

	// rate and burst are the governing rule's current limit and
	// configured burst (float64 bits), stored in place by setLimit. The
	// admit path reads only rate, and only to test it against
	// policy.Unlimited; Collect reads the pair under collectMu, which
	// setLimit also holds, so it never reports halves of two retunes.
	rate  atomic.Uint64
	burst atomic.Uint64

	// Everything above is written at control-plane cadence and read by
	// every request; a full line of padding keeps it, at any alignment
	// of the struct, off the line that requests which drop or wait
	// write below.
	_ [64]byte

	// dropped and waiting are the only bookkeeping not derivable from
	// the rate counters; plain atomics keep the request path lock-free.
	// Lifetime admitted/arrival totals are served by the counters
	// themselves (every admission/arrival increments exactly one).
	dropped atomic.Int64
	waiting atomic.Int64

	// offerMu guards the fluid-admission fractional remainders. It is
	// only taken by Offer (the simulator's tick path) and never held
	// across a blocking call.
	offerMu sync.Mutex
	demRem  float64
	admRem  float64
}

// Option configures a Stage.
type Option func(*Stage)

// WithWindow sets the statistics sampling window (default 1s).
func WithWindow(d time.Duration) Option {
	return func(s *Stage) { s.window = d }
}

// WithMode sets the initial mode (default Enforce).
func WithMode(m Mode) Option {
	return func(s *Stage) { s.mode.Store(int32(m)) }
}

// New returns a stage with no rules: every request passes through
// unthrottled until the control plane installs rules.
func New(info Info, clk clock.Clock, opts ...Option) *Stage {
	s := &Stage{
		info:   info,
		clk:    clk,
		rules:  policy.NewRuleSet(),
		queues: make(map[string]*queue),
		window: time.Second,
	}
	if _, ok := clk.(clock.Real); ok {
		s.hotClock = new([metrics.Stripes]clockStripe)
	}
	for _, o := range opts {
		o(s)
	}
	s.passthrough = s.newCounter("passthrough")
	s.snap.Store(&snapshot{})
	return s
}

// newCounter returns a window counter that keeps its last sample only. A
// stage reads a counter's total and last window's rate (Collect), never
// its series, and lives for as long as its job does: unbounded, every
// counter would grow by one point per window for nothing.
func (s *Stage) newCounter(name string) *metrics.RateCounter {
	rc := metrics.NewRateCounter(name, s.clk, s.window)
	rc.SetMaxSamples(1)
	return rc
}

// hotNow returns the instant hot-path counters stamp events with. For
// simulated clocks this is always the exact clock read (determinism);
// for the real clock it is the calling stripe's amortized sample,
// refreshed on the stripe's first call and every clockStride-th after.
//
//lint:hotpath
func (s *Stage) hotNow() time.Time {
	if s.hotClock == nil {
		return s.clk.Now() //lint:allow hotpathcheck simulated clocks are read exactly; the real clock takes the amortized branch below
	}
	c := &s.hotClock[metrics.StripeIndex()]
	if c.tick.Add(1)&(clockStride-1) == 1 {
		now := s.clk.Now()
		c.nano.Store(now.UnixNano())
		return now
	}
	return time.Unix(0, c.nano.Load())
}

// Info returns the stage's identity.
func (s *Stage) Info() Info { return s.info }

// markActive records that a data-plane event mutated the statistics.
// Called at the END of each hot-path branch, after every counter the
// branch touches, so a collector that observed active==false before
// reading counters either saw all of an op's effects or will see
// active==true on its next check. The load-before-store keeps the
// steady state read-only: only the first event after a collect writes
// the line.
//
//lint:hotpath
func (s *Stage) markActive() {
	if !s.active.Load() {
		s.active.Store(true)
	}
}

// SetMode switches between Enforce and Passthrough.
func (s *Stage) SetMode(m Mode) {
	s.mode.Store(int32(m))
	s.epoch.Add(1)
}

// Mode returns the current mode.
func (s *Stage) Mode() Mode { return Mode(s.mode.Load()) }

// publishLocked rebuilds the immutable snapshot from the master rule set
// and queue map and publishes it. Caller holds s.mu.
func (s *Stage) publishLocked() {
	rules := s.rules.Rules() // selection order
	sn := &snapshot{}
	for i := range rules {
		q, ok := s.queues[rules[i].ID]
		if !ok {
			continue // unreachable: every rule gets a queue on install
		}
		r := &rules[i]
		e := &entry{id: r.ID, match: r.Match, action: r.Action, q: q, opDecides: r.Match.OpDecides()}
		sn.all = append(sn.all, e)
	}
	sn.collect = append(sn.collect, sn.all...)
	sort.Slice(sn.collect, func(i, j int) bool { return sn.collect[i].id < sn.collect[j].id })
	for op := 0; op < posix.NumOps; op++ {
		sn.pathFree[op] = true
		for _, e := range sn.all {
			if e.match.CouldMatchOp(posix.Op(op)) {
				sn.perOp[op] = append(sn.perOp[op], e)
				if e.match.PathPrefix != "" {
					sn.pathFree[op] = false
				}
			}
		}
	}
	s.snap.Store(sn)
	// Bumped after the mutation lands: a concurrent collect that read
	// the old epoch re-collects next round.
	s.epoch.Add(1)
}

// setLimit retunes q to rate and the configured burst (0 = the default
// sizing; see policy.EffectiveBurst) in place: the bucket — whose
// waiters wake to recompute or, on a retune to Unlimited, leave — then
// the pair the admit path and Collect read. A request racing the two
// steps is admitted under the old limit or the new one, as it was when
// it raced a snapshot swap. Nothing is allocated and the snapshot is
// untouched. Caller holds s.mu and bumps the epoch.
func (s *Stage) setLimit(q *queue, rate, burst float64) {
	if rate == policy.Unlimited {
		q.bucket.Set(tokenbucket.Infinite, tokenbucket.Infinite)
	} else {
		q.bucket.Set(rate, policy.EffectiveBurst(rate, burst))
	}
	s.collectMu.Lock()
	q.rate.Store(math.Float64bits(rate))
	q.burst.Store(math.Float64bits(burst))
	s.collectMu.Unlock()
}

// limit is the queue's current rate, for the admit path's unlimited
// test.
//
//lint:hotpath
func (q *queue) limit() float64 { return math.Float64frombits(q.rate.Load()) }

// ApplyRule installs or updates a rule and its queue. Updating an
// existing rule retunes the live bucket without disturbing waiters, and
// when only the rate or burst changed it is a retune and nothing more:
// the snapshot is republished only if the matcher or action moved.
func (s *Stage) ApplyRule(r policy.Rule) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if q, ok := s.queues[r.ID]; ok {
		s.setLimit(q, r.Rate, r.Burst)
		if s.rules.Retune(r) {
			s.epoch.Add(1)
			return
		}
		s.rules.Upsert(r)
		s.publishLocked()
		return
	}
	s.rules.Upsert(r)
	var b *tokenbucket.Bucket
	if r.Rate == policy.Unlimited {
		b = tokenbucket.NewUnlimited(s.clk)
	} else {
		b = tokenbucket.New(s.clk, r.Rate, r.EffectiveBurst())
	}
	q := &queue{
		bucket:   b,
		admitted: s.newCounter("admitted:" + r.ID),
		demand:   s.newCounter("demand:" + r.ID),
		latency:  metrics.NewLatencyHistogram(),
	}
	q.rate.Store(math.Float64bits(r.Rate))
	q.burst.Store(math.Float64bits(r.Burst))
	s.queues[r.ID] = q
	s.publishLocked()
}

// RemoveRule deletes a rule; its queue's waiters are released unthrottled
// (the conservative failure mode: never wedge an application).
func (s *Stage) RemoveRule(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.rules.Remove(id) {
		return false
	}
	if q, ok := s.queues[id]; ok {
		q.bucket.Set(tokenbucket.Infinite, tokenbucket.Infinite)
		delete(s.queues, id)
	}
	s.publishLocked()
	return true
}

// SetRate retunes one queue's rate in place; used by the control plane's
// feedback loop, which adjusts rates far more often than it changes the
// rule structure. It allocates nothing and republishes nothing: the
// snapshot and its classification cache survive control rounds.
func (s *Stage) SetRate(ruleID string, rate float64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, ok := s.queues[ruleID]
	if !ok {
		return false
	}
	s.rules.SetRate(ruleID, rate)
	s.setLimit(q, rate, math.Float64frombits(q.burst.Load()))
	s.epoch.Add(1)
	return true
}

// Enforce classifies req and blocks until its queue's token bucket admits
// it. Requests matching no rule, and all requests in Passthrough mode,
// return immediately. The admit path writes no shared state of the
// stage's own: classification reads the published snapshot, and counters,
// the zero-wait record and the amortized clock are per-stripe cells. Under
// a finite limit the bucket's own critical section is the one shared
// write, and only a request that finds the bucket dry goes on to block.
//
//lint:hotpath
func (s *Stage) Enforce(req *posix.Request) error {
	e := s.snap.Load().classifyCached(req)
	if e == nil {
		s.passthrough.AddAt(1, s.hotNow())
		s.markActive()
		return nil
	}
	q := e.q

	if Mode(s.mode.Load()) == Passthrough || q.limit() == policy.Unlimited {
		// Fast path: one clock read feeds both counters.
		now := s.hotNow()
		q.demand.AddAt(1, now)
		q.admitted.AddAt(1, now)
		s.markActive()
		return nil
	}

	// Policing: reject immediately instead of queueing.
	if e.action == policy.ActionDrop {
		now := s.hotNow()
		q.demand.AddAt(1, now)
		if q.bucket.TryTake(1) {
			q.admitted.AddAt(1, now)
			s.markActive()
			return nil
		}
		q.dropped.Add(1)
		s.markActive()
		return ErrRateLimited
	}

	// Shaping, token in hand: nothing to wait for, so nothing to time —
	// one instant stamps both counters and the wait is recorded as zero,
	// which is what the exact path below measures on a simulated clock
	// (end == start). A stale amortized instant can only under-refill the
	// bucket and send the request down the exact path.
	now := s.hotNow()
	if q.bucket.TakeAt(1, now) {
		q.demand.AddAt(1, now)
		q.admitted.AddAt(1, now)
		q.latency.ObserveZero()
		s.markActive()
		return nil
	}

	// Shaping, bucket dry: block in it. Exact clock reads here — the wait
	// duration is a reported statistic, and simulated-clock waiters must
	// interleave deterministically with the sim's event loop.
	start := s.clk.Now() //lint:allow hotpathcheck the request is about to block; its wait is timed exactly
	q.demand.AddAt(1, start)
	q.waiting.Add(1)
	// Raise the flag at arrival, not just at release: the wait below can
	// outlast many collect rounds, and the queued demand must not hide
	// behind a quiescence token the whole time.
	s.markActive()
	err := q.bucket.Wait(1)
	q.waiting.Add(-1)
	if err != nil {
		s.markActive()
		return err
	}
	end := s.clk.Now() //lint:allow hotpathcheck the request has just blocked; its wait is timed exactly
	q.latency.Observe(end.Sub(start))
	q.admitted.AddAt(1, end)
	s.markActive()
	return nil
}

// carry folds v into the remainder rem, returning the whole events to
// record now; the fractional part stays in rem for the next tick.
func carry(rem *float64, v float64) int64 {
	t := *rem + v
	n := int64(t)
	*rem = t - float64(n)
	return n
}

// Offer is the fluid-admission path for the discrete-tick simulator:
// n requests shaped like req arrive over a window dt; the number admitted
// under the matching queue's bucket is returned, the remainder is the
// caller's backlog. Unmatched requests and Passthrough mode admit
// everything. Offer always shapes: the fluid model has no per-request
// failure channel, so a rule's Drop action only applies on the blocking
// Enforce path.
//
// Fractional arrivals/admissions are accumulated per queue and counted
// once they sum to whole events, so long simulated runs don't undercount
// demand or throughput.
func (s *Stage) Offer(req *posix.Request, n float64, dt time.Duration) float64 {
	if n <= 0 {
		return 0
	}
	e := s.snap.Load().classifyCached(req)
	if e == nil {
		s.ptMu.Lock()
		add := carry(&s.ptRem, n)
		s.ptMu.Unlock()
		s.passthrough.AddAt(add, s.hotNow())
		s.markActive()
		return n
	}
	q := e.q
	now := s.hotNow()
	q.offerMu.Lock()
	demN := carry(&q.demRem, n)
	q.offerMu.Unlock()
	q.demand.AddAt(demN, now)
	var served float64
	if Mode(s.mode.Load()) == Passthrough || q.limit() == policy.Unlimited {
		served = n
	} else {
		served = q.bucket.Grant(n, dt)
	}
	q.offerMu.Lock()
	admN := carry(&q.admRem, served)
	q.offerMu.Unlock()
	q.admitted.AddAt(admN, now)
	s.markActive()
	return served
}

// Collect snapshots all queue statistics (feedback-loop step 1).
//
// Counters are read in invariant-preserving order: a request increments
// demand before admitted/dropped, so reading admitted and dropped before
// demand guarantees Total + Dropped ≤ TotalDemand even while enforcers
// run concurrently.
func (s *Stage) Collect() Stats {
	var out Stats
	s.CollectInto(&out)
	return out
}

// CollectInto is Collect with caller-owned storage: out's Queues backing
// array is reused when its capacity suffices, so a control service that
// snapshots every feedback interval holds one buffer at steady state
// instead of allocating a fresh slice per round. All other fields of out
// are overwritten.
func (s *Stage) CollectInto(out *Stats) {
	s.CollectQuietInto(out)
}

// CollectQuietInto is CollectInto additionally reporting a quiescence
// token. A non-zero token proves the written statistics are at a fixed
// point: every queue's rates have decayed to zero with nothing pending
// in an open window, no waiters are in flight, and the stage is not
// degraded — so absent new data-plane events or control mutations, any
// future collect returns byte-identical statistics. QuietSince(token)
// checks that proof still holds, which is what lets a control service
// answer a steady-state collect without touching a single counter: a
// fleet's collect cost becomes proportional to its activity, not its
// size. Token 0 means no such proof.
func (s *Stage) CollectQuietInto(out *Stats) uint64 {
	s.collectMu.Lock()
	defer s.collectMu.Unlock()
	e0 := s.epoch.Load()
	// Swallow the activity flag before reading any counter: an event
	// marking itself active does so after its counter adds, so an event
	// missed by the reads below is guaranteed to re-raise the flag.
	wasActive := s.active.Swap(false)
	sn := s.snap.Load()
	now := s.clk.Now() // one clock read shared by every counter below
	out.Info = s.info
	out.Queues = out.Queues[:0]
	out.Passthrough = s.passthrough.Total()
	out.Degraded = s.degraded.Load()
	out.DegradedSeconds = s.DegradedFor().Seconds()
	// Degraded time keeps growing while the flag is up, so a degraded
	// stage is never quiet. The passthrough counter needs no quiet bit:
	// its rate is not reported, and its total only moves on adds, which
	// raise the active flag.
	quiet := !out.Degraded
	for _, e := range sn.collect {
		q := e.q
		totalAdm, thrRate, admQuiet := q.admitted.CollectAt(now)
		dropped := q.dropped.Load()
		totalDem, demRate, demQuiet := q.demand.CollectAt(now)
		p50, p95, p99 := q.latency.Quantiles3(0.50, 0.95, 0.99)
		waiting := int(q.waiting.Load())
		// In-flight waiters will observe a latency sample and an
		// admission on release, with no new arrival to signal it.
		quiet = quiet && admQuiet && demQuiet && waiting == 0
		// collectMu is held, so the pair is one retune's (see setLimit).
		limit := q.limit()
		out.Queues = append(out.Queues, QueueStats{
			RuleID:         e.id,
			Limit:          limit,
			Burst:          policy.EffectiveBurst(limit, math.Float64frombits(q.burst.Load())),
			ThroughputRate: thrRate,
			DemandRate:     demRate,
			Total:          totalAdm,
			TotalDemand:    totalDem,
			Dropped:        dropped,
			Waiting:        waiting,
			WaitP50:        p50,
			WaitP95:        p95,
			WaitP99:        p99,
		})
	}
	if s.epoch.Load() != e0 {
		// A rule/mode/degraded mutation raced the reads above; the
		// snapshot may straddle it.
		quiet = false
	}
	if !quiet {
		s.quietID = 0
		return 0
	}
	if wasActive || s.quietID == 0 || s.quietEpoch != e0 {
		// The statistics may differ from the ones the previous token
		// vouched for, so holders of that token must not skip: mint a
		// fresh one.
		s.quietSeq++
		s.quietID = s.quietSeq
		s.quietEpoch = e0
	}
	return s.quietID
}

// QuietSince reports whether the stage's statistics are provably
// unchanged since the CollectQuietInto call that returned token.
func (s *Stage) QuietSince(token uint64) bool {
	if token == 0 || s.active.Load() {
		return false
	}
	s.collectMu.Lock()
	ok := token == s.quietID && s.quietEpoch == s.epoch.Load()
	s.collectMu.Unlock()
	return ok
}

// SetDegraded flips the stage's degraded state (controller lost /
// controller back). Rules and rates are untouched: a degraded stage
// keeps enforcing the frozen limits, the flag only surfaces the outage
// through Collect and health probes. It reports whether the state
// changed.
func (s *Stage) SetDegraded(degraded bool) bool {
	s.degMu.Lock()
	defer s.degMu.Unlock()
	if s.degraded.Load() == degraded {
		return false
	}
	now := s.clk.Now()
	if degraded {
		s.degradedSince = now
	} else {
		s.degradedTotal += now.Sub(s.degradedSince)
		s.degradedSince = time.Time{}
	}
	s.degraded.Store(degraded)
	s.epoch.Add(1)
	return true
}

// Degraded reports whether the stage is currently running without a
// controller.
func (s *Stage) Degraded() bool { return s.degraded.Load() }

// DegradedFor returns the cumulative time spent degraded, including the
// current outage when the stage is degraded now.
func (s *Stage) DegradedFor() time.Duration {
	s.degMu.Lock()
	defer s.degMu.Unlock()
	total := s.degradedTotal
	if !s.degradedSince.IsZero() {
		total += s.clk.Now().Sub(s.degradedSince)
	}
	return total
}

// Rules returns the installed rules in selection order.
func (s *Stage) Rules() []policy.Rule {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rules.Rules()
}

// Close releases all queue waiters (stage shutdown).
func (s *Stage) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, q := range s.queues {
		q.bucket.Close()
	}
}
