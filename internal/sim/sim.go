// Package sim is the simulated cluster the experiments and the chaos
// scenarios run on: jobs replaying metadata traces through their own
// data-plane stages, the PADLL control plane and optionally the
// simulated PFS, on a simulated clock, so the paper's 45-minute
// scenarios (§IV) run in milliseconds on the code a live deployment
// uses. It injects the control-plane failures of DESIGN §8 (controller
// crashes, stage crashes, partitions, lost reply frames) and logs every
// observable transition, so two runs of a scenario agree byte for byte.
//
// The engine is a fluid simulation with a fixed step of one Interval.
// The step at instant T runs, in order:
//
//  1. the demand step: each active job integrates its trace over
//     (T−Interval, T] and offers it, plus its backlog, to its stages'
//     token buckets (an attached PFS pushes back what the MDS cannot
//     serve), so backlogs drain as in Fig. 4 and makespans stretch as
//     in Fig. 5;
//  2. the events due at T (see Schedule);
//  3. every live stage's heartbeat;
//  4. the control round, unless the controller is down;
//  5. the arrivals due at T, and a round that starts them at their
//     share.
package sim

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"padll/internal/clock"
	"padll/internal/control"
	"padll/internal/metrics"
	"padll/internal/pfs"
	"padll/internal/posix"
	"padll/internal/rpcio"
	"padll/internal/stage"
	"padll/internal/trace"
)

// Interval is the simulation step and the feedback loop's period: the
// controller runs one round, and every stage one heartbeat, per step.
const Interval = time.Second

// Injected faults surface to the controller as these errors; a lost
// reply is an exchange the stage applied but never acknowledged.
var (
	errUnreachable    = errors.New("chaos: peer unreachable")
	errControllerDown = errors.New("chaos: controller is down")
	errReplyLost      = errors.New("chaos: reply frame lost")
)

// JobSpec describes one job in a scenario.
type JobSpec struct {
	// ID is the scheduler job ID.
	ID string
	// User owns the job.
	User string
	// Arrival is when the job enters the system (experiment time).
	Arrival time.Duration
	// Trace is the workload to replay (rates already scaled as desired).
	Trace *trace.Trace
	// Accel compresses trace time: trace time = experiment time * Accel
	// (60 in the paper's methodology). Default 60.
	Accel float64
	// Stages is the number of compute nodes (data-plane stages) the job
	// spans. Default 1.
	Stages int
	// Reservation is the job's reserved/priority rate for control
	// algorithms that use it.
	Reservation float64
}

// Config parameterizes a scenario run.
type Config struct {
	// Duration bounds the run (default: until all jobs finish).
	Duration time.Duration
	// Controller, when non-nil, is what the cluster builds its controller
	// from, at the start and at every RestartController. It registers job
	// stages on arrival and deregisters them on completion.
	Controller []control.Option
	// PFS, when set, receives all admitted metadata load (in weighted
	// cost units); load the MDS cannot serve is pushed back into job
	// backlogs, modelling a saturated metadata service.
	PFS *pfs.PFS
	// StageMode is the stages' interposition mode (Enforce by default;
	// Passthrough reproduces the overhead setup).
	StageMode stage.Mode
}

type event struct {
	at   time.Duration
	name string
	do   func(*Cluster)
}

// Cluster is one scenario instance.
type Cluster struct {
	cfg                   Config
	clk                   *clock.Sim
	start                 time.Time
	jobs                  []*job
	nodes                 []*Node // sorted by ID: the heartbeat order
	events                []event
	next                  int // the first event not yet fired
	ticks, saturatedTicks int // PFS saturation accounting

	ctl          *control.Controller
	reservations map[string]float64 // what a restarted controller boots with
	down         bool
	// pushBudget < 0 disarms the mid-round crash; otherwise the
	// controller dies after that many further successful rate pushes.
	pushBudget atomic.Int64
	log        bytes.Buffer
}

// job is the runtime state of a JobSpec.
type job struct {
	spec      JobSpec
	nodes     []*Node
	pending   map[posix.Op]float64 // backlog per op
	traceDone bool                 // the trace curve is fully integrated
	// finished marks trace done and backlog drained.
	finished    bool
	finishedAt  time.Duration
	arrived     bool
	perOpSeries map[posix.Op]*metrics.Series
	totalSeries *metrics.Series
	demanded    float64
	admitted    float64
}

// Node is one simulated stage plus the faults armed on it.
type Node struct {
	ID, Job string
	Stg     *stage.Stage
	// Handle is the controller's channel to the stage since its latest
	// registration: the frame transport in process, under the cluster's
	// fault gate (open while none is armed).
	Handle *rpcio.StageHandle

	svc                             *rpcio.StageService
	job                             *job
	dropReply, partitioned, crashed atomic.Bool
	collectBudget                   atomic.Int64 // as pushBudget, for a stage crash
}

// Crashed reports whether the node's stage has died.
func (n *Node) Crashed() bool { return n.crashed.Load() }

// Report is a completed run's output.
type Report struct {
	// PerJob maps job ID to its admitted-throughput series (ops/s per tick).
	PerJob map[string]*metrics.Series
	// PerJobOp maps job ID and op to admitted series.
	PerJobOp map[string]map[posix.Op]*metrics.Series
	// Aggregate is the cluster-wide admitted throughput.
	Aggregate *metrics.Series
	// Completion maps job ID to its completion (experiment) time; jobs
	// still unfinished at the horizon are absent.
	Completion map[string]time.Duration
	// Elapsed is the experiment time simulated.
	Elapsed time.Duration
	// TotalDemanded and TotalAdmitted count operations across jobs.
	TotalDemanded float64
	TotalAdmitted float64
	// PFSStats is the backend's view when a PFS was attached.
	PFSStats *pfs.Stats
	// PFSSaturatedFrac is the fraction of ticks the MDS spent saturated
	// (no spare service capacity) when a PFS was attached.
	PFSSaturatedFrac float64
}

// epoch is an arbitrary fixed simulation start instant.
var epoch = time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC)

// NewCluster builds a scenario.
func NewCluster(cfg Config) *Cluster {
	c := &Cluster{cfg: cfg, clk: clock.NewSim(epoch), start: epoch, reservations: map[string]float64{}}
	c.pushBudget.Store(-1)
	if cfg.Controller != nil {
		c.ctl = c.newController()
	}
	return c
}

func (c *Cluster) newController() *control.Controller {
	ctl := control.New(c.clk, append(slices.Clip(c.cfg.Controller), control.WithErrorHandler(func(id string, err error) {
		if errors.Is(err, control.ErrEvicted) {
			c.logf("stage %s evicted by controller", id)
			return
		}
		c.logf("stage %s control error: %v", id, err)
	}))...)
	for job, rate := range c.reservations {
		ctl.SetReservation(job, rate)
	}
	return ctl
}

// Clock exposes the simulation clock (stages created by AddJob use it).
func (c *Cluster) Clock() *clock.Sim { return c.clk }

// Controller returns the live controller (a new one after each restart;
// nil without Config.Controller).
func (c *Cluster) Controller() *control.Controller { return c.ctl }

// AttachPFS installs a backend built on the cluster's clock after
// construction (the PFS needs the Sim clock, which NewCluster creates).
func (c *Cluster) AttachPFS(backend *pfs.PFS) { c.cfg.PFS = backend }

// AddJob registers a job spec before Run.
func (c *Cluster) AddJob(spec JobSpec) {
	if spec.Accel <= 0 {
		spec.Accel = 60
	}
	if spec.Stages <= 0 {
		spec.Stages = 1
	}
	j := c.newJob(spec)
	for _, op := range spec.Trace.Ops {
		j.perOpSeries[op] = metrics.NewSeries(fmt.Sprintf("%s:%s", spec.ID, op))
	}
	for s := 0; s < spec.Stages; s++ {
		c.newNode(j, stage.Info{
			StageID:  fmt.Sprintf("%s-stage%d", spec.ID, s),
			JobID:    spec.ID,
			Hostname: fmt.Sprintf("node-%s-%d", spec.ID, s),
			PID:      1000 + (len(c.jobs)-1)*10 + s,
			User:     spec.User,
		})
	}
}

// AddStage adds a stage named id to job, a job without a trace: its
// stages see only the demand events offer them, and it never finishes.
// The stage registers at once; reservation is the job's reserved rate.
func (c *Cluster) AddStage(id, job string, reservation float64) *Node {
	j := c.jobOf(job)
	if j == nil {
		j = c.newJob(JobSpec{ID: job})
		j.arrived = true
	}
	n := c.newNode(j, stage.Info{StageID: id, JobID: job})
	c.reserve(job, reservation)
	c.join(n)
	return n
}

func (c *Cluster) newJob(spec JobSpec) *job {
	j := &job{
		spec:        spec,
		pending:     make(map[posix.Op]float64),
		perOpSeries: make(map[posix.Op]*metrics.Series),
		totalSeries: metrics.NewSeries(spec.ID),
	}
	c.jobs = append(c.jobs, j)
	return j
}

func (c *Cluster) newNode(j *job, info stage.Info) *Node {
	n := &Node{ID: info.StageID, Job: info.JobID, Stg: stage.New(info, c.clk, stage.WithMode(c.cfg.StageMode)), job: j}
	n.svc = rpcio.NewStageService(n.Stg)
	n.collectBudget.Store(-1)
	j.nodes = append(j.nodes, n)
	c.nodes = append(c.nodes, n)
	sort.SliceStable(c.nodes, func(a, b int) bool { return c.nodes[a].ID < c.nodes[b].ID })
	return n
}

func (c *Cluster) jobOf(id string) *job {
	for _, j := range c.jobs {
		if j.spec.ID == id {
			return j
		}
	}
	return nil
}

// StagesOf returns a job's stages (for scenario events that install rules
// directly, e.g. Fig. 4's per-operation static limits).
func (c *Cluster) StagesOf(jobID string) []*stage.Stage {
	var out []*stage.Stage
	if j := c.jobOf(jobID); j != nil {
		for _, n := range j.nodes {
			out = append(out, n.Stg)
		}
	}
	return out
}

// Node returns a stage node by ID (nil when absent).
func (c *Cluster) Node(id string) *Node {
	if i := slices.IndexFunc(c.nodes, func(n *Node) bool { return n.ID == id }); i >= 0 {
		return c.nodes[i]
	}
	return nil
}

// Schedule registers an event before Run: do runs with the clock at at,
// and a non-empty name is logged when it fires. An event due at the
// instant of a step runs after the step's demand integration and before
// its heartbeats and round, so the round sees what the event changed; a
// probe that must see what the round at T did is scheduled between
// steps, at T+Interval/2. Events due at one instant run in the order
// they were scheduled.
func (c *Cluster) Schedule(at time.Duration, name string, do func(c *Cluster)) {
	c.events = append(c.events, event{at: at, name: name, do: do})
}

// Log returns the event log so far.
func (c *Cluster) Log() string { return c.log.String() }

func (c *Cluster) logf(format string, args ...any) {
	fmt.Fprintf(&c.log, "t=+%-8v %s\n", c.clk.Now().Sub(c.start), fmt.Sprintf(format, args...))
}

// CrashController kills the controller: no round runs and every exchange
// fails until RestartController; stages degrade at their next heartbeat.
func (c *Cluster) CrashController() {
	c.down = true
	c.logf("controller crashed")
}

// RestartController boots a fresh controller: empty registry,
// reservations restored. Degraded stages re-register at their next
// heartbeat, which replays their rules.
func (c *Cluster) RestartController() {
	c.ctl = c.newController()
	c.down = false
	c.pushBudget.Store(-1)
	c.logf("controller restarted (empty registry)")
}

// SetReservation changes a job's reserved rate, both on the live
// controller and in the table a restarted controller boots from.
func (c *Cluster) SetReservation(job string, rate float64) {
	c.reserve(job, rate)
	c.logf("job %s reservation set to %.0f", job, rate)
}

func (c *Cluster) reserve(job string, rate float64) {
	c.reservations[job] = rate
	if c.ctl != nil {
		c.ctl.SetReservation(job, rate)
	}
}

// ArmMidRoundCrash makes the controller die after n more successful rate
// pushes: partway through a push phase, some stages have the new rates
// and others still enforce the old ones.
func (c *Cluster) ArmMidRoundCrash(n int) {
	c.pushBudget.Store(int64(n))
	c.logf("controller armed to crash after %d pushes", n)
}

// Partition cuts a stage off from the controller in both directions.
func (c *Cluster) Partition(id string) {
	c.Node(id).partitioned.Store(true)
	c.logf("stage %s partitioned", id)
}

// Heal reconnects a partitioned stage.
func (c *Cluster) Heal(id string) {
	c.Node(id).partitioned.Store(false)
	c.logf("stage %s healed", id)
}

// ArmStageCrashAfterCollects makes a stage die for good after n more
// successful collects: a crash in the middle of the collect fan-out.
func (c *Cluster) ArmStageCrashAfterCollects(id string, n int) {
	c.Node(id).collectBudget.Store(int64(n))
	c.logf("stage %s armed to crash after %d collects", id, n)
}

// DropNextBatchReply loses a stage's next Stage.Batch reply frame after
// the stage applied the exchange: its rules and delta generation move on
// unacknowledged, and the delta protocol must resync.
func (c *Cluster) DropNextBatchReply(id string) {
	c.Node(id).dropReply.Store(true)
	c.logf("stage %s armed to drop its next batch reply frame", id)
}

// Run executes the scenario to completion (all jobs finished, or the
// configured horizon) and returns the report.
func (c *Cluster) Run() *Report {
	sort.SliceStable(c.events, func(i, j int) bool { return c.events[i].at < c.events[j].at })
	var now time.Duration
	c.fire(now)
	c.arrive(now)
	for {
		c.fire(now + Interval - 1) // the events between two steps
		now += Interval
		c.clk.AdvanceTo(c.start.Add(now))
		c.demand(now)
		c.fire(now)
		if c.ctl != nil {
			for _, n := range c.nodes {
				if n.job.arrived && !n.job.finished && !n.crashed.Load() {
					c.heartbeat(n)
				}
			}
		}
		c.round()
		if c.done(now) {
			return c.report(now)
		}
		c.arrive(now)
	}
}

// fire runs the events due by until, each with the clock at its instant.
func (c *Cluster) fire(until time.Duration) {
	for ; c.next < len(c.events) && c.events[c.next].at <= until; c.next++ {
		ev := c.events[c.next]
		if at := c.start.Add(ev.at); at.After(c.clk.Now()) {
			c.clk.AdvanceTo(at)
		}
		if ev.name != "" {
			c.logf("event %s", ev.name)
		}
		ev.do(c)
	}
}

// demand is the fluid step over the interval ending at now.
func (c *Cluster) demand(now time.Duration) {
	for _, j := range c.jobs {
		switch {
		case !j.arrived || j.spec.Trace == nil:
		case j.finished:
			j.totalSeries.Append(c.clk.Now(), 0)
		default:
			c.stepJob(j, now)
		}
	}
	// A tick is saturated when the MDS ends it with no spare capacity.
	if c.cfg.PFS != nil {
		c.ticks++
		if c.cfg.PFS.Stats().Saturated {
			c.saturatedTicks++
		}
	}
}

// arrive registers the jobs due by now; a fresh arrival reallocates at
// once, so the new job starts at its algorithmic share rather than the
// registration default.
func (c *Cluster) arrive(now time.Duration) {
	arrived := false
	for _, j := range c.jobs {
		if j.arrived || j.spec.Arrival > now {
			continue
		}
		j.arrived, arrived = true, true
		c.reserve(j.spec.ID, j.spec.Reservation)
		for _, n := range j.nodes {
			c.join(n)
		}
	}
	if arrived {
		c.round()
	}
}

func (c *Cluster) done(now time.Duration) bool {
	if c.cfg.Duration > 0 && now >= c.cfg.Duration {
		return true
	}
	for _, j := range c.jobs {
		if !j.finished {
			return false
		}
	}
	return true
}

// round runs one feedback round on a live controller.
func (c *Cluster) round() {
	if c.ctl == nil || c.down {
		return
	}
	alloc := c.ctl.RunOnce()
	line := "(no allocation)"
	if len(alloc) > 0 {
		var parts []string
		for _, job := range slices.Sorted(maps.Keys(alloc)) {
			parts = append(parts, fmt.Sprintf("%s=%.0f", job, alloc[job]))
		}
		line = strings.Join(parts, " ")
	}
	c.logf("control round: %s", line)
}

// join registers a new stage. One that cannot reach the controller starts
// degraded and registers at the first heartbeat that does.
func (c *Cluster) join(n *Node) {
	if c.ctl == nil {
		return
	}
	err := errControllerDown
	if !c.down {
		err = c.ctl.Register(n.Stg.Info(), c.handle(n))
	}
	if err != nil {
		n.Stg.SetDegraded(true)
		c.logf("stage %s registration failed, starts degraded: %v", n.ID, err)
		return
	}
	c.logf("stage %s registered (job %s)", n.ID, n.Job)
}

// heartbeat is a stage's probe of its controller: a controller it cannot
// reach degrades the stage, freezing its limits; one it reaches again,
// or one that answers that it does not hold the stage (it restarted
// between two heartbeats, or evicted the stage), takes its
// re-registration, which replays the job's rules. A failed
// re-registration leaves the stage degraded.
func (c *Cluster) heartbeat(n *Node) {
	if c.down || n.partitioned.Load() {
		if n.Stg.SetDegraded(true) {
			c.logf("stage %s degraded: controller unreachable, limits frozen at %.0f",
				n.ID, RuleRate(n.Stg, control.ControlRuleID))
		}
		return
	}
	if !n.Stg.Degraded() && c.ctl.Registered(n.ID) {
		return
	}
	if err := c.ctl.Register(n.Stg.Info(), c.handle(n)); err != nil {
		n.Stg.SetDegraded(true)
		c.logf("stage %s re-registration failed: %v", n.ID, err)
		return
	}
	if n.Stg.SetDegraded(false) {
		c.logf("stage %s re-registered after %v degraded", n.ID, n.Stg.DegradedFor())
		return
	}
	c.logf("stage %s re-registered: the controller did not hold it", n.ID)
}

// RuleRate returns the rate of a stage's rule by ID (-1 when absent).
func RuleRate(s *stage.Stage, id string) float64 {
	for _, r := range s.Rules() {
		if r.ID == id {
			return r.Rate
		}
	}
	return -1
}

// stepJob integrates one tick of a job's trace and offers the load to its
// stages.
func (c *Cluster) stepJob(j *job, now time.Duration) {
	elapsed := now - j.spec.Arrival
	prev := max(elapsed-Interval, 0)
	traceFrom := time.Duration(float64(prev) * j.spec.Accel)
	traceTo := time.Duration(float64(elapsed) * j.spec.Accel)
	if traceTo >= j.spec.Trace.Duration() {
		traceTo = j.spec.Trace.Duration()
		j.traceDone = true
	}

	var tickAdmitted float64
	step := j.spec.Trace.SampleInterval
	for _, op := range j.spec.Trace.Ops {
		// Integrate the rate curve over the covered trace window. The
		// trace-time integral is divided by Accel: the replayer follows
		// the curve's *rate* while compressing its time axis (§IV: each
		// replayer second covers a minute of the log), so one wall second
		// carries rate(traceT) operations, not a full minute's count.
		var arrived float64
		for t := traceFrom; t < traceTo; {
			// Advance to the next sample boundary or window end.
			end := min(t.Truncate(step)+step, traceTo)
			arrived += j.spec.Trace.RateAt(op, t) * (end - t).Seconds()
			t = end
		}
		arrived /= j.spec.Accel
		demand := j.pending[op] + arrived
		j.demanded += arrived

		var admitted float64
		if demand > 0 {
			// Split the offer across the job's stages.
			per := demand / float64(len(j.nodes))
			req := &posix.Request{Op: op, Path: "/pfs/" + j.spec.ID, JobID: j.spec.ID, User: j.spec.User}
			for _, n := range j.nodes {
				admitted += n.Stg.Offer(req, per, Interval)
			}
		}
		j.pending[op] = demand - admitted
		j.admitted += admitted
		tickAdmitted += admitted
		j.perOpSeries[op].Append(c.clk.Now(), admitted/Interval.Seconds())
	}

	// Offer admitted load to the PFS; unserved load returns to backlog,
	// spread back over the ops proportionally.
	if c.cfg.PFS != nil && tickAdmitted > 0 {
		served := c.cfg.PFS.OfferMetadataLoad(tickAdmitted, Interval)
		if served < tickAdmitted {
			frac := (tickAdmitted - served) / tickAdmitted
			for _, op := range j.spec.Trace.Ops {
				last := j.perOpSeries[op].Points[len(j.perOpSeries[op].Points)-1].Value * Interval.Seconds()
				back := last * frac
				j.pending[op] += back
				j.admitted -= back
			}
			tickAdmitted = served
		}
	}
	j.totalSeries.Append(c.clk.Now(), tickAdmitted/Interval.Seconds())

	// Completion check: curve exhausted and backlog drained.
	if j.traceDone {
		var backlog float64
		for _, p := range j.pending {
			backlog += p
		}
		if backlog < 0.5 {
			j.finished = true
			j.finishedAt = now
			if c.ctl != nil {
				for _, n := range j.nodes {
					c.ctl.Deregister(n.ID)
				}
			}
		}
	}
}

func (c *Cluster) report(elapsed time.Duration) *Report {
	rep := &Report{
		PerJob:     make(map[string]*metrics.Series),
		PerJobOp:   make(map[string]map[posix.Op]*metrics.Series),
		Aggregate:  metrics.NewSeries("aggregate"),
		Completion: make(map[string]time.Duration),
		Elapsed:    elapsed,
	}
	maxLen := 0
	for _, j := range c.jobs {
		rep.PerJob[j.spec.ID] = j.totalSeries
		rep.PerJobOp[j.spec.ID] = j.perOpSeries
		if j.finished {
			rep.Completion[j.spec.ID] = j.finishedAt
		}
		rep.TotalDemanded += j.demanded
		rep.TotalAdmitted += j.admitted
		maxLen = max(maxLen, j.totalSeries.Len())
	}
	// Aggregate across jobs; series start at different ticks (arrival),
	// so align from the end: every series sampled every tick until run
	// end.
	for i := 0; i < maxLen; i++ {
		var sum float64
		var ts time.Time
		for _, j := range c.jobs {
			s := j.totalSeries
			idx := i - (maxLen - s.Len())
			if idx >= 0 && idx < s.Len() {
				sum += s.Points[idx].Value
				ts = s.Points[idx].T
			}
		}
		rep.Aggregate.Append(ts, sum)
	}
	if c.cfg.PFS != nil {
		st := c.cfg.PFS.Stats()
		rep.PFSStats = &st
		if c.ticks > 0 {
			rep.PFSSaturatedFrac = float64(c.saturatedTicks) / float64(c.ticks)
		}
	}
	return rep
}

// handle gives n a fresh handle for a registration: the frame transport
// in process, over an in-memory conn under the cluster's failure state.
// The controller closes a handle it replaces or deregisters, so every
// registration takes a new one.
func (c *Cluster) handle(n *Node) *rpcio.StageHandle {
	n.Handle = rpcio.LocalStage(n.svc, c.clk, func(ops []rpcio.StageOp, collect bool) error {
		return c.gate(n, len(ops) > 0, collect)
	})
	return n.Handle
}

// gate is a node's fault: it decides, as each exchange is written,
// whether it reaches the node (a crash hits between exchanges, as a real
// controller would observe it), and loses the reply of one the node
// applied while a lost reply is armed. A round writes its pushes in
// StageID order on its own goroutine, so the push budget decides
// deterministically which stages saw the new rates; collects of
// different nodes may run side by side, each spending only its node's
// budget.
func (c *Cluster) gate(n *Node, push, collect bool) error {
	switch {
	case !push && !collect:
	case c.down:
		return errControllerDown
	case n.crashed.Load() || n.partitioned.Load():
		return errUnreachable
	}
	if push {
		switch b := c.pushBudget.Load(); {
		case b == 0:
			c.CrashController()
			return errControllerDown
		case b > 0:
			c.pushBudget.Store(b - 1)
		}
	}
	if collect {
		switch b := n.collectBudget.Load(); {
		case b == 0:
			n.crashed.Store(true)
			return errUnreachable
		case b > 0:
			n.collectBudget.Store(b - 1)
		}
	}
	if n.dropReply.CompareAndSwap(true, false) {
		return rpcio.ReplyLost{Err: errReplyLost}
	}
	return nil
}
