// Package sim is the cluster simulator the experiment harness runs on: it
// composes compute-node jobs (each replaying a metadata trace through its
// own data-plane stages), the PADLL control plane, and optionally the
// simulated PFS, over a simulated clock — so the paper's 45-minute
// evaluation scenarios (§IV) execute in milliseconds with the very same
// stage, policy, wire-codec and control-plane code a live deployment uses.
//
// The engine is a fluid discrete-tick simulation: each tick, every active
// job integrates its trace curve to produce the operations that arrived
// during the tick, offers them (plus any backlog from earlier throttling)
// to its stages' token buckets, and records what was admitted. Backlog
// draining reproduces the catch-up overshoot of Fig. 4; job completion is
// reached when the job's whole trace has been admitted, reproducing the
// makespan differences of Fig. 5.
package sim

import (
	"fmt"
	"sort"
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

// Event is a scheduled scenario action (e.g. an administrator changing a
// static limit mid-run, as in Fig. 4).
type Event struct {
	At time.Duration
	Do func(c *Cluster)
}

// Config parameterizes a scenario run.
type Config struct {
	// Tick is the simulation step (default 1s experiment time).
	Tick time.Duration
	// Duration bounds the run (default: until all jobs finish).
	Duration time.Duration
	// Controller, when set, orchestrates job stages (registered on
	// arrival, deregistered on completion) and its feedback loop runs
	// every ControlInterval.
	Controller *control.Controller
	// ControlInterval is the feedback-loop period (default 1s).
	ControlInterval time.Duration
	// PFS, when set, receives all admitted metadata load (in weighted
	// cost units); load the MDS cannot serve is pushed back into job
	// backlogs, modelling a saturated metadata service.
	PFS *pfs.PFS
	// StageMode is the stages' interposition mode (Enforce by default;
	// Passthrough reproduces the overhead setup).
	StageMode stage.Mode
	// Window is the stats sampling window (default = Tick).
	Window time.Duration
}

// Cluster is one scenario instance.
type Cluster struct {
	cfg    Config
	clk    *clock.Sim
	start  time.Time
	jobs   []*job
	events []Event
	// controlPaused models a controller outage (see SetControlPaused).
	controlPaused bool
	// PFS saturation accounting.
	ticks          int
	saturatedTicks int
}

// job is the runtime state of a JobSpec.
type job struct {
	spec    JobSpec
	stages  []*stage.Stage
	conns   []*control.RemoteConn
	pending map[posix.Op]float64 // backlog per op
	// traceDone marks the trace curve fully integrated.
	traceDone bool
	// finished marks trace done and backlog drained.
	finished   bool
	finishedAt time.Duration
	arrived    bool
	// admitted accumulates per-tick admissions for reporting.
	perOpSeries map[posix.Op]*metrics.Series
	totalSeries *metrics.Series
	demanded    float64
	admitted    float64
}

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
	if cfg.Tick <= 0 {
		cfg.Tick = time.Second
	}
	if cfg.ControlInterval <= 0 {
		cfg.ControlInterval = time.Second
	}
	if cfg.Window <= 0 {
		cfg.Window = cfg.Tick
	}
	return &Cluster{cfg: cfg, clk: clock.NewSim(epoch), start: epoch}
}

// Clock exposes the simulation clock (stages created by AddJob use it).
func (c *Cluster) Clock() *clock.Sim { return c.clk }

// AttachPFS installs a backend built on the cluster's clock after
// construction (the PFS needs the Sim clock, which NewCluster creates).
func (c *Cluster) AttachPFS(backend *pfs.PFS) { c.cfg.PFS = backend }

// AttachController installs a controller after construction, for
// scenarios whose control policy closes a loop over a backend that
// itself needs the cluster's clock (e.g. an AIMD limit probing the PFS).
// Must be called before Run.
func (c *Cluster) AttachController(ctl *control.Controller) { c.cfg.Controller = ctl }

// AddJob registers a job spec before Run.
func (c *Cluster) AddJob(spec JobSpec) {
	if spec.Accel <= 0 {
		spec.Accel = 60
	}
	if spec.Stages <= 0 {
		spec.Stages = 1
	}
	j := &job{
		spec:        spec,
		pending:     make(map[posix.Op]float64),
		perOpSeries: make(map[posix.Op]*metrics.Series),
		totalSeries: metrics.NewSeries(spec.ID),
	}
	for _, op := range spec.Trace.Ops {
		j.perOpSeries[op] = metrics.NewSeries(fmt.Sprintf("%s:%s", spec.ID, op))
	}
	for s := 0; s < spec.Stages; s++ {
		st := stage.New(stage.Info{
			StageID:  fmt.Sprintf("%s-stage%d", spec.ID, s),
			JobID:    spec.ID,
			Hostname: fmt.Sprintf("node-%s-%d", spec.ID, s),
			PID:      1000 + len(c.jobs)*10 + s,
			User:     spec.User,
		}, c.clk, stage.WithMode(c.cfg.StageMode), stage.WithWindow(c.cfg.Window))
		j.stages = append(j.stages, st)
		j.conns = append(j.conns, control.NewRemoteConn(st.Info(), rpcio.EncodedLoopbackStage(rpcio.NewStageService(st))))
	}
	c.jobs = append(c.jobs, j)
}

// StagesOf returns a job's stages (for scenario events that install rules
// directly, e.g. Fig. 4's per-operation static limits).
func (c *Cluster) StagesOf(jobID string) []*stage.Stage {
	for _, j := range c.jobs {
		if j.spec.ID == jobID {
			return j.stages
		}
	}
	return nil
}

// Schedule registers a timed scenario event.
func (c *Cluster) Schedule(at time.Duration, do func(c *Cluster)) {
	c.events = append(c.events, Event{At: at, Do: do})
}

// SetControlPaused models a controller crash (true) or recovery (false)
// mid-run: while paused the feedback loop does not execute and every
// live stage is marked degraded — it keeps enforcing the last rates it
// was pushed, exactly like a real stage whose heartbeat lost the
// controller. Resuming clears the degraded flags; the next control
// interval re-tunes every stage (reconciliation).
func (c *Cluster) SetControlPaused(paused bool) {
	c.controlPaused = paused
	for _, j := range c.jobs {
		if !j.arrived || j.finished {
			continue
		}
		for _, st := range j.stages {
			st.SetDegraded(paused)
		}
	}
}

// Run executes the scenario to completion (all jobs finished, or the
// configured horizon) and returns the report.
func (c *Cluster) Run() *Report {
	sort.SliceStable(c.events, func(i, j int) bool { return c.events[i].At < c.events[j].At })
	nextEvent := 0
	tick := c.cfg.Tick
	var now time.Duration
	lastControl := time.Duration(0)

	for {
		// Fire due events.
		for nextEvent < len(c.events) && c.events[nextEvent].At <= now {
			c.events[nextEvent].Do(c)
			nextEvent++
		}
		// Job arrivals.
		arrivedNow := false
		for _, j := range c.jobs {
			if !j.arrived && j.spec.Arrival <= now {
				j.arrived = true
				arrivedNow = true
				if c.cfg.Controller != nil {
					c.cfg.Controller.SetReservation(j.spec.ID, j.spec.Reservation)
					for _, conn := range j.conns {
						// Over the in-process loopback, registration
						// fails only on a bug.
						if err := c.cfg.Controller.Register(conn); err != nil {
							panic(err)
						}
					}
				}
			}
		}
		// A fresh arrival reallocates immediately so the new job starts
		// at its algorithmic share rather than the registration default.
		if arrivedNow && c.cfg.Controller != nil && !c.controlPaused {
			c.cfg.Controller.RunOnce()
		}

		// Advance simulated time; buckets refill for the elapsed tick.
		c.clk.Advance(tick)
		now += tick

		// Per-job demand integration and admission.
		for _, j := range c.jobs {
			if !j.arrived || j.finished {
				if j.arrived && j.finished {
					j.totalSeries.Append(c.clk.Now(), 0)
				}
				continue
			}
			c.stepJob(j, now, tick)
		}

		// PFS saturation accounting: a tick is saturated when the MDS
		// ends it with no spare capacity.
		if c.cfg.PFS != nil {
			c.ticks++
			if c.cfg.PFS.Stats().Saturated {
				c.saturatedTicks++
			}
		}

		// Feedback loop.
		if c.cfg.Controller != nil && !c.controlPaused && now-lastControl >= c.cfg.ControlInterval {
			c.cfg.Controller.RunOnce()
			lastControl = now
		}

		// Termination.
		allDone := true
		for _, j := range c.jobs {
			if !j.finished {
				allDone = false
				break
			}
		}
		if allDone {
			break
		}
		if c.cfg.Duration > 0 && now >= c.cfg.Duration {
			break
		}
	}
	return c.report(now)
}

// stepJob integrates one tick of a job's trace and offers the load to its
// stages.
func (c *Cluster) stepJob(j *job, now time.Duration, tick time.Duration) {
	elapsed := now - j.spec.Arrival
	prev := elapsed - tick
	if prev < 0 {
		prev = 0
	}
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
			boundary := t.Truncate(step) + step
			end := boundary
			if end > traceTo {
				end = traceTo
			}
			arrived += j.spec.Trace.RateAt(op, t) * (end - t).Seconds()
			t = end
		}
		arrived /= j.spec.Accel
		demand := j.pending[op] + arrived
		j.demanded += arrived

		var admitted float64
		if demand > 0 {
			// Split the offer across the job's stages.
			per := demand / float64(len(j.stages))
			req := &posix.Request{Op: op, Path: "/pfs/" + j.spec.ID, JobID: j.spec.ID, User: j.spec.User}
			for _, st := range j.stages {
				admitted += st.Offer(req, per, tick)
			}
		}
		j.pending[op] = demand - admitted
		j.admitted += admitted
		tickAdmitted += admitted
		j.perOpSeries[op].Append(c.clk.Now(), admitted/tick.Seconds())
	}

	// Offer admitted load to the PFS; unserved load returns to backlog,
	// spread back over the ops proportionally.
	if c.cfg.PFS != nil && tickAdmitted > 0 {
		served := c.cfg.PFS.OfferMetadataLoad(tickAdmitted, tick)
		if served < tickAdmitted {
			frac := (tickAdmitted - served) / tickAdmitted
			for _, op := range j.spec.Trace.Ops {
				last := j.perOpSeries[op].Points[len(j.perOpSeries[op].Points)-1].Value * tick.Seconds()
				back := last * frac
				j.pending[op] += back
				j.admitted -= back
			}
			tickAdmitted = served
		}
	}
	j.totalSeries.Append(c.clk.Now(), tickAdmitted/tick.Seconds())

	// Completion check: curve exhausted and backlog drained.
	if j.traceDone {
		var backlog float64
		for _, p := range j.pending {
			backlog += p
		}
		if backlog < 0.5 {
			j.finished = true
			j.finishedAt = now
			if c.cfg.Controller != nil {
				for _, conn := range j.conns {
					c.cfg.Controller.Deregister(conn.Info().StageID)
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
		if j.totalSeries.Len() > maxLen {
			maxLen = j.totalSeries.Len()
		}
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
