package padll

import (
	"fmt"
	"sort"
	"time"

	"padll/internal/clock"
	"padll/internal/localfs"
	"padll/internal/pfs"
)

// exampleEpoch is where every Example's simulated clock starts.
var exampleEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// Embed PADLL in an application in three steps: build a data plane over
// the mounts, install a QoS rule, and do I/O through the interposed
// client. Requests to the controlled mount are classified and rate
// limited; everything else passes straight through.
//
// The Example runs on a simulated clock so that its output is exact:
// newDataPlane is NewDataPlane with the clock as its first argument.
func ExampleDataPlane() {
	clk := clock.NewSim(exampleEpoch)
	clk.Drive(func() {
		// Backends: a simulated Lustre PFS (the shared, protected
		// resource) and a node-local file system (not rate limited).
		lustre := pfs.New(clk, pfs.Config{})
		local := localfs.New(clk)

		// Step 1: the data plane interposes on both mounts; only
		// /lustre is controlled.
		dp, err := newDataPlane(clk,
			JobInfo{JobID: "quickstart-job", User: "demo", PID: 1, Hostname: "node-1"},
			MountPFS("/lustre", lustre),
			MountLocal("/", local),
		)
		if err != nil {
			fmt.Println(err)
			return
		}
		defer dp.Close()

		// Step 2: a QoS rule in the administrator DSL: this job's
		// metadata operations go at 2000 ops/s.
		rule, err := ParseRule("limit id:meta class:metadata rate:2k burst:50")
		if err != nil {
			fmt.Println(err)
			return
		}
		dp.ApplyRule(rule)

		// Step 3: ordinary POSIX calls through the interposed client;
		// the shim classifies and throttles them invisibly.
		c := dp.Client()
		start := clk.Now()
		if err := c.Mkdir("/lustre/dataset", 0o755); err != nil {
			fmt.Println(err)
			return
		}
		for i := 0; i < 1000; i++ {
			if err := writeFile(c, fmt.Sprintf("/lustre/dataset/file-%04d", i), "hello, lustre"); err != nil {
				fmt.Println(err)
				return
			}
		}
		elapsed := clk.Now().Sub(start)

		// Node-local scratch I/O resolves to the uncontrolled mount and
		// is forwarded without throttling.
		if err := writeFile(c, "/scratch-notes.txt", "not rate limited"); err != nil {
			fmt.Println(err)
			return
		}

		// 2000 metadata ops (an open and a close per file) at 2000 ops/s
		// with 50 in the burst: the rule at work.
		fmt.Printf("created 1000 files in %v\n", elapsed)
		for _, q := range dp.Stats().Queues {
			fmt.Printf("queue %q admitted %d ops under a %.0f ops/s limit\n", q.RuleID, q.Total, q.Limit)
		}
		is := dp.InterceptionStats()
		fmt.Printf("intercepted %d calls: %d controlled, %d bypassed\n", is.Intercepted, is.Controlled, is.Bypassed)
		fmt.Printf("the metadata server served %d operations\n", lustre.Stats().MetadataOps)
	})
	// Output:
	// created 1000 files in 975ms
	// queue "meta" admitted 2000 ops under a 2000 ops/s limit
	// intercepted 3004 calls: 3001 controlled, 3 bypassed
	// the metadata server served 2001 operations
}

// writeFile creates path through c and writes data to it: an open, a
// write and a close.
func writeFile(c *Client, path, data string) error {
	fd, err := c.Open(path, OCreate|OWrOnly, 0o644)
	if err != nil {
		return err
	}
	_, err = c.Write(fd, []byte(data))
	if cerr := c.Close(fd); err == nil {
		err = cerr
	}
	return err
}

// exampleJob is one job of a control-plane Example: its ID and its
// reserved rate.
type exampleJob struct {
	id          string
	reservation float64
}

// attachJobs gives each job a data plane of its own over an in-memory
// /pfs holding the file "/pfs/probe", reserves its rate on cp and
// attaches it. The caller closes the data planes.
func attachJobs(clk clock.Clock, cp *ControlPlane, jobs []exampleJob) ([]*DataPlane, error) {
	var planes []*DataPlane
	for _, j := range jobs {
		dp, err := newDataPlane(clk, JobInfo{JobID: j.id, User: "demo", Hostname: "node-" + j.id},
			MountPFS("/pfs", localfs.New(clk)))
		if err != nil {
			return planes, err
		}
		planes = append(planes, dp)
		cp.SetReservation(j.id, j.reservation)
		if err := writeFile(dp.Client(), "/pfs/probe", ""); err != nil {
			return planes, err
		}
		if err := cp.AttachLocal(dp); err != nil {
			return planes, err
		}
	}
	return planes, nil
}

// closeAll closes every data plane.
func closeAll(planes []*DataPlane) {
	for _, dp := range planes {
		dp.Close()
	}
}

// getattrUntil issues getattrs on path through c, as fast as its queue
// admits them, until clk reaches end; it returns the first error.
func getattrUntil(clk clock.Clock, c *Client, path string, end time.Time) error {
	for clk.Now().Before(end) {
		if _, err := c.GetAttr(path); err != nil {
			return err
		}
	}
	return nil
}

// The paper's Fig. 5 Priority setup on the live stack: two jobs run the
// same metadata loop, and the administrator reserves three times the
// rate for the production job as for the best-effort one. The control
// plane holds each job to its reserved rate, so the best-effort job pays
// with completion time, in proportion to its reservation, and neither
// application changes.
//
// The Example runs on a simulated clock so that its output is exact:
// newDataPlane and newControlPlane are NewDataPlane and NewControlPlane
// with the clock as their first argument.
func ExamplePriority() {
	const opsPerJob = 20_000
	clk := clock.NewSim(exampleEpoch)
	clk.Drive(func() {
		cp := newControlPlane(clk, WithAlgorithm(Priority()), WithClusterLimit(20_000))
		defer cp.Stop()
		jobs := []exampleJob{{"best-effort", 5_000}, {"production", 15_000}}
		planes, err := attachJobs(clk, cp, jobs)
		defer closeAll(planes)
		if err != nil {
			fmt.Println(err)
			return
		}
		// Priority's allocation does not depend on demand, so the one
		// round before the jobs start holds them for their whole run.
		cp.RunOnce()

		elapsed := make([]time.Duration, len(jobs))
		errs := make([]error, len(jobs))
		g := clock.NewGroup(clk)
		for i, dp := range planes {
			g.Go(func() {
				c := dp.Client()
				start := clk.Now()
				var err error
				for n := 0; err == nil && n < opsPerJob; n++ {
					_, err = c.GetAttr("/pfs/probe")
				}
				elapsed[i], errs[i] = clk.Now().Sub(start), err
			})
		}
		g.Wait()
		for i, j := range jobs {
			if errs[i] != nil {
				fmt.Println(errs[i])
				return
			}
			fmt.Printf("%-11s finished %d getattrs in %v (%.0f ops/s)\n",
				j.id, opsPerJob, elapsed[i].Round(time.Millisecond), opsPerJob/elapsed[i].Seconds())
		}
		fmt.Printf("best-effort took %.2fx as long as production; reservations were 1:3\n",
			elapsed[0].Seconds()/elapsed[1].Seconds())
	})
	// Output:
	// best-effort finished 20000 getattrs in 3.9s (5128 ops/s)
	// production  finished 20000 getattrs in 1.267s (15789 ops/s)
	// best-effort took 3.08x as long as production; reservations were 1:3
}

// The paper's Proportional Sharing algorithm in its feedback loop:
// three jobs with 1:2:3 reservations share one metadata budget. Each
// second the control plane collects every stage's demand and retunes the
// per-job rates: reservations are guaranteed, and rate a job leaves
// unused flows to the jobs that can use it. Watch the allocations shift
// when the checkpoint job goes idle.
//
// The Example runs on a simulated clock so that its output is exact:
// newDataPlane and newControlPlane are NewDataPlane and NewControlPlane
// with the clock as their first argument. A round runs only while no job
// is inside a request, so no retune lands on a request asleep in its
// queue.
func ExampleProportionalShare() {
	clk := clock.NewSim(exampleEpoch)
	clk.Drive(func() {
		cp := newControlPlane(clk, WithAlgorithm(ProportionalShare()), WithClusterLimit(30_000))
		defer cp.Stop()
		jobs := []exampleJob{{"dl-training", 5_000}, {"analytics", 10_000}, {"checkpoint", 15_000}}
		planes, err := attachJobs(clk, cp, jobs)
		defer closeAll(planes)
		if err != nil {
			fmt.Println(err)
			return
		}
		// The first round grants every job a rate before any of them
		// issues a request.
		cp.RunOnce()

		errs := make([]error, len(jobs))
		start := clk.Now()
		for t := 1; t <= 6; t++ {
			end := start.Add(time.Duration(t) * time.Second)
			g := clock.NewGroup(clk)
			for i, j := range jobs {
				g.Go(func() {
					if j.id == "checkpoint" && t > 3 {
						clk.Sleep(end.Sub(clk.Now())) // idle: no demand
						return
					}
					if err := getattrUntil(clk, planes[i].Client(), "/pfs/probe", end); err != nil {
						errs[i] = err
					}
				})
			}
			g.Wait()
			cp.RunOnce()
			fmt.Printf("t=%ds\n", t)
			for _, s := range cp.Collect() {
				fmt.Printf("  %-11s reserved %6.0f  demand %6.0f/s  allocated %6.0f/s  served %6.0f/s\n",
					s.JobID, s.Reservation, s.Demand, s.Allocated, s.Throughput)
			}
		}
		for _, err := range errs {
			if err != nil {
				fmt.Println(err)
			}
		}
	})
	// Output:
	// t=1s
	//   analytics   reserved  10000  demand  11000/s  allocated  10000/s  served  10999/s
	//   checkpoint  reserved  15000  demand  16000/s  allocated  15000/s  served  15999/s
	//   dl-training reserved   5000  demand   5500/s  allocated   5000/s  served   5499/s
	// t=2s
	//   analytics   reserved  10000  demand  10000/s  allocated  10000/s  served  10000/s
	//   checkpoint  reserved  15000  demand  15000/s  allocated  15000/s  served  15000/s
	//   dl-training reserved   5000  demand   5000/s  allocated   5000/s  served   5000/s
	// t=3s
	//   analytics   reserved  10000  demand  10000/s  allocated  10000/s  served  10000/s
	//   checkpoint  reserved  15000  demand  15000/s  allocated  15000/s  served  15000/s
	//   dl-training reserved   5000  demand   5000/s  allocated   5000/s  served   5000/s
	// t=4s
	//   analytics   reserved  10000  demand  10000/s  allocated  11000/s  served  10000/s
	//   checkpoint  reserved  15000  demand      0/s  allocated  15000/s  served      1/s
	//   dl-training reserved   5000  demand   5000/s  allocated   5500/s  served   5000/s
	// t=5s
	//   analytics   reserved  10000  demand  11000/s  allocated  12100/s  served  11000/s
	//   checkpoint  reserved  15000  demand      0/s  allocated  15000/s  served      0/s
	//   dl-training reserved   5000  demand   5500/s  allocated   6050/s  served   5500/s
	// t=6s
	//   analytics   reserved  10000  demand  12100/s  allocated  13310/s  served  12100/s
	//   checkpoint  reserved  15000  demand      0/s  allocated  15000/s  served      0/s
	//   dl-training reserved   5000  demand   6050/s  allocated   6655/s  served   6050/s
}

// schedJob is one batch submission and, once started, the nodes it
// holds.
type schedJob struct {
	ID, User string
	Nodes    int
	Walltime time.Duration

	AssignedNodes []string
	started       time.Time
}

// schedPool stands in for a batch scheduler: a fixed set of nodes, a
// FIFO queue, and the two lifecycle hooks where a PADLL deployment
// attaches and detaches its stages.
type schedPool struct {
	idle    []string    // sorted node names
	queue   []*schedJob // waiting, in submission order
	running []*schedJob
	start   func(*schedJob)
	end     func(*schedJob)
}

func newSchedPool(nodes int, start, end func(*schedJob)) *schedPool {
	p := &schedPool{start: start, end: end}
	for i := 0; i < nodes; i++ {
		p.idle = append(p.idle, fmt.Sprintf("node%03d", i))
	}
	return p
}

// submit queues a job and starts it at once if it is next and fits.
func (p *schedPool) submit(j *schedJob, now time.Time) {
	p.queue = append(p.queue, j)
	p.schedule(now)
}

// tick ends the jobs whose walltime has expired, then starts queued jobs
// on the freed nodes.
func (p *schedPool) tick(now time.Time) {
	var still []*schedJob
	for _, j := range p.running {
		if now.Sub(j.started) < j.Walltime {
			still = append(still, j)
			continue
		}
		p.idle = append(p.idle, j.AssignedNodes...)
		p.end(j)
	}
	p.running = still
	sort.Strings(p.idle)
	p.schedule(now)
}

// schedule starts the head of the queue for as long as it fits.
func (p *schedPool) schedule(now time.Time) {
	for len(p.queue) > 0 && p.queue[0].Nodes <= len(p.idle) {
		j := p.queue[0]
		p.queue = p.queue[1:]
		j.AssignedNodes = append([]string(nil), p.idle[:j.Nodes]...)
		p.idle = p.idle[j.Nodes:]
		j.started = now
		p.running = append(p.running, j)
		p.start(j)
	}
}

// The deployment story: a batch scheduler launches jobs onto compute
// nodes. Each job start spawns one data plane per assigned node, as
// LD_PRELOAD would in the paper's prototype, and attaches it to the
// control plane under the scheduler's job ID; job completion detaches
// and closes them. Proportional sharing orchestrates whichever jobs are
// running, and a job that waited for nodes comes under control the
// moment it starts.
//
// The Example runs on a simulated clock so that its output is exact:
// newDataPlane and newControlPlane are NewDataPlane and NewControlPlane
// with the clock as their first argument. A round runs only while no
// application is inside a request, so no retune lands on a request
// asleep in its queue.
func ExampleControlPlane_DetachLocal() {
	clk := clock.NewSim(exampleEpoch)
	clk.Drive(func() {
		cp := newControlPlane(clk, WithAlgorithm(ProportionalShare()), WithClusterLimit(40_000))
		defer cp.Stop()
		cp.SetReservation("wide", 20_000)
		cp.SetReservation("narrow-1", 10_000)
		cp.SetReservation("queued", 10_000)

		planes := map[string][]*DataPlane{}
		var failed error
		start := func(j *schedJob) {
			fmt.Printf("scheduler: %s started on %v\n", j.ID, j.AssignedNodes)
			for _, node := range j.AssignedNodes {
				dp, err := newDataPlane(clk, JobInfo{JobID: j.ID, User: j.User, Hostname: node},
					MountPFS("/pfs", localfs.New(clk)))
				if err != nil {
					failed = err
					return
				}
				planes[j.ID] = append(planes[j.ID], dp)
				if err := writeFile(dp.Client(), "/pfs/probe", ""); err != nil {
					failed = err
					return
				}
				if err := cp.AttachLocal(dp); err != nil {
					failed = err
					return
				}
			}
		}
		end := func(j *schedJob) {
			for _, dp := range planes[j.ID] {
				cp.DetachLocal(dp)
				if err := dp.Close(); err != nil {
					failed = err
				}
			}
			delete(planes, j.ID)
			fmt.Printf("scheduler: %s completed\n", j.ID)
		}
		defer func() {
			for _, dps := range planes {
				closeAll(dps)
			}
		}()

		// A wide job and a small one fill the four nodes; the third has
		// to wait for the wide job's.
		scheduler := newSchedPool(4, start, end)
		t0 := clk.Now()
		scheduler.submit(&schedJob{ID: "wide", User: "alice", Nodes: 3, Walltime: 4 * time.Second}, t0)
		scheduler.submit(&schedJob{ID: "narrow-1", User: "bob", Nodes: 1, Walltime: 6 * time.Second}, t0)
		scheduler.submit(&schedJob{ID: "queued", User: "carol", Nodes: 2, Walltime: 3 * time.Second}, t0)
		cp.RunOnce()
		for t := 1; len(scheduler.running) > 0 && failed == nil; t++ {
			// Every application instance runs its metadata loop for a
			// second.
			var dps []*DataPlane
			for _, j := range scheduler.running {
				dps = append(dps, planes[j.ID]...)
			}
			errs := make([]error, len(dps))
			deadline := t0.Add(time.Duration(t) * time.Second)
			g := clock.NewGroup(clk)
			for i, dp := range dps {
				g.Go(func() { errs[i] = getattrUntil(clk, dp.Client(), "/pfs/probe", deadline) })
			}
			g.Wait()
			for _, err := range errs {
				if err != nil {
					failed = err
				}
			}
			// Expire walltimes and start queued jobs, then a round grants
			// the stages started since the last one their rates.
			scheduler.tick(clk.Now())
			cp.RunOnce()
			fmt.Printf("t=%ds queue=%d idle=%d\n", t, len(scheduler.queue), len(scheduler.idle))
			for _, s := range cp.Collect() {
				fmt.Printf("  %-9s stages=%d demand %6.0f/s allocated %6.0f/s served %6.0f/s\n",
					s.JobID, s.Stages, s.Demand, s.Allocated, s.Throughput)
			}
		}
		if failed != nil {
			fmt.Println(failed)
		}
	})
	// Output:
	// scheduler: wide started on [node000 node001 node002]
	// scheduler: narrow-1 started on [node003]
	// t=1s queue=1 idle=0
	//   narrow-1  stages=1 demand  11000/s allocated  12100/s served  10999/s
	//   wide      stages=3 demand  22002/s allocated  24202/s served  21999/s
	// t=2s queue=1 idle=0
	//   narrow-1  stages=1 demand  12100/s allocated  13310/s served  12100/s
	//   wide      stages=3 demand  24201/s allocated  26621/s served  24201/s
	// t=3s queue=1 idle=0
	//   narrow-1  stages=1 demand  13310/s allocated  13333/s served  13310/s
	//   wide      stages=3 demand  26622/s allocated  26667/s served  26622/s
	// scheduler: wide completed
	// scheduler: queued started on [node000 node001]
	// t=4s queue=0 idle=1
	//   narrow-1  stages=1 demand  13334/s allocated  14667/s served  13334/s
	//   queued    stages=2 demand      0/s allocated  10000/s served      0/s
	// t=5s queue=0 idle=1
	//   narrow-1  stages=1 demand  14667/s allocated  16134/s served  14667/s
	//   queued    stages=2 demand  11000/s allocated  12100/s served  10998/s
	// scheduler: narrow-1 completed
	// t=6s queue=0 idle=2
	//   queued    stages=2 demand  12100/s allocated  13310/s served  12100/s
	// scheduler: queued completed
	// t=7s queue=0 idle=4
}
