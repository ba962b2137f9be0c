// Scheduler-driven cluster: the full deployment story. A batch scheduler
// launches jobs onto compute nodes; each job start spawns one PADLL data
// plane per assigned node (as LD_PRELOAD would in the paper's prototype)
// and registers it with the control plane under the scheduler's job-ID;
// job completion tears the stages down. The control plane orchestrates
// every job holistically with proportional sharing while the jobs run
// metadata loops against their node-local file systems.
package main

import (
	"fmt"
	"log"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"padll"
	"padll/internal/clock"
	"padll/internal/localfs"
)

// job is one batch submission and, once started, the nodes it holds.
type job struct {
	ID, User string
	Nodes    int
	Walltime time.Duration

	AssignedNodes []string
	started       time.Time
}

// pool stands in for the batch scheduler: a fixed set of nodes, a FIFO
// queue, and the two lifecycle hooks where a PADLL deployment attaches
// and detaches its stages. Only main's goroutine drives it.
type pool struct {
	idle    []string // sorted node names
	queue   []*job   // waiting, in submission order
	running []*job
	start   func(*job)
	end     func(*job)
}

func newPool(nodes int, start, end func(*job)) *pool {
	p := &pool{start: start, end: end}
	for i := 0; i < nodes; i++ {
		p.idle = append(p.idle, fmt.Sprintf("node%03d", i))
	}
	return p
}

// submit queues a job and starts it at once if it is next and fits.
func (p *pool) submit(j *job, now time.Time) {
	p.queue = append(p.queue, j)
	p.schedule(now)
}

// tick ends the jobs whose walltime has expired, then starts queued jobs
// on the freed nodes.
func (p *pool) tick(now time.Time) {
	var still []*job
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
func (p *pool) schedule(now time.Time) {
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

func main() {
	clk := clock.NewReal()
	cp := padll.NewControlPlane(
		padll.WithAlgorithm(padll.ProportionalShare()),
		padll.WithClusterLimit(40_000),
	)
	defer cp.Stop()

	planes := map[string][]*padll.DataPlane{}
	var stop atomic.Bool
	var workers sync.WaitGroup

	start := func(j *job) {
		fmt.Printf("scheduler: %s started on %v\n", j.ID, j.AssignedNodes)
		for _, node := range j.AssignedNodes {
			backend := localfs.New(clk)
			dp, err := padll.NewDataPlane(
				padll.JobInfo{JobID: j.ID, User: j.User, Hostname: node},
				padll.MountPFS("/pfs", backend),
			)
			if err != nil {
				log.Fatal(err)
			}
			if err := cp.AttachLocal(dp); err != nil {
				log.Fatal(err)
			}
			planes[j.ID] = append(planes[j.ID], dp)

			// The application instance: a metadata-heavy loop.
			workers.Add(1)
			go func(dp *padll.DataPlane) {
				defer workers.Done()
				c := dp.Client()
				fd, err := c.Creat("/pfs/probe", 0o644)
				if err != nil {
					return
				}
				c.Close(fd)
				for !stop.Load() {
					if _, err := c.GetAttr("/pfs/probe"); err != nil {
						return // stage torn down: the job ended
					}
				}
			}(dp)
		}
	}
	end := func(j *job) {
		for _, dp := range planes[j.ID] {
			cp.DetachLocal(dp)
			// The job is over; nothing to do with a close error here.
			_ = dp.Close()
		}
		delete(planes, j.ID)
		fmt.Printf("scheduler: %s completed\n", j.ID)
	}

	scheduler := newPool(4, start, end)
	cp.Run(500 * time.Millisecond)

	// Submit a mix: a wide job and a small one that fill the cluster,
	// then one that has to wait for the wide job's nodes.
	scheduler.submit(&job{ID: "wide", User: "alice", Nodes: 3, Walltime: 4 * time.Second}, clk.Now())
	scheduler.submit(&job{ID: "narrow-1", User: "bob", Nodes: 1, Walltime: 6 * time.Second}, clk.Now())
	scheduler.submit(&job{ID: "queued", User: "carol", Nodes: 2, Walltime: 3 * time.Second}, clk.Now())
	cp.SetReservation("wide", 20_000)
	cp.SetReservation("narrow-1", 10_000)
	cp.SetReservation("queued", 10_000)

	for t := 1; t <= 8; t++ {
		clk.Sleep(time.Second)
		scheduler.tick(clk.Now()) // expire walltimes, start queued jobs
		snaps := cp.Collect()
		sort.Slice(snaps, func(i, j int) bool { return snaps[i].JobID < snaps[j].JobID })
		alloc := cp.LastAllocation()
		fmt.Printf("t=%ds queue=%d idle=%d\n", t, len(scheduler.queue), len(scheduler.idle))
		for _, s := range snaps {
			fmt.Printf("   %-9s stages=%d demand %8.0f/s allocated %8.0f/s served %8.0f/s\n",
				s.JobID, s.Stages, s.Demand, alloc[s.JobID], s.Throughput)
		}
	}

	stop.Store(true)
	workers.Wait()
	fmt.Println("\nnote: 'queued' waited for nodes, then inherited QoS control the")
	fmt.Println("moment the scheduler started it — no application changes anywhere.")
}
