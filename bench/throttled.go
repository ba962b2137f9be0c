package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"padll"
)

// throttledMultijob is the enforcement workload: four jobs, one data
// plane and one closed-loop worker each, hammer GetAttr on in-memory
// localfs under a 40k ops/s cluster limit (about 1/25 of what they could
// do unthrottled). Waiters sleep in their bucket, so at most nproc
// goroutines are runnable. Throughput is pinned by the limit: the
// token bucket, the stage's shaping path and the feedback loop do the
// work, osfs and vfs none.
type throttledMultijob struct {
	f    *fleet
	jobs []*throttledJob
	stop atomic.Bool
	// sampling gates the workers' latency samples to phase A; their
	// buffers are read only after halt.
	sampling atomic.Bool
	wg       sync.WaitGroup
	ticks    []tick
	// The direct twin: the same GetAttr on a bare localfs, sampled by the
	// ticker while the jobs run.
	bare    *padll.Client
	bareLat []time.Duration
}

type throttledJob struct {
	dp    *padll.DataPlane
	paths []string
	idle  atomic.Bool
	done  atomic.Int64 // GetAttr calls completed
	lat   []time.Duration
	bad   int64
}

// tick is one reading of the jobs' counters.
type tick struct {
	at   time.Time
	done []int64
}

const throttledLimit = 40000 // ops/s, cluster wide

var throttledReservations = []float64{4000, 8000, 12000, 16000}

func (t *throttledMultijob) setUp(e *env) error {
	var err error
	if t.f, err = newFleet(throttledLimit, e.size.period); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(e.seed))
	t.jobs = nil
	for j, res := range throttledReservations {
		paths := make([]string, e.size.jobFiles)
		for i, k := range rng.Perm(len(paths)) {
			paths[i] = fmt.Sprintf("/d%02x/f%06x", k%16, k)
		}
		backend, err := newLocalBackend(paths)
		if err != nil {
			return err
		}
		id := fmt.Sprintf("job%d", j)
		dp, err := t.f.add(padll.JobInfo{JobID: id, User: "bench", PID: j + 1, Hostname: "n0"}, backend, res)
		if err != nil {
			return err
		}
		t.jobs = append(t.jobs, &throttledJob{dp: dp, paths: paths, lat: make([]time.Duration, 0, 1<<18)})
	}
	twin, err := newLocalBackend(t.jobs[0].paths)
	if err != nil {
		return err
	}
	t.bare, t.bareLat = bareClient(twin), make([]time.Duration, 0, 1<<18)
	t.f.warmUp()
	return nil
}

func (t *throttledMultijob) tearDown() error { return t.f.close() }

// start launches the four workers and the round loop.
func (t *throttledMultijob) start() {
	t.stop.Store(false)
	t.sampling.Store(true)
	t.ticks = nil
	t.f.startLoop()
	for _, j := range t.jobs {
		t.wg.Add(1)
		go func(j *throttledJob) {
			defer t.wg.Done()
			c := j.dp.Client()
			for n := 0; !t.stop.Load() && !j.idle.Load(); n++ {
				timed := n&15 == 0 && t.sampling.Load()
				var t0 time.Time
				if timed {
					t0 = now()
				}
				_, err := c.GetAttr(j.paths[n%len(j.paths)])
				if timed {
					j.lat = sample(j.lat, now().Sub(t0))
				}
				if err != nil {
					j.bad++
				}
				j.done.Add(1)
			}
		}(j)
	}
	t.read()
}

func (t *throttledMultijob) halt() {
	t.stop.Store(true)
	t.wg.Wait()
	t.f.stopLoop()
}

func (t *throttledMultijob) read() tick {
	tk := tick{at: now(), done: make([]int64, len(t.jobs))}
	for i, j := range t.jobs {
		tk.done[i] = j.done.Load()
	}
	t.ticks = append(t.ticks, tk)
	return tk
}

// rate is the aggregate admitted rate of jobs between two ticks.
func rate(a, b tick, jobs int) float64 {
	var n int64
	for i := 0; i < jobs; i++ {
		n += b.done[i] - a.done[i]
	}
	return float64(n) / b.at.Sub(a.at).Seconds()
}

// steady runs phase A for d, reading the counters every tick, and
// returns its ticks.
func (t *throttledMultijob) steady(e *env, d time.Duration) []tick {
	first := len(t.ticks) - 1
	paths := t.jobs[0].paths
	for end := now().Add(d); now().Before(end); {
		sleep(e.size.tick)
		t.read()
		for i := 0; i < 256; i++ {
			t0 := now()
			if _, err := t.bare.GetAttr(paths[i%len(paths)]); err != nil {
				t.jobs[0].bad++
			}
			t.bareLat = sample(t.bareLat, now().Sub(t0))
		}
	}
	t.sampling.Store(false)
	return t.ticks[first:]
}

// reduce turns phase A's ticks into the end-to-end values, once the
// workers have stopped: throughput is the median of the one-second
// windows, latency comes from every 16th call.
func (t *throttledMultijob) reduce(e *env, o *outcome, ticks []tick) {
	a, b := ticks[0], ticks[len(ticks)-1]
	var burst float64
	for _, r := range throttledReservations {
		burst += r / 10 // the managed rule's default burst
	}
	perWindow := int(time.Second / e.size.tick)
	var windows []float64
	for i := 0; i+perWindow < len(ticks); i += perWindow {
		r := rate(ticks[i], ticks[i+perWindow], len(t.jobs))
		windows = append(windows, r)
		if r > throttledLimit*1.05+burst {
			o.fail(1, "window %d admitted %.0f ops/s, above limit %d x 1.05 + burst %.0f", len(windows), r, throttledLimit, burst)
		}
	}
	admitted := rate(a, b, len(t.jobs))
	if len(windows) > 0 {
		admitted = median(windows)
	}
	total := float64(0)
	for i := range t.jobs {
		total += float64(b.done[i] - a.done[i])
	}
	for i, res := range throttledReservations {
		share := float64(b.done[i]-a.done[i]) / total
		want := res / throttledLimit
		if len(windows) > 0 && (share < want*0.97 || share > want*1.03) {
			o.fail(1, "job%d got %.4f of the admitted operations, its reservation share is %.4f", i, share, want)
		}
	}
	var lat []float64
	for _, j := range t.jobs {
		lat = append(lat, durationsUs(j.lat)...)
	}
	o.attempted += int64(total)
	// The reference for throughput is the rate the policy entitles the
	// jobs to: a ratio above 1 means they got less than they were allowed.
	o.vals["overhead_ratio"] = throttledLimit / admitted
	direct := median(durationsUs(t.bareLat))
	o.vals["latency_ratio"] = median(lat) / direct
	o.vals["app.ops_per_s"] = admitted
	o.vals["app.op_p50_us"] = median(lat)
	o.vals["app.direct_op_p50_us"] = direct
	o.vals["app.op_p99_us"] = quantile(lat, 0.99)
	o.vals["tokenbucket.limit_adherence"] = admitted / throttledLimit
}

func (t *throttledMultijob) finish(o *outcome, controlled0 int64) {
	var issued int64
	for _, j := range t.jobs {
		issued += j.done.Load()
		if j.bad > 0 {
			o.fail(j.bad, "%d GetAttr calls failed", j.bad)
		}
	}
	if c, _ := t.f.controlled(); c-controlled0 != issued {
		o.fail(1, "shims controlled %d requests, workers issued %d", c-controlled0, issued)
	}
}

func (t *throttledMultijob) measure(e *env, o *outcome) {
	c0, _ := t.f.controlled()
	t.start()
	phaseA := t.steady(e, time.Duration(e.seconds*float64(time.Second)))
	t.halt()
	t.reduce(e, o, phaseA)
	t.finish(o, c0)
}

// reclaim is phase B: job3 goes idle and the run continues until the
// other three jobs' aggregate admitted rate over one tick reaches 95% of
// the limit, or limit elapses.
func (t *throttledMultijob) reclaim(e *env, o *outcome, limit time.Duration) {
	last := len(t.jobs) - 1
	t.jobs[last].idle.Store(true)
	t0 := now()
	r0 := t.f.roundCount()
	prev := t.read()
	for now().Sub(t0) < limit {
		sleep(e.size.tick)
		cur := t.read()
		if rate(prev, cur, last) >= 0.95*throttledLimit {
			o.vals["control.reclaim_s"] = cur.at.Sub(t0).Seconds()
			o.vals["control.rounds_to_reclaim"] = float64(t.f.roundCount() - r0)
			return
		}
		prev = cur
	}
	// Ten seconds are enough on any host; a shorter run that ends first
	// has not measured reclaim, and says so by reporting 0.
	if limit >= 10*time.Second {
		o.fail(1, "the idle job's share was not reused within %v", limit)
	}
}

func (t *throttledMultijob) layers(e *env, o *outcome) error {
	probeControl(e, o, t.f, throttledLimit)
	c0, _ := t.f.controlled()
	m0, _ := heap()
	t.start()
	phaseA := t.steady(e, time.Duration(e.seconds/4*float64(time.Second)))
	t.reclaim(e, o, time.Duration(e.seconds/2*float64(time.Second)))
	t.halt()
	m1, _ := heap()
	c1, _ := t.f.controlled()
	o.vals["app.allocs_per_op"] = float64(m1-m0) / float64(c1-c0)
	t.reduce(e, o, phaseA)
	t.finish(o, c0)
	t.f.layerMetrics(o.vals)
	paths := t.jobs[0].paths
	return priceLayers(e, o, "", "job0", nil, paths, getattrStream(e.size.streamOps, paths), 0)
}
