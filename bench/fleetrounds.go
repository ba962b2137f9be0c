package main

import (
	"fmt"
	"math/rand"
	"time"

	"padll"
)

// fleetRounds is the control-plane workload, the mirror of the first
// two: 256 data planes (16 jobs of 16 stages, in-memory localfs), each
// served on its own loopback listener and registered over TCP, and one
// caller running rounds back to back. Before each round a seeded
// schedule changes a quarter of the jobs' reservations (exactly 64 stage
// pushes, 192 skipped) and a rotating eighth of the stages issue four
// operations (non-empty deltas). Generating that load is outside the
// timed section. control and rpcio do nearly all the work.
type fleetRounds struct {
	f       *fleet
	clients []*padll.Client
	jobs    []string
	res     []float64 // current reservation per job
	rng     *rand.Rand
	round   int
	bare    *echo     // the direct twin of a control exchange
	bareLat []float64 // its exchanges, in us, timed between rounds
}

const (
	fleetLimit   = 1e6 // ops/s: above the sum of reservations, so allocation = reservation
	fleetOpsEach = 4   // operations an active stage issues before a round
)

var fleetPaths = []string{"/d00/a", "/d00/b", "/d00/c", "/d00/d"}

func (fr *fleetRounds) setUp(e *env) error {
	var err error
	if fr.f, err = newFleet(fleetLimit, e.size.period); err != nil {
		return err
	}
	fr.rng = rand.New(rand.NewSource(e.seed))
	fr.clients, fr.jobs, fr.res, fr.round = nil, nil, nil, 0
	for j := 0; j < e.size.fleetJobs; j++ {
		fr.jobs = append(fr.jobs, fmt.Sprintf("job%02d", j))
		fr.res = append(fr.res, fr.reservation())
		for s := 0; s < e.size.fleetStagesPerJob; s++ {
			backend, err := newLocalBackend(fleetPaths)
			if err != nil {
				return err
			}
			info := padll.JobInfo{JobID: fr.jobs[j], User: "bench", PID: s + 1, Hostname: "n0",
				StageID: fmt.Sprintf("s%03d", j*e.size.fleetStagesPerJob+s)}
			dp, err := fr.f.add(info, backend, fr.res[j])
			if err != nil {
				return err
			}
			fr.clients = append(fr.clients, dp.Client())
		}
	}
	if fr.bare, err = newEcho(); err != nil {
		return err
	}
	fr.f.warmUp()
	return nil
}

// reservation draws a job's rate: far above what its stages ask for, so
// ProportionalShare grants exactly the reservation.
func (fr *fleetRounds) reservation() float64 { return float64(10000 + fr.rng.Intn(10000)) }

func (fr *fleetRounds) tearDown() error {
	fr.bare.close()
	return fr.f.close()
}

// prepare is the untimed part of a round: retune a quarter of the jobs
// and let a rotating eighth of the stages issue their operations. It
// returns how many stages must be pushed to and how many operations
// were issued.
func (fr *fleetRounds) prepare(e *env, o *outcome) (pushes int, ops int64) {
	changed := len(fr.jobs) / 4
	if changed < 1 {
		changed = 1
	}
	for _, j := range fr.rng.Perm(len(fr.jobs))[:changed] {
		next := fr.reservation()
		for next == fr.res[j] {
			next = fr.reservation()
		}
		fr.res[j] = next
		fr.f.cp.SetReservation(fr.jobs[j], next)
	}
	for i := 0; i < fleetOpsEach; i++ {
		d, err := fr.bare.ping()
		if err != nil {
			o.fail(1, "bare exchange failed: %v", err)
		}
		fr.bareLat = append(fr.bareLat, float64(d.Nanoseconds())/1e3)
	}
	eighth := (len(fr.clients) + 7) / 8
	for k := 0; k < eighth; k++ {
		c := fr.clients[(fr.round%8*eighth+k)%len(fr.clients)]
		for i := 0; i < fleetOpsEach; i++ {
			if _, err := c.GetAttr(fleetPaths[i]); err != nil {
				o.fail(1, "stage operation failed: %v", err)
			}
			ops++
		}
	}
	fr.round++
	return changed * e.size.fleetStagesPerJob, ops
}

// rounds runs prepared rounds for d and checks each one's accounting.
// perRound, when set, brackets the timed section of every round.
func (fr *fleetRounds) rounds(e *env, o *outcome, d time.Duration, perRound func(timed func())) {
	fr.f.resetRounds()
	fr.bareLat = fr.bareLat[:0]
	c0, _ := fr.f.controlled()
	stages := len(fr.clients)
	var took []float64
	var issued int64
	for end := now().Add(d); now().Before(end); {
		pushes, ops := fr.prepare(e, o)
		issued += ops
		var rs padll.RoundStats
		var elapsed time.Duration
		timed := func() {
			t0 := now()
			rs = fr.f.round()
			elapsed = now().Sub(t0)
		}
		if perRound != nil {
			perRound(timed)
		} else {
			timed()
		}
		took = append(took, float64(elapsed.Nanoseconds())/1e3)
		if rs.CollectFailures != 0 || rs.PushCalls != pushes || rs.PushesSkipped != stages-pushes {
			o.fail(1, "round %d: %d collect failures, %d pushes (want %d), %d skipped (want %d)",
				fr.round, rs.CollectFailures, rs.PushCalls, pushes, rs.PushesSkipped, stages-pushes)
		}
	}
	o.attempted += issued + int64(len(took)*stages)
	if c, _ := fr.f.controlled(); c-c0 != issued {
		o.fail(1, "shims controlled %d requests, stages issued %d", c-c0, issued)
	}
	var sum float64
	for _, us := range took {
		sum += us
	}
	p50, bare := median(took), median(fr.bareLat)
	perStage := sum / float64(len(took)*stages)
	// One operation here is one stage served in a round; its direct twin
	// is one bare exchange over loopback TCP, timed between the rounds.
	// Rounds overlap 8 exchanges, so a ratio near 1 is not a floor.
	o.vals["overhead_ratio"] = perStage / bare
	o.vals["latency_ratio"] = p50 / bare
	o.vals["app.ops_per_s"] = 1e6 / perStage
	o.vals["app.op_p50_us"] = p50
	o.vals["app.direct_op_p50_us"] = bare
	o.vals["app.op_p99_us"] = quantile(took, 0.99)
}

func (fr *fleetRounds) measure(e *env, o *outcome) {
	fr.rounds(e, o, time.Duration(e.seconds*float64(time.Second)), nil)
}

func (fr *fleetRounds) layers(e *env, o *outcome) error {
	probeControl(e, o, fr.f, fleetLimit)
	var mallocs, bytes uint64
	n := 0
	fr.rounds(e, o, time.Duration(e.seconds/4*float64(time.Second)), func(timed func()) {
		m0, b0 := heap()
		timed()
		m1, b1 := heap()
		mallocs, bytes, n = mallocs+m1-m0, bytes+b1-b0, n+1
	})
	o.vals["control.allocs_per_round"] = float64(mallocs) / float64(n)
	o.vals["control.alloc_bytes_per_round"] = float64(bytes) / float64(n)
	o.vals["app.allocs_per_op"] = float64(mallocs) / float64(n*len(fr.clients))
	fr.f.layerMetrics(o.vals)
	return priceLayers(e, o, "", fr.jobs[0], nil, fleetPaths, getattrStream(e.size.streamOps, fleetPaths), 0)
}
