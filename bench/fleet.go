package main

// A live controller with its TCP-registered data planes, driven through
// the public padll package only.

import (
	"math"
	"sync"
	"time"

	"padll"
)

// fleet is a live controller with its TCP-registered data planes.
type fleet struct {
	cp        *padll.ControlPlane
	cpAddr    string
	dps       []*padll.DataPlane
	period    time.Duration // control period of the round loop
	registerD time.Duration // time spent in Serve+register calls

	loopStop chan struct{}
	loopDone chan struct{}
	mu       sync.Mutex
	rounds   roundLog
}

// roundLog accumulates per-round accounting from ControlPlane.LastRound.
type roundLog struct {
	n                 int
	durations         []time.Duration
	rpcs, pushCalls   int
	skipped, failures int
	wireBytes         uint64
}

// newFleet starts a ProportionalShare controller serving registrations
// on loopback.
func newFleet(clusterLimit float64, period time.Duration) (*fleet, error) {
	cp := padll.NewControlPlane(
		padll.WithAlgorithm(padll.ProportionalShare()),
		padll.WithClusterLimit(clusterLimit))
	addr, err := cp.Serve("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &fleet{cp: cp, cpAddr: addr, period: period}, nil
}

// add builds a data plane over backend, serves its control service on
// its own loopback listener and registers it with the controller. Every
// job gets an explicit reservation: with none, ProportionalShare
// slow-starts a job from 1 op/s (README.md, "zero reservation").
func (f *fleet) add(info padll.JobInfo, backend padll.FileSystem, reservation float64, rules ...string) (*padll.DataPlane, error) {
	dp, err := padll.NewDataPlane(info, padll.MountPFS("/", backend))
	if err != nil {
		return nil, err
	}
	for _, text := range rules {
		r, err := padll.ParseRule(text)
		if err != nil {
			return nil, err
		}
		dp.ApplyRule(r)
	}
	f.cp.SetReservation(info.JobID, reservation)
	t0 := now()
	if err := dp.Serve("127.0.0.1:0", f.cpAddr); err != nil {
		return nil, err
	}
	f.registerD += now().Sub(t0)
	f.dps = append(f.dps, dp)
	return dp, nil
}

// round runs one feedback iteration and logs its accounting.
func (f *fleet) round() padll.RoundStats {
	f.cp.RunOnce()
	rs, _ := f.cp.LastRound()
	f.mu.Lock()
	f.rounds.n++
	f.rounds.durations = append(f.rounds.durations, rs.Duration)
	f.rounds.rpcs += rs.RPCs()
	f.rounds.pushCalls += rs.PushCalls
	f.rounds.skipped += rs.PushesSkipped
	f.rounds.failures += rs.CollectFailures
	f.rounds.wireBytes += rs.BytesRead + rs.BytesWritten
	f.mu.Unlock()
	return rs
}

// warmUp lets the controller run two rounds at its own cadence, as a
// freshly started deployment would before traffic arrives.
func (f *fleet) warmUp() {
	f.startLoop()
	for f.roundCount() < 2 {
		sleep(f.period / 20)
	}
	f.stopLoop()
}

// resetRounds forgets the rounds logged so far (set-up's warm-up rounds,
// a probe's idle rounds), so a body reports only its own.
func (f *fleet) resetRounds() {
	f.mu.Lock()
	f.rounds = roundLog{}
	f.mu.Unlock()
}

// roundCount reports how many rounds have completed.
func (f *fleet) roundCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rounds.n
}

// startLoop runs rounds every control period, as ControlPlane.Run does,
// while keeping each round's accounting.
func (f *fleet) startLoop() {
	f.resetRounds()
	f.loopStop, f.loopDone = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(f.loopDone)
		for {
			select {
			case <-f.loopStop:
				return
			case <-time.After(f.period): //lint:allow clockcheck the round loop is paced on the wall clock like ControlPlane.Run
				f.round()
			}
		}
	}()
}

func (f *fleet) stopLoop() {
	if f.loopStop != nil {
		close(f.loopStop)
		<-f.loopDone
		f.loopStop = nil
	}
}

// close deregisters and stops every data plane, then the controller.
func (f *fleet) close() error {
	f.stopLoop()
	var first error
	for _, dp := range f.dps {
		if err := dp.Close(); err != nil && first == nil {
			first = err
		}
	}
	f.cp.Stop()
	return first
}

// controlled sums the shims' controlled-request counters.
func (f *fleet) controlled() (controlled, bypassed int64) {
	for _, dp := range f.dps {
		st := dp.InterceptionStats()
		controlled += st.Controlled
		bypassed += st.Bypassed
	}
	return controlled, bypassed
}

// layerMetrics reports what the public API exposes per layer after a
// traced body: shim, stage and control-service counters, and the logged
// rounds.
func (f *fleet) layerMetrics(v values) {
	c, b := f.controlled()
	v["interpose.controlled_ops"] = float64(c)
	v["interpose.bypassed_ops"] = float64(b)
	var waitP50, waitP99 float64
	for _, dp := range f.dps {
		st := dp.Stats()
		v["stage.passthrough_ops"] += float64(st.Passthrough)
		for _, q := range st.Queues {
			v["stage.admitted_ops"] += float64(q.Total)
			v["stage.dropped_ops"] += float64(q.Dropped)
			waitP50 = math.Max(waitP50, q.WaitP50)
			waitP99 = math.Max(waitP99, q.WaitP99)
		}
		if ss, ok := dp.ControlServiceStats(); ok {
			v["rpcio.served_calls"] += float64(ss.Calls)
			v["rpcio.delta_collects"] += float64(ss.DeltaCollects)
			v["rpcio.full_collects"] += float64(ss.FullCollects)
		}
	}
	v["stage.wait_p50_us"] = waitP50 * 1e6
	v["stage.wait_p99_us"] = waitP99 * 1e6
	v["control.register_us_per_stage"] = float64(f.registerD.Microseconds()) / float64(len(f.dps))

	f.mu.Lock()
	defer f.mu.Unlock()
	r := f.rounds
	if r.n == 0 {
		return
	}
	us := durationsUs(r.durations)
	n := float64(r.n)
	v["control.round_p50_ms"] = median(us) / 1e3
	v["control.round_p99_ms"] = quantile(us, 0.99) / 1e3
	v["control.rpcs_per_round"] = float64(r.rpcs) / n
	v["control.push_calls_per_round"] = float64(r.pushCalls) / n
	v["control.pushes_skipped_per_round"] = float64(r.skipped) / n
	v["control.wire_bytes_per_round"] = float64(r.wireBytes) / n
	v["control.collect_failures"] = float64(r.failures)
	// What a round spends beyond collect and allocate (probeControl).
	if d := v["control.round_p50_ms"] - v["control.collect_ms"] - v["control.allocate_us"]/1e3; d > 0 {
		v["control.push_ms"] = d
	}
}
