package stage

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"padll/internal/clock"
	"padll/internal/metrics"
	"padll/internal/policy"
	"padll/internal/posix"
)

// refQueue is the reference arithmetic for one queue's statistics: three
// free-standing counters, each on cells of its own, bumped one after the
// other per admission — what the stage did before a queue's demand,
// admitted and zero-wait counts shared one line per stripe.
type refQueue struct {
	demand, admitted *metrics.RateCounter
	latency          *metrics.Histogram
	dropped          int64
}

func newRefQueue(id string, clk clock.Clock) *refQueue {
	return &refQueue{
		demand:   metrics.NewRateCounter("demand:"+id, clk, time.Second),
		admitted: metrics.NewRateCounter("admitted:"+id, clk, time.Second),
		latency:  metrics.NewLatencyHistogram(),
	}
}

// stats is the arithmetic of Stage.CollectQuietInto for one queue.
func (r *refQueue) stats(id string, limit, burst float64, now time.Time) QueueStats {
	totalAdm, thrRate, _ := r.admitted.CollectAt(now)
	totalDem, demRate, _ := r.demand.CollectAt(now)
	p50, p95, p99 := r.latency.Quantiles3(0.50, 0.95, 0.99)
	return QueueStats{
		RuleID: id, Limit: limit, Burst: policy.EffectiveBurst(limit, burst),
		ThroughputRate: thrRate, DemandRate: demRate,
		Total: totalAdm, TotalDemand: totalDem, Dropped: r.dropped,
		WaitP50: p50, WaitP95: p95, WaitP99: p99,
	}
}

// TestQueueStatisticsMatchThreeCounterReference drives one seeded event
// sequence on a simulated clock through the stage — every admit branch:
// unmatched, unlimited, policed (admitted and dropped), shaped with the
// token in hand, shaped after a wait — and through the reference, and
// requires identical Collect output and identical demand and admitted
// series throughout, across window closes, idle gaps of several windows,
// retunes and mid-window collects.
func TestQueueStatisticsMatchThreeCounterReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { statsEquivalence(t, seed) })
	}
}

func statsEquivalence(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	clk := clock.NewSim(epoch)
	s := New(info(), clk)
	defer s.Close()

	rules := []policy.Rule{
		{ID: "a-unlimited", Match: policy.Matcher{Ops: []posix.Op{posix.OpStat}}, Rate: policy.Unlimited},
		{ID: "b-police", Match: policy.Matcher{Ops: []posix.Op{posix.OpOpen}}, Rate: 1, Burst: 2, Action: policy.ActionDrop},
		{ID: "c-roomy", Match: policy.Matcher{Ops: []posix.Op{posix.OpGetAttr}}, Rate: 1e9},
		{ID: "d-tight", Match: policy.Matcher{Ops: []posix.Op{posix.OpRename}}, Rate: 25, Burst: 2},
	}
	ops := []posix.Op{posix.OpStat, posix.OpOpen, posix.OpGetAttr, posix.OpRename, posix.OpUnlink /* unmatched */}
	ref := make(map[string]*refQueue)
	byOp := make(map[posix.Op]*policy.Rule)
	for i := range rules {
		s.ApplyRule(rules[i])
		ref[rules[i].ID] = newRefQueue(rules[i].ID, clk) // same instant: same windows
		byOp[rules[i].Match.Ops[0]] = &rules[i]
	}
	refPassthrough := metrics.NewRateCounter("passthrough", clk, time.Second)

	waits, drops, zeroWaits := 0, 0, 0
	for step := 0; step < 1500; step++ {
		// Time passes: mostly a fraction of a window, sometimes several.
		switch rng.Intn(20) {
		case 0:
			clk.Advance(time.Duration(1+rng.Intn(4)) * time.Second)
		case 1, 2, 3:
			clk.Advance(time.Duration(rng.Intn(400)) * time.Millisecond)
		default:
			clk.Advance(time.Duration(rng.Intn(3000)) * time.Microsecond)
		}
		if rng.Intn(200) == 0 { // the feedback loop retunes the tight queue
			r := byOp[posix.OpRename]
			r.Rate = float64(10 + rng.Intn(40))
			s.SetRate(r.ID, r.Rate)
		}

		req := &posix.Request{Op: ops[rng.Intn(len(ops))], Path: "/pfs/f", JobID: "job1"}
		start := clk.Now()
		done := make(chan error, 1)
		go func() { done <- s.Enforce(req) }()
		var err error
		waited := false
	admit:
		for {
			select {
			case err = <-done:
				break admit
			default:
			}
			// Not back yet: the request is either still running or parked
			// in its bucket; a parked one sleeps until the clock reaches
			// its deadline.
			if next, ok := clk.NextDeadline(); ok {
				waited = true
				clk.AdvanceTo(next)
			}
			runtime.Gosched()
		}
		end := clk.Now()

		rule := byOp[req.Op]
		switch {
		case rule == nil:
			refPassthrough.AddAt(1, start)
		case rule.Action == policy.ActionDrop:
			r := ref[rule.ID]
			r.demand.AddAt(1, start)
			if err == ErrRateLimited {
				r.dropped++
				drops++
				err = nil
			} else {
				r.admitted.AddAt(1, start)
			}
		case waited:
			r := ref[rule.ID]
			r.demand.AddAt(1, start)
			r.latency.Observe(end.Sub(start))
			r.admitted.AddAt(1, end)
			waits++
		default:
			r := ref[rule.ID]
			r.demand.AddAt(1, start)
			r.admitted.AddAt(1, start)
			if rule.Rate != policy.Unlimited {
				r.latency.ObserveZero()
				zeroWaits++
			}
		}
		if err != nil {
			t.Fatalf("step %d: %v: %v", step, req, err)
		}

		// Collecting and reading a series close elapsed windows, so do
		// either on some steps only: the others leave it to the next add.
		// A series holds every window closed so far.
		if rng.Intn(3) == 0 {
			got := s.Collect()
			now := clk.Now()
			want := Stats{Info: s.Info(), Passthrough: refPassthrough.Total()}
			for i := range rules { // already in RuleID order
				want.Queues = append(want.Queues, ref[rules[i].ID].stats(rules[i].ID, rules[i].Rate, rules[i].Burst, now))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: Collect diverged from the reference\n got %+v\nwant %+v", step, got, want)
			}
		}
		if rng.Intn(4) != 0 {
			continue
		}
		for id, r := range ref {
			q := s.snap.Load().byID[id].q
			for _, pair := range [][2]*metrics.RateCounter{{q.demand, r.demand}, {q.admitted, r.admitted}} {
				if got, want := pair[0].Snapshot(), pair[1].Snapshot(); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: series %s diverged: %d points against the reference's %d", step, got.Name, got.Len(), want.Len())
				}
			}
		}
	}
	if waits < 25 || drops < 25 || zeroWaits < 25 {
		t.Fatalf("fixture lost its mix: %d waits, %d drops, %d zero-wait admissions", waits, drops, zeroWaits)
	}
}
