package control

import (
	"math"
	"testing"
	"testing/quick"

	"padll/internal/clock"
)

func jobs4(demands [4]float64) []JobState {
	// The paper's Fig. 5 reservations: 40/60/80/120 KOps/s.
	res := [4]float64{40000, 60000, 80000, 120000}
	out := make([]JobState, 4)
	for i := range out {
		out[i] = JobState{
			JobID:       []string{"job1", "job2", "job3", "job4"}[i],
			Demand:      demands[i],
			Reservation: res[i],
			Stages:      1,
		}
	}
	return out
}

func sum(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}

func TestStaticEqualShare(t *testing.T) {
	a := StaticEqualShare{}
	alloc := a.Allocate(300000, jobs4([4]float64{1, 1, 1, 1}))
	for id, v := range alloc {
		if v != 75000 {
			t.Errorf("%s = %v, want 75000", id, v)
		}
	}
}

func TestStaticFixedPerJob(t *testing.T) {
	a := StaticEqualShare{PerJob: 75000}
	alloc := a.Allocate(300000, jobs4([4]float64{1, 1, 1, 1})[:2])
	// Even with only 2 jobs the static setup assigns 75k each.
	for id, v := range alloc {
		if v != 75000 {
			t.Errorf("%s = %v, want 75000", id, v)
		}
	}
}

func TestStaticEmptyJobs(t *testing.T) {
	if got := (StaticEqualShare{}).Allocate(100, nil); len(got) != 0 {
		t.Errorf("alloc for no jobs = %v", got)
	}
}

func TestFixedRatesPriority(t *testing.T) {
	a := FixedRates{}
	alloc := a.Allocate(300000, jobs4([4]float64{1e6, 1e6, 1e6, 1e6}))
	want := map[string]float64{"job1": 40000, "job2": 60000, "job3": 80000, "job4": 120000}
	for id, w := range want {
		if alloc[id] != w {
			t.Errorf("%s = %v, want %v", id, alloc[id], w)
		}
	}
}

func TestFixedRatesUnreservedFallback(t *testing.T) {
	a := FixedRates{}
	jobs := []JobState{
		{JobID: "a", Reservation: 200},
		{JobID: "b"},
		{JobID: "c"},
	}
	alloc := a.Allocate(1000, jobs)
	if alloc["a"] != 200 {
		t.Errorf("a = %v, want 200", alloc["a"])
	}
	if alloc["b"] != 400 || alloc["c"] != 400 {
		t.Errorf("unreserved split = %v/%v, want 400/400", alloc["b"], alloc["c"])
	}
}

func TestProportionalShareGuaranteesReservations(t *testing.T) {
	a := ProportionalShare{}
	// Every job demands far more than its reservation.
	alloc := a.Allocate(300000, jobs4([4]float64{2e5, 2e5, 2e5, 2e5}))
	res := map[string]float64{"job1": 40000, "job2": 60000, "job3": 80000, "job4": 120000}
	for id, r := range res {
		if alloc[id] < r-1 {
			t.Errorf("%s = %v, below reservation %v", id, alloc[id], r)
		}
	}
	if got := usableSum(alloc, jobs4([4]float64{2e5, 2e5, 2e5, 2e5})); got > 300000+1 {
		t.Errorf("usable total = %v, exceeds cluster limit", got)
	}
}

func TestProportionalShareRedistributesLeftover(t *testing.T) {
	a := ProportionalShare{}
	// job1 demands almost nothing; its reserved-but-unused rate should
	// not block others: jobs 2..4 demand more than their reservations.
	alloc := a.Allocate(300000, jobs4([4]float64{1000, 150000, 150000, 150000}))
	if alloc["job1"] > 41000 {
		t.Errorf("job1 = %v; idle job should not hoard beyond its reservation", alloc["job1"])
	}
	// The leftover must flow to the demanding jobs above their
	// reservations.
	if alloc["job4"] <= 120000 {
		t.Errorf("job4 = %v, want > reservation 120000 (leftover share)", alloc["job4"])
	}
	if alloc["job2"] <= 60000 || alloc["job3"] <= 80000 {
		t.Errorf("job2/job3 = %v/%v, want above reservations", alloc["job2"], alloc["job3"])
	}
	// PFS-visible load (demand-capped allocations) stays within the limit.
	if got := usableSum(alloc, jobs4([4]float64{1000, 150000, 150000, 150000})); got > 300000+1 {
		t.Errorf("usable total = %v, exceeds limit", got)
	}
}

// usableSum sums min(allocation, demand cap): the load the PFS can see.
func usableSum(alloc map[string]float64, jobs []JobState) float64 {
	var s float64
	for _, j := range jobs {
		c := j.Demand * 1.1
		if c < 1 {
			c = 1
		}
		s += math.Min(alloc[j.JobID], c)
	}
	return s
}

func TestProportionalShareLeftoverProportionalToReservations(t *testing.T) {
	a := ProportionalShare{}
	// Two jobs, equal huge demand, reservations 1:2; the whole limit
	// should split 1:2.
	jobs := []JobState{
		{JobID: "a", Demand: 1e6, Reservation: 100},
		{JobID: "b", Demand: 1e6, Reservation: 200},
	}
	alloc := a.Allocate(3000, jobs)
	if math.Abs(alloc["a"]-1000) > 1 || math.Abs(alloc["b"]-2000) > 1 {
		t.Errorf("split = %v/%v, want 1000/2000", alloc["a"], alloc["b"])
	}
}

func TestProportionalShareDemandBelowLimit(t *testing.T) {
	a := ProportionalShare{DemandHeadroom: 0.1}
	// All jobs demand modestly: everyone gets their (inflated) demand,
	// nothing is force-fed ("when all jobs are running they are assigned
	// their demanded rate", Fig. 5 ④).
	alloc := a.Allocate(300000, jobs4([4]float64{10000, 20000, 30000, 40000}))
	wants := map[string]float64{"job1": 40000, "job2": 60000, "job3": 80000, "job4": 120000}
	demands := map[string]float64{"job1": 10000, "job2": 20000, "job3": 30000, "job4": 40000}
	for id := range wants {
		capVal := demands[id] * 1.1
		if capVal < wants[id] {
			// cap is max(reservation, demand*1.1): here reservation wins.
			capVal = wants[id]
		}
		if alloc[id] > capVal+1 {
			t.Errorf("%s = %v, exceeds cap %v", id, alloc[id], capVal)
		}
	}
}

func TestProportionalShareOversubscribedReservationsScale(t *testing.T) {
	a := ProportionalShare{}
	jobs := []JobState{
		{JobID: "a", Demand: 1e6, Reservation: 400},
		{JobID: "b", Demand: 1e6, Reservation: 600},
	}
	alloc := a.Allocate(500, jobs) // reservations sum to 1000 > 500
	if math.Abs(alloc["a"]-200) > 1 || math.Abs(alloc["b"]-300) > 1 {
		t.Errorf("scaled reservations = %v/%v, want 200/300", alloc["a"], alloc["b"])
	}
}

func TestProportionalShareEmptyAndZeroLimit(t *testing.T) {
	a := ProportionalShare{}
	if got := a.Allocate(100, nil); len(got) != 0 {
		t.Errorf("no jobs: %v", got)
	}
	if got := a.Allocate(0, jobs4([4]float64{1, 1, 1, 1})); len(got) != 0 {
		t.Errorf("zero limit: %v", got)
	}
}

// Property: proportional share never exceeds the cluster limit, never
// allocates negatively, and is work-conserving up to min(limit, total
// capped demand).
func TestProportionalShareInvariantsProperty(t *testing.T) {
	a := ProportionalShare{}
	f := func(d1, d2, d3, d4 uint32, limitRaw uint32) bool {
		limit := float64(limitRaw%500000) + 1
		demands := [4]float64{
			float64(d1 % 400000), float64(d2 % 400000),
			float64(d3 % 400000), float64(d4 % 400000),
		}
		jobs := jobs4(demands)
		alloc := a.Allocate(limit, jobs)
		var usable, capTotal, totalRes float64
		for _, j := range jobs {
			totalRes += j.Reservation
		}
		scale := 1.0
		if totalRes > limit {
			scale = limit / totalRes
		}
		for _, j := range jobs {
			v := alloc[j.JobID]
			if v < -1e-9 {
				return false
			}
			c := j.Demand * 1.1
			if c < 1 {
				c = 1
			}
			capTotal += c
			// Reservation floor: never below the scaled guarantee.
			if v < j.Reservation*scale-1e-6 {
				return false
			}
			// Never above max(cap, floor).
			ceil := math.Max(c, j.Reservation*scale)
			if v > ceil+1e-6 {
				return false
			}
			usable += math.Min(v, c)
		}
		if usable > limit+1e-6 {
			return false // PFS-visible load never above the cluster limit
		}
		// Work conservation: usable load reaches min(limit, capTotal).
		want := math.Min(limit, capTotal)
		return usable >= want-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDRFTwoResourcePaperExample(t *testing.T) {
	// The canonical DRF example (Ghodsi et al.): 9 CPUs, 18 GB;
	// job A demands <1 CPU, 4 GB> per task, job B <3 CPU, 1 GB>.
	// DRF equalizes dominant shares: A runs 3 tasks (12 GB dominant =
	// 2/3), B runs 2 tasks (6 CPU dominant = 2/3).
	capacities := []float64{9, 18}
	// Express demands as total desired (say 100 tasks each: effectively
	// unbounded).
	demands := [][]float64{
		{100 * 1, 100 * 4},
		{100 * 3, 100 * 1},
	}
	alloc := DRFAllocate(capacities, demands)
	shareA := alloc[0][1] / 18 // A's dominant resource is memory
	shareB := alloc[1][0] / 9  // B's dominant resource is CPU
	if math.Abs(shareA-shareB) > 0.02 {
		t.Errorf("dominant shares not equalized: A=%.3f B=%.3f", shareA, shareB)
	}
	if shareA < 0.6 || shareA > 0.72 {
		t.Errorf("A's dominant share = %.3f, want ~2/3", shareA)
	}
}

func TestDRFRespectsCapacities(t *testing.T) {
	capacities := []float64{100, 1000}
	demands := [][]float64{
		{500, 500},
		{500, 5000},
		{50, 10},
	}
	alloc := DRFAllocate(capacities, demands)
	for r := 0; r < 2; r++ {
		var used float64
		for j := range alloc {
			if alloc[j][r] < 0 {
				t.Fatalf("negative allocation job %d res %d", j, r)
			}
			used += alloc[j][r]
		}
		if used > capacities[r]*1.001 {
			t.Errorf("resource %d oversubscribed: %v > %v", r, used, capacities[r])
		}
	}
}

func TestDRFZeroDemandJobGetsNothing(t *testing.T) {
	alloc := DRFAllocate([]float64{10, 10}, [][]float64{{0, 0}, {5, 5}})
	if alloc[0][0] != 0 || alloc[0][1] != 0 {
		t.Errorf("zero-demand job allocated %v", alloc[0])
	}
	if alloc[1][0] < 4.9 {
		t.Errorf("demanding job under-allocated: %v", alloc[1])
	}
}

func TestDRFDemandSatisfiedStopsGrowing(t *testing.T) {
	// One small job and one huge job: the small job's allocation must
	// stop at its demand; the big job takes the rest.
	alloc := DRFAllocate([]float64{100}, [][]float64{{10}, {1000}})
	if alloc[0][0] > 10.01 {
		t.Errorf("small job over-allocated: %v", alloc[0][0])
	}
	if alloc[1][0] < 85 {
		t.Errorf("big job = %v, want ~90", alloc[1][0])
	}
}

func TestAlgorithmNames(t *testing.T) {
	if (StaticEqualShare{}).Name() != "static" ||
		(FixedRates{}).Name() != "priority" ||
		(ProportionalShare{}).Name() != "proportional-share" {
		t.Error("algorithm names changed; reports depend on them")
	}
}

func TestAIMDLimitConverges(t *testing.T) {
	// A backend sustainable at 100: probe fires when the limit is above.
	limit := 300.0
	a := &AIMDLimit{
		Probe:    func() bool { return limit > 100 },
		Min:      10,
		Max:      500,
		Increase: 5,
		Decrease: 0.7,
	}
	for i := 0; i < 200; i++ {
		limit = a.AdjustLimit(limit)
		if limit < 10-1e-9 || limit > 500+1e-9 {
			t.Fatalf("limit %v escaped [10,500]", limit)
		}
	}
	// Converged into the AIMD band around the sustainable point.
	if limit > 110 || limit < 60 {
		t.Errorf("limit = %v, want near 100 (AIMD band)", limit)
	}
}

func TestAIMDLimitDefaults(t *testing.T) {
	a := &AIMDLimit{Probe: func() bool { return false }, Max: 1000}
	next := a.AdjustLimit(500)
	if next != 510 { // default increase = Max/100
		t.Errorf("healthy step = %v, want 510", next)
	}
	a.Probe = func() bool { return true }
	next = a.AdjustLimit(500)
	if next != 350 { // default decrease = 0.7
		t.Errorf("back-off = %v, want 350", next)
	}
	// Nil probe behaves as healthy.
	a.Probe = nil
	if got := a.AdjustLimit(100); got != 110 {
		t.Errorf("nil probe step = %v, want 110", got)
	}
}

func TestControllerAppliesLimitAdapter(t *testing.T) {
	saturated := true
	ctl := New(nil,
		WithAlgorithm(StaticEqualShare{}),
		WithClusterLimit(1000),
		WithLimitAdapter(&AIMDLimit{
			Probe: func() bool { return saturated },
			Min:   100, Max: 2000, Increase: 50, Decrease: 0.5,
		}))
	stg, conn := localStage("s1", "j1", clock.NewSim(epoch))
	if err := ctl.Register(stg.Info(), conn); err != nil {
		t.Fatal(err)
	}
	alloc := ctl.RunOnce()
	if got := ctl.ClusterLimit(); got != 500 {
		t.Errorf("limit after saturated round = %v, want 500", got)
	}
	if alloc["j1"] != 500 {
		t.Errorf("allocation = %v, want the adapted limit", alloc)
	}
	saturated = false
	ctl.RunOnce()
	if got := ctl.ClusterLimit(); got != 550 {
		t.Errorf("limit after healthy round = %v, want 550", got)
	}
}
