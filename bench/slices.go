package main

// Closed-loop direct/bridged slices: the measuring scheme of the walk
// and churn workloads.

import (
	"sync"
	"time"
)

// slice is one timed stretch of W closed-loop workers.
type slice struct {
	rate    float64 // ops/s, summed over the workers' own elapsed times
	ops     int64
	failed  int64
	mallocs uint64
	lat     []time.Duration // sampled operation latencies
}

// worker runs one closed-loop worker until deadline and reports what it
// did. lat is the worker's reusable sample buffer.
type worker func(id int, deadline time.Time, lat []time.Duration) (ops, failed int64, samples []time.Duration)

// runSlice runs w workers until deadline. Workers finish their current
// unit of work after the deadline, so each is rated on its own elapsed
// time. Allocations are counted only when asked: reading them stops
// the world.
func runSlice(w int, d time.Duration, bufs [][]time.Duration, countAllocs bool, work worker) slice {
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		out    slice
		m0, m1 uint64
	)
	if countAllocs {
		m0, _ = heap()
	}
	t0 := now()
	deadline := t0.Add(d)
	for id := 0; id < w; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ops, failed, samples := work(id, deadline, bufs[id][:0])
			elapsed := now().Sub(t0).Seconds()
			mu.Lock()
			out.rate += float64(ops) / elapsed
			out.ops += ops
			out.failed += failed
			out.lat = append(out.lat, samples...)
			mu.Unlock()
		}(id)
	}
	wg.Wait()
	if countAllocs {
		m1, _ = heap()
	}
	out.mallocs = m1 - m0
	return out
}

// sampleBufs preallocates the workers' latency buffers so sampling does
// not allocate inside a slice.
func sampleBufs(w int) [][]time.Duration {
	bufs := make([][]time.Duration, w)
	for i := range bufs {
		bufs[i] = make([]time.Duration, 0, 1<<18)
	}
	return bufs
}

// sample appends d unless the buffer is full: a full buffer keeps the
// slice's first samples rather than growing mid-measurement.
func sample(lat []time.Duration, d time.Duration) []time.Duration {
	if len(lat) < cap(lat) {
		lat = append(lat, d)
	}
	return lat
}

// minPairs is the fewest direct/bridged pairs a run may be cut into.
const minPairs = 5

// paired alternates direct and bridged slices and reduces them to the
// end-to-end metrics: the overhead ratio (direct ops/s over bridged
// ops/s) and the latency ratio (bridged sample median over direct sample
// median) are medians of per-pair ratios, so that host drift between
// pairs cancels; absolute throughput and latency are medians over the
// slices. Slices are short and many: the
// host's disturbances come in bursts, and a median over a hundred
// 100 ms slices shrugs off the ones a burst hits, where five long
// slices would each carry their share of it. It returns how many
// operations the bridged workers issued.
func paired(e *env, o *outcome, direct, bridged worker) (bridgedOps int64) {
	d := e.size.slice
	pairs := int(e.seconds / (2 * d.Seconds()))
	if pairs < minPairs {
		pairs = minPairs
		d = time.Duration(e.seconds / (2 * minPairs) * float64(time.Second))
	}
	bufs := sampleBufs(e.workers)
	var ratios, latRatios, rates, directRates, p50s, directP50s []float64
	var pooled []float64
	var mallocs uint64
	for i := 0; i < pairs; i++ {
		ds := runSlice(e.workers, d, bufs, false, direct)
		bs := runSlice(e.workers, d, bufs, e.trace, bridged)
		o.attempted += ds.ops + bs.ops
		o.failed += ds.failed + bs.failed
		if ds.failed+bs.failed > 0 {
			o.fail(0, "pair %d: %d direct and %d bridged operations failed", i, ds.failed, bs.failed)
		}
		ratios = append(ratios, ds.rate/bs.rate)
		rates = append(rates, bs.rate)
		directRates = append(directRates, ds.rate)
		us := durationsUs(bs.lat)
		p50, directP50 := median(us), median(durationsUs(ds.lat))
		p50s, directP50s = append(p50s, p50), append(directP50s, directP50)
		latRatios = append(latRatios, p50/directP50)
		pooled = append(pooled, us...)
		bridgedOps += bs.ops
		mallocs += bs.mallocs
	}
	o.vals["overhead_ratio"] = median(ratios)
	o.vals["latency_ratio"] = median(latRatios)
	o.vals["app.ops_per_s"] = median(rates)
	o.vals["app.op_p50_us"] = median(p50s)
	o.vals["app.direct_op_p50_us"] = median(directP50s)
	o.vals["app.op_p99_us"] = quantile(pooled, 0.99)
	o.vals["app.allocs_per_op"] = float64(mallocs) / float64(bridgedOps)
	o.vals["kernel.direct_ops_per_s"] = median(directRates)
	return bridgedOps
}
