package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Histogram records latency observations into exponentially sized buckets
// and supports approximate quantiles. PADLL stages use it for per-queue
// service latency; the overhead experiment (§IV-A) uses it to compare
// baseline against passthrough interposition.
//
// A stage queue observes one wait per admitted request, and on a queue
// whose limit is not binding nearly all of them are zero: the token was
// in hand, and tokens in hand is not a wait. ObserveZero records those
// without the mutex, into striped cells that every reader folds into the
// bucket holding 0 before it answers — so n×ObserveZero is
// indistinguishable from n×Observe(0) to any reader, at any moment.
type Histogram struct {
	// obs mirrors total so readers can detect "never observed" without
	// the mutex: a fleet collect reads three quantiles per queue per
	// round, and most queues on most stages are idle — their histograms
	// answer with two atomic loads instead of a lock and a bucket walk.
	obs atomic.Int64
	// zeros holds the zero-length observations not yet folded into the
	// locked state below; allocated on the first ObserveZero.
	zeros striped

	mu      sync.Mutex
	bounds  []float64 // upper bound (seconds) of each bucket, ascending
	zeroIdx int       // index of the bucket an observation of 0 lands in
	counts  []int64   // len(bounds)+1, last bucket is overflow
	total   int64
	sum     float64
	min     float64
	max     float64
}

// NewLatencyHistogram returns a histogram with exponentially spaced
// bucket bounds from 100 ns to ~100 s (factor 2 per bucket).
func NewLatencyHistogram() *Histogram {
	var bounds []float64
	for b := 100e-9; b < 100; b *= 2 {
		bounds = append(bounds, b)
	}
	return NewHistogram(bounds)
}

// NewHistogram returns a histogram with the given ascending upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	cp := make([]float64, len(bounds))
	copy(cp, bounds)
	sort.Float64s(cp)
	return &Histogram{
		bounds:  cp,
		zeroIdx: sort.SearchFloat64s(cp, 0),
		counts:  make([]int64, len(cp)+1),
		min:     math.Inf(1),
		max:     math.Inf(-1),
	}
}

// ObserveZero records one observation of zero length. It takes no lock
// and writes only the calling goroutine's stripe; readers account for it
// exactly as for Observe(0).
func (h *Histogram) ObserveZero() { h.zeros.add(1) }

// idle reports that nothing was ever observed, without the mutex.
func (h *Histogram) idle() bool {
	return h.obs.Load() == 0 && h.zeros.cells.Load() == nil
}

// foldLocked moves the pending zero-length observations into the locked
// state, as that many Observe(0) calls would have. Every reader calls it
// first, so none can tell the two apart. Caller holds h.mu.
func (h *Histogram) foldLocked() {
	z := h.zeros.drain()
	if z == 0 {
		return
	}
	h.counts[h.zeroIdx] += z
	h.total += z
	h.obs.Store(h.total)
	if 0 < h.min {
		h.min = 0
	}
	if 0 > h.max {
		h.max = 0
	}
}

// Observe records one latency observation.
func (h *Histogram) Observe(d time.Duration) { h.ObserveSeconds(d.Seconds()) }

// ObserveSeconds records one observation expressed in seconds. Only a
// request that already blocked in its bucket is observed this way.
func (h *Histogram) ObserveSeconds(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.total++
	h.obs.Store(h.total)
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.foldLocked()
	return h.total
}

// Mean returns the mean observation in seconds (0 when empty).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.foldLocked()
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Min returns the smallest observation in seconds (0 when empty).
func (h *Histogram) Min() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.foldLocked()
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation in seconds (0 when empty).
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.foldLocked()
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Quantile returns an upper-bound estimate for the q-th quantile
// (0 < q <= 1): the upper bound of the bucket containing the rank,
// capped at the largest observation so estimates never exceed
// Quantile(1) and stay monotone in q.
func (h *Histogram) Quantile(q float64) float64 {
	if h.idle() {
		return 0 // never observed: what the locked path would answer
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.foldLocked()
	return h.quantileLocked(q)
}

// Quantiles3 answers three quantile queries in one lock acquisition —
// the shape of a queue-stats snapshot (p50/p95/p99) — and answers a
// never-observed histogram with zeros for the cost of two atomic loads.
func (h *Histogram) Quantiles3(q1, q2, q3 float64) (v1, v2, v3 float64) {
	if h.idle() {
		return 0, 0, 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.foldLocked()
	return h.quantileLocked(q1), h.quantileLocked(q2), h.quantileLocked(q3)
}

func (h *Histogram) quantileLocked(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := int64(math.Ceil(q * float64(h.total)))
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if i < len(h.bounds) {
				return math.Min(h.bounds[i], h.max)
			}
			return h.max
		}
	}
	return h.max
}
