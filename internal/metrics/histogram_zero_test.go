package metrics

import (
	"sync"
	"testing"
	"testing/quick"
)

// histView is everything a reader can ask a histogram.
type histView struct {
	count            int64
	mean, min, max   float64
	q0, q50, q99, q1 float64
	p50, p95, p99    float64
}

func viewOf(h *Histogram) histView {
	v := histView{
		count: h.Count(), mean: h.Mean(), min: h.Min(), max: h.Max(),
		q0: h.Quantile(0), q50: h.Quantile(0.5), q99: h.Quantile(0.99), q1: h.Quantile(1),
	}
	v.p50, v.p95, v.p99 = h.Quantiles3(0.50, 0.95, 0.99)
	return v
}

// TestObserveZeroEqualsObserveOfZero is the contract ObserveZero is
// built on: n lock-free zero observations interleaved with m ordinary
// ones are indistinguishable, to every reader, from n×Observe(0) in
// their place — on the latency bounds and on bounds that put 0 in a
// bucket other than the first.
func TestObserveZeroEqualsObserveOfZero(t *testing.T) {
	boundSets := [][]float64{nil, {-1, -0.5, 0.25, 2}, {-3, -2}}
	f := func(zeros uint8, obs []int16, pick uint8) bool {
		mk := func() *Histogram {
			if b := boundSets[int(pick)%len(boundSets)]; b != nil {
				return NewHistogram(b)
			}
			return NewLatencyHistogram()
		}
		lockFree, locked := mk(), mk()
		// Interleave: one zero between ordinary observations while zeros
		// remain, the rest at the end; read mid-way so a fold happens
		// with observations still to come.
		z := int(zeros)
		for i, o := range obs {
			v := float64(o) * 1e-4
			lockFree.ObserveSeconds(v)
			locked.ObserveSeconds(v)
			if z > 0 {
				lockFree.ObserveZero()
				locked.ObserveSeconds(0)
				z--
			}
			if i == len(obs)/2 && viewOf(lockFree) != viewOf(locked) {
				return false
			}
		}
		for ; z > 0; z-- {
			lockFree.ObserveZero()
			locked.ObserveSeconds(0)
		}
		return viewOf(lockFree) == viewOf(locked)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestObserveZeroOnlyHistogram pins the all-zero case a never-binding
// queue produces: not idle, every statistic 0.
func TestObserveZeroOnlyHistogram(t *testing.T) {
	h := NewLatencyHistogram()
	if p50, p95, p99 := h.Quantiles3(0.5, 0.95, 0.99); p50 != 0 || p95 != 0 || p99 != 0 {
		t.Fatalf("empty Quantiles3 = %v %v %v", p50, p95, p99)
	}
	for i := 0; i < 5; i++ {
		h.ObserveZero()
	}
	want := histView{count: 5}
	if got := viewOf(h); got != want {
		t.Errorf("view = %+v, want %+v", got, want)
	}
}

// TestObserveZeroConcurrentWithReaders hammers ObserveZero from several
// goroutines beside ordinary observers and folding readers (run under
// -race): no observation may be lost or counted twice, whichever fold
// picks it up.
func TestObserveZeroConcurrentWithReaders(t *testing.T) {
	h := NewLatencyHistogram()
	const (
		zeroers = 4
		perG    = 20000
		slow    = 2000
	)
	var wg sync.WaitGroup
	for g := 0; g < zeroers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.ObserveZero()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < slow; i++ {
			h.ObserveSeconds(1e-3)
		}
	}()
	stop := make(chan struct{})
	readers := sync.WaitGroup{}
	readers.Add(1)
	go func() {
		defer readers.Done()
		var last int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			p50, p95, p99 := h.Quantiles3(0.50, 0.95, 0.99)
			if p50 > p95 || p95 > p99 {
				t.Errorf("quantiles not monotone: %v %v %v", p50, p95, p99)
				return
			}
			if n := h.Count(); n < last {
				t.Errorf("Count went backwards: %d after %d", n, last)
				return
			} else {
				last = n
			}
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()
	if got, want := h.Count(), int64(zeroers*perG+slow); got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
	if h.Min() != 0 || h.Max() != 1e-3 {
		t.Errorf("Min/Max = %v/%v, want 0/0.001", h.Min(), h.Max())
	}
}
