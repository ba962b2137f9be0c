package metrics

import (
	"testing"
	"time"

	"padll/internal/clock"
)

// TestRateCounterAddZeroAllocs guards the zero-alloc contract of the
// counter add path: inside an open window, Add/AddAt touch only a
// sharded atomic cell. The hour-long window on a pinned simulated clock
// guarantees no roll happens inside the measurement, so the amortized
// window close (rollLocked) stays out of frame exactly as it does on the
// data-plane fast path.
func TestRateCounterAddZeroAllocs(t *testing.T) {
	clk := clock.NewSim(time.Unix(0, 0))
	rc := NewRateCounter("alloc", clk, time.Hour)
	now := clk.Now()

	rc.AddAt(1, now)
	if avg := testing.AllocsPerRun(1000, func() {
		rc.AddAt(1, now)
	}); avg != 0 {
		t.Errorf("AddAt allocates %.3f allocs/op, want 0", avg)
	}

	rc.Add(1)
	if avg := testing.AllocsPerRun(1000, func() {
		rc.Add(1)
	}); avg != 0 {
		t.Errorf("Add allocates %.3f allocs/op, want 0", avg)
	}
}

// TestObserveZeroZeroAllocs guards the zero-alloc contract of the
// histogram's lock-free zero-wait record.
func TestObserveZeroZeroAllocs(t *testing.T) {
	h := NewLatencyHistogram()
	h.ObserveZero() // first call allocates the cells
	if avg := testing.AllocsPerRun(1000, h.ObserveZero); avg != 0 {
		t.Errorf("ObserveZero allocates %.3f allocs/op, want 0", avg)
	}
}
