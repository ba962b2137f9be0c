package metrics

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"padll/internal/clock"
)

// RateCounter measures the throughput of a request stream over fixed
// sampling windows. It is the statistic a PADLL data-plane stage exposes
// to the control plane's collect step (§III-B step 1 of the feedback
// loop), and the instrument the experiment harness uses to draw figures.
//
// Add records events at the counter's clock's current instant. Closing a
// window appends a sample (events/second over the window) to the backing
// series. Windows with zero events still produce samples so figures show
// idle periods.
//
// Concurrency: adds inside an open window touch only a sharded atomic
// cell — no lock. The window boundary (close + series append) is guarded
// by a mutex, and shards are folded in fixed index order, so a
// single-goroutine clock.Sim run produces byte-identical series across
// runs. Under concurrent real-clock use, an add racing a window close may
// be attributed to the adjacent window — the same boundary ambiguity the
// previous fully-locked implementation had, since attribution was always
// decided by lock-acquisition order.
type RateCounter struct {
	clk    clock.Clock
	window time.Duration

	// winEndNano is the open window's end (unix nanoseconds). The add
	// fast path compares against it without taking the mutex; the strict
	// `<` mirrors rollLocked's `>=` close condition, so an instant that
	// lands exactly on the boundary takes the slow path and rolls.
	winEndNano atomic.Int64
	// shards holds the open window's counts, allocated on the first Add
	// (see striped).
	shards striped

	// seq/pubTotal/pubRate back the lock-free read path of CollectAt.
	// seq is a seqlock generation: odd while a window close is mutating
	// the counter, bumped even when it finishes. pubTotal mirrors
	// totalClosed and pubRate the last completed window's rate (as float
	// bits), both republished under the mutex at every close, so a reader
	// that observes a stable even seq has read a consistent pair without
	// touching the mutex.
	seq      atomic.Uint32
	pubTotal atomic.Int64
	pubRate  atomic.Uint64

	mu       sync.Mutex
	winStart time.Time
	// totalClosed counts events already folded out of the shards; the
	// lifetime total is totalClosed plus the live shard sum.
	totalClosed int64
	series      *Series
	maxSamples  int // 0 = unbounded
}

// NewRateCounter returns a counter sampling over the given window. The
// first window opens at the clock's current instant.
func NewRateCounter(name string, clk clock.Clock, window time.Duration) *RateCounter {
	if window <= 0 {
		window = time.Second
	}
	rc := &RateCounter{
		clk:      clk,
		window:   window,
		winStart: clk.Now(),
		series:   NewSeries(name),
	}
	rc.winEndNano.Store(rc.winStart.Add(window).UnixNano())
	return rc
}

// SetMaxSamples bounds the backing series to the most recent n samples
// (0 disables the bound). A stage bounds its counters: it reads only the
// last window's rate, never the series, and would otherwise append one
// point per window for as long as it lives.
func (rc *RateCounter) SetMaxSamples(n int) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.maxSamples = n
}

// Add records n events at the current instant, closing any elapsed
// windows first.
func (rc *RateCounter) Add(n int64) {
	rc.AddAt(n, rc.clk.Now()) // Add is the exact-instant form; request paths share one read through AddAt
}

// AddAt records n events at a caller-supplied instant, letting hot paths
// share one clock read across several counters. Instants may lag the
// real clock slightly (hot paths amortize clock reads); an instant
// earlier than the open window is attributed to the open window.
func (rc *RateCounter) AddAt(n int64, now time.Time) {
	if now.UnixNano() < rc.winEndNano.Load() {
		rc.shards.add(n)
		return
	}
	rc.mu.Lock()
	rc.rollLocked(now)
	rc.shards.add(n)
	rc.mu.Unlock()
}

// Total returns the lifetime event count.
func (rc *RateCounter) Total() int64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.totalClosed + rc.shards.sum()
}

// CollectAt returns the lifetime event count and the most recently
// completed window's rate (0 when none has completed) as of a
// caller-supplied instant, so a snapshot of many counters shares one
// clock read, and reports whether the counter is quiet: no in-window
// counts pending and a zero last rate. When the open window has not
// elapsed as of now, no close is due and the answer is the published
// pair plus the live shard sum — all atomics, no mutex. The seqlock
// re-check catches a close racing in from a reader with a later instant;
// on any doubt the slow path takes the lock. For a fleet's many idle
// queues (no cells allocated, window never elapsing under a quiet clock)
// a collect round reads three atomics per counter instead of locking and
// rolling ~184k times per 10k-stage round.
//
// A quiet counter is at a fixed point — absent further adds, every
// future read returns the same (total, lastRate) pair however far the
// clock advances, because only empty windows remain to close. (A
// non-zero lastRate decays to zero one window later, and pending counts
// surface as a non-zero rate when their window closes — both
// disqualify.) This is what lets a stage prove its statistics frozen
// without re-materializing them; see stage.CollectQuietInto.
func (rc *RateCounter) CollectAt(now time.Time) (total int64, lastRate float64, quiet bool) {
	if now.UnixNano() < rc.winEndNano.Load() {
		if s := rc.seq.Load(); s&1 == 0 {
			live := rc.shards.sum()
			total = rc.pubTotal.Load() + live
			lastRate = math.Float64frombits(rc.pubRate.Load())
			if rc.seq.Load() == s {
				return total, lastRate, live == 0 && lastRate == 0
			}
		}
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.rollLocked(now)
	live := rc.shards.sum()
	total = rc.totalClosed + live
	lastRate = 0
	if rc.series.Len() > 0 {
		lastRate = rc.series.Points[rc.series.Len()-1].Value
	}
	return total, lastRate, live == 0 && lastRate == 0
}

// Flush closes the current window (even if partial) and returns a copy of
// the accumulated series. Used at experiment end so the tail shows up.
func (rc *RateCounter) Flush() *Series {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	now := rc.clk.Now()
	rc.rollLocked(now)
	rc.seq.Add(1) // odd: partial-window close in progress
	if live := rc.drainLocked(); live > 0 {
		elapsed := now.Sub(rc.winStart).Seconds()
		if elapsed > 0 {
			rc.appendLocked(now, float64(live)/elapsed)
		}
		rc.winStart = now
		rc.winEndNano.Store(now.Add(rc.window).UnixNano())
	}
	rc.seq.Add(1) // even: stable again
	out := NewSeries(rc.series.Name)
	out.Points = append(out.Points, rc.series.Points...)
	return out
}

// drainLocked folds every shard into the running total and returns the
// folded sum. Shards are visited in fixed index order; the order is
// immaterial for the sums recorded (integer addition commutes) but keeps
// the fold itself deterministic.
func (rc *RateCounter) drainLocked() int64 {
	sum := rc.shards.drain()
	rc.totalClosed += sum
	rc.pubTotal.Store(rc.totalClosed)
	return sum
}

// rollLocked closes every window that has fully elapsed as of now. All
// events accumulated since the previous roll belong to the first closed
// window (they were recorded while it was open); any further elapsed
// windows were idle. winEndNano is published only after the last close,
// so a concurrent fast-path add either sees the stale end and queues on
// the mutex, or sees the final end and lands in the new open window.
// It runs once per sampling window and may grow the series.
func (rc *RateCounter) rollLocked(now time.Time) {
	if now.Sub(rc.winStart) < rc.window {
		return
	}
	rc.seq.Add(1) // odd: close in progress, lock-free readers stand off
	end := rc.winStart.Add(rc.window)
	rc.appendLocked(end, float64(rc.drainLocked())/rc.window.Seconds())
	rc.winStart = end
	for now.Sub(rc.winStart) >= rc.window {
		end = rc.winStart.Add(rc.window)
		rc.appendLocked(end, 0)
		rc.winStart = end
	}
	rc.winEndNano.Store(rc.winStart.Add(rc.window).UnixNano())
	rc.seq.Add(1) // even: stable again
}

func (rc *RateCounter) appendLocked(t time.Time, v float64) {
	rc.series.Append(t, v)
	rc.pubRate.Store(math.Float64bits(v))
	if pts := rc.series.Points; rc.maxSamples > 0 && len(pts) > rc.maxSamples {
		// Copy down rather than re-slice the tail: the series then lives
		// in one backing array for good, where a sliding window would run
		// off the end of each array and allocate the next.
		rc.series.Points = pts[:copy(pts, pts[len(pts)-rc.maxSamples:])]
	}
}
