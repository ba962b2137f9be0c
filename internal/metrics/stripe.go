package metrics

import (
	"sync/atomic"
	"unsafe"
)

// Stripes is the number of cells a striped counter spreads its writers
// over. Sixteen is enough to separate the replayer's rank threads
// without bloating the fold loop that runs at every window close.
const Stripes = 16

// StripeIndex picks the calling goroutine's stripe, in [0, Stripes).
// Goroutine stacks live in distinct allocations, so the address of a
// stack variable separates concurrent callers without any shared state;
// the pointer is only folded into an index, never dereferenced or
// converted back. It is the one stripe selector of the data plane: the
// rate counters, the latency histogram's zero-wait cells, the shim's
// interception counters and the stage's amortized clock all index their
// per-stripe state with it. Which stripe an event lands in never affects
// a total (integer addition commutes), so striping has no bearing on
// determinism.
//
//lint:hotpath
func StripeIndex() int {
	var probe byte
	return stripeOf(uintptr(unsafe.Pointer(&probe)))
}

// stripeOf folds a stack address into a stripe. Stacks are power-of-two
// sized and aligned, 2KiB at the smallest, so goroutines running the
// same code at the same depth differ only in the bits above their stack
// size: the low bits of addr>>11 alone would put every such pair with
// stacks of 32KiB or more on one stripe. XOR-folding all the 4-bit
// groups above bit 11 instead maps any run of up to Stripes neighbouring
// stacks of one size, whatever the size, onto distinct stripes (each bit
// of the stack's ordinal lands on its own index bit).
func stripeOf(addr uintptr) int {
	x := uint64(addr) >> 11
	x ^= x >> 32
	x ^= x >> 16
	x ^= x >> 8
	x ^= x >> 4
	return int(x & (Stripes - 1))
}

// cell is one event counter, padded so neighbouring stripes do not share
// a cache line (64B on every target we run on).
type cell struct {
	n atomic.Int64
	_ [56]byte
}

// striped is a lazily allocated array of Stripes cells. A counter that
// has never counted keeps no cells at all: its sweeps are a nil check,
// and a fleet's many idle queues cost ~1KB less each — which is what
// keeps a thousand-stage collect round inside the cache instead of
// walking 16 padded lines per idle counter.
type striped struct {
	cells atomic.Pointer[[Stripes]cell]
}

// add adds n to the calling goroutine's cell, allocating the array on
// first use.
//
//lint:hotpath
func (s *striped) add(n int64) {
	arr := s.cells.Load()
	if arr == nil {
		arr = s.alloc()
	}
	arr[StripeIndex()].n.Add(n)
}

// alloc publishes the cell array on the first-ever add. A lost CAS race
// re-loads the winner's array, so no add ever lands in an orphaned cell.
//
//lint:coldpath runs at most once per counter lifetime: first-add cell allocation
func (s *striped) alloc() *[Stripes]cell {
	fresh := new([Stripes]cell)
	if s.cells.CompareAndSwap(nil, fresh) {
		return fresh
	}
	return s.cells.Load()
}

// sum returns the cells' total (0 when no add has ever allocated them).
func (s *striped) sum() int64 {
	arr := s.cells.Load()
	if arr == nil {
		return 0
	}
	var sum int64
	for i := range arr {
		sum += arr[i].n.Load()
	}
	return sum
}

// drain moves every cell's count out and returns the total. Cells are
// visited in fixed index order, and an empty cell is only read, so a
// sweep over idle stripes leaves their lines shared.
func (s *striped) drain() int64 {
	arr := s.cells.Load()
	if arr == nil {
		return 0
	}
	var sum int64
	for i := range arr {
		if arr[i].n.Load() != 0 {
			sum += arr[i].n.Swap(0)
		}
	}
	return sum
}
