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

// lineCells is how many counters fit one stripe's cache line (64B on
// every target we run on).
const lineCells = 8

// Lines is a lazily allocated array of Stripes cache lines, each holding
// eight counters. A striped counter owns one column (0–7) of a Lines:
// cell i of the counter is column col of line i. Counters built on
// different columns of one Lines (NewRateCounterOn, NewLatencyHistogramOn)
// put what one event bumps together — a stage queue's demand, admitted
// and zero-wait counts — on one line per stripe instead of one line per
// counter, while each still sums and drains only its own column. The zero
// value is ready to use. Lines that have never counted keep no cells at
// all: their sweeps are a nil check, and a fleet's many idle queues cost
// ~1KB less each — which is what keeps a thousand-stage collect round
// inside the cache instead of walking 16 padded lines per idle counter.
type Lines struct {
	arr atomic.Pointer[[Stripes][lineCells]atomic.Int64]
}

// alloc publishes the line array on the first-ever add. A lost CAS race
// re-loads the winner's array, so no add ever lands in an orphaned cell.
//
//lint:coldpath runs at most once per Lines lifetime: first-add cell allocation
func (l *Lines) alloc() *[Stripes][lineCells]atomic.Int64 {
	fresh := new([Stripes][lineCells]atomic.Int64)
	if l.arr.CompareAndSwap(nil, fresh) {
		return fresh
	}
	return l.arr.Load()
}

// striped is one column of a Lines: a counter of Stripes cells.
type striped struct {
	lines *Lines
	col   int
}

// add adds n to cell i (the caller's StripeIndex), allocating the lines
// on first use.
//
//lint:hotpath
func (s striped) add(n int64, i int) {
	arr := s.lines.arr.Load()
	if arr == nil {
		arr = s.lines.alloc()
	}
	arr[i][s.col].Add(n)
}

// untouched reports that no counter on the lines has ever counted.
func (s striped) untouched() bool { return s.lines.arr.Load() == nil }

// sum returns the cells' total (0 when no add has ever allocated them).
func (s striped) sum() int64 {
	arr := s.lines.arr.Load()
	if arr == nil {
		return 0
	}
	var sum int64
	for i := range arr {
		sum += arr[i][s.col].Load()
	}
	return sum
}

// drain moves every cell's count out and returns the total. Cells are
// visited in fixed index order, and an empty cell is only read, so a
// sweep over idle stripes leaves their lines shared.
func (s striped) drain() int64 {
	arr := s.lines.arr.Load()
	if arr == nil {
		return 0
	}
	var sum int64
	for i := range arr {
		if c := &arr[i][s.col]; c.Load() != 0 {
			sum += c.Swap(0)
		}
	}
	return sum
}
