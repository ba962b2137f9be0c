// Package hotpathfix seeds hotpathcheck violations: allocation-shaped
// constructs inside //lint:hotpath functions and their static callees.
package hotpathfix

import (
	"fmt"
	"time"

	"padll/internal/clock"
)

type item struct{ n int }

type sink struct {
	m   map[string]int
	buf []int
}

func release() {}

//lint:hotpath
func fastAdd(s *sink, k string) {
	s.buf = append(s.buf, 1)        // want `append`
	s.m[k] = 1                      // want `map write`
	it := item{n: 2}                // want `composite literal`
	defer release()                 // want `defer`
	f := func() int { return it.n } // want `capturing function literal`
	_ = f
	fmt.Println(k) // want `fmt call`
	helper()
	coldHelper()
}

// helper is reached from the fastAdd hot root; its allocations count.
func helper() {
	_ = make([]int, 4) // want `make`
	_ = new(item)      // want `new`
}

//lint:coldpath deliberate fixture slow path; allocations here are off the contract
func coldHelper() {
	_ = make([]int, 8)
}

//lint:hotpath
func fastConcat(a, b string) string {
	go release() // want `go statement`
	return a + b // want `string concatenation`
}

//lint:hotpath
func fastBox(it item) any {
	return any(it) // want `interface conversion`
}

//lint:coldpath
func missingReason() {} // want `has no reason`

// doubly is annotated inconsistently.
//
//lint:hotpath
//lint:coldpath fixture reason
func doubly() {} // want `both //lint:hotpath and //lint:coldpath`

//lint:hotpath
func fastClean(s *sink, now int64) int64 {
	// Reads, arithmetic, and calls into annotated cold paths are fine.
	if len(s.buf) > 0 {
		now += int64(s.buf[0])
	}
	coldHelper()
	return now
}

// shim is the case the clock rule exists for: an interposition layer
// that stamped every request with the clock although only its 1-in-64
// latency sample ever read the stamp.
type shim struct {
	clk     clock.Clock
	sim     *clock.Sim
	calls   int64
	latency time.Duration
}

//lint:hotpath
func (s *shim) stampEveryCall() time.Time {
	s.calls++
	return s.clk.Now() // want `clock read`
}

//lint:hotpath
func (s *shim) sampleOneIn64(backend func()) {
	s.calls++
	sampled := s.calls&63 == 0
	var start time.Time
	if sampled {
		start = s.clk.Now() // under the guard: one call in 64 pays
	}
	backend()
	if sampled {
		s.latency = s.clk.Now().Sub(start)
	}
	if s.calls&(1<<10-1) == 1 {
		_ = s.sim.Now() // a mask test in the condition itself guards too
	} else {
		_ = s.sim.Now() // want `clock read`
	}
}

//lint:hotpath
func (s *shim) notAGuard(verbose bool) {
	timed := s.calls&63 == 0
	timed = verbose // reassigned from something that is no mask test
	if timed {
		_ = s.clk.Now() // want `clock read`
	}
	if verbose {
		_ = s.clk.Now() // want `clock read`
	}
	_ = s.clk.Now() //lint:allow hotpathcheck fixture: an exact read with its reason stated
	s.stampCallee()
}

//lint:hotpath
func (s *shim) negatedMask() {
	// x&m != k holds on 63 calls in 64: its then-branch is no sample,
	// its else-branch is.
	if s.calls&63 != 0 {
		_ = s.clk.Now() // want `clock read`
	} else {
		_ = s.clk.Now()
	}
	skipped := s.calls&63 != 0
	if skipped {
		_ = s.clk.Now() // want `clock read`
	}
}

// stampCallee is reached from a hot root; its clock read counts.
func (s *shim) stampCallee() {
	_ = s.clk.Now() // want `clock read`
}
