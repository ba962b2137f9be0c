// Package interpose implements the transparent POSIX interception layer —
// the role LD_PRELOAD plays in the paper's C++ prototype (§III-C). A Shim
// wraps any posix.FileSystem (typically a mount.Router spanning the PFS
// and local file systems) and forwards every one of the 42 interposed
// calls, first classifying it (request differentiation, §III-A) and, for
// requests bound to a controlled file system, passing it through the
// data-plane stage's rate-limiting queues.
//
// Go cannot inject itself into a foreign process's libc, so the shim sits
// at the same call boundary in-process: applications built against
// posix.Client swap their backend for a Shim and are interposed with no
// other change — preserving the transparency property the evaluation
// measures (passthrough overhead, §IV-A).
package interpose

import (
	"sync/atomic"
	"time"

	"padll/internal/clock"
	"padll/internal/metrics"
	"padll/internal/mount"
	"padll/internal/posix"
	"padll/internal/stage"
)

// Shim is the interposition layer. It implements posix.FileSystem.
type Shim struct {
	backend posix.FileSystem
	// router is backend when it is a *mount.Router, else nil: the shim
	// then resolves each request's mount, reads Controlled off it and
	// hands it back to the router to forward on — a path is matched
	// against the mount table once; a descriptor is looked up again when
	// it is forwarded, since Enforce may block in between.
	router *mount.Router
	stg    *stage.Stage
	clk    clock.Clock

	// stripes holds the interception counters, one padded cell per
	// stripe (metrics.StripeIndex), so concurrent callers write no common
	// line; Stats sums them. An allocation of their own keeps stripe 0
	// off the line the read-only fields above sit on.
	stripes *[metrics.Stripes]shimStripe
	latency *metrics.Histogram // end-to-end latency of controlled calls
}

// shimStripe is one stripe's share of the interception counters. Every
// call is counted exactly once, by disposition and operation; totals and
// the per-operation view are sums over these cells. Slot posix.NumOps
// takes operations outside the table.
type shimStripe struct {
	controlled [posix.NumOps + 1]atomic.Int64
	bypassed   [posix.NumOps + 1]atomic.Int64
	_          [(64 - 2*(posix.NumOps+1)*8%64) % 64]byte // whole cache lines
}

var _ posix.FileSystem = (*Shim)(nil)

// New returns a shim interposing on backend with the given data-plane
// stage. When the backend is a *mount.Router the shim controls exactly
// the requests that resolve to a Controlled mount (requests to
// xfs/NFS-like mounts bypass throttling, as in the paper); for any other
// backend every request is controlled.
func New(backend posix.FileSystem, stg *stage.Stage, clk clock.Clock) *Shim {
	router, _ := backend.(*mount.Router)
	return &Shim{
		backend: backend,
		router:  router,
		stg:     stg,
		clk:     clk,
		stripes: new([metrics.Stripes]shimStripe),
		latency: metrics.NewLatencyHistogram(),
	}
}

// sampleEvery is the stride of the end-to-end latency sample (power of
// two): the histogram is diagnostic, and a clock read costs more than
// everything else the shim does for a request.
const sampleEvery = 64

// Apply implements posix.FileSystem: intercept, differentiate, throttle,
// submit. The shim adds no allocations of its own on top of the backend,
// counts the call with one atomic add, and reads the clock only for the
// calls it samples.
func (s *Shim) Apply(req *posix.Request, rep *posix.Reply) error {
	st := &s.stripes[metrics.StripeIndex()]
	op := posix.NumOps
	if req.Op.Valid() {
		op = int(req.Op)
	}

	var m *mount.Mount
	if s.router != nil {
		var err error
		m, err = s.router.Route(req)
		if err != nil {
			// No mount serves it: nothing to throttle, nothing to forward.
			st.bypassed[op].Add(1)
			return err
		}
		if !m.Controlled {
			// Requests to file systems other than the PFS are submitted
			// directly, without any throttling (§III-A).
			st.bypassed[op].Add(1)
			return s.router.Forward(m, req, rep)
		}
	}

	// Each cell samples off its own count, so the aggregate stays 1 in
	// sampleEvery of all controlled calls (to within one sample per cell).
	sampled := st.controlled[op].Add(1)&(sampleEvery-1) == 0
	var start time.Time
	if sampled {
		start = s.clk.Now()
	}
	if err := s.stg.Enforce(req); err != nil {
		return err
	}
	var err error
	if s.router != nil {
		err = s.router.Forward(m, req, rep)
	} else {
		err = s.backend.Apply(req, rep)
	}
	if sampled {
		s.latency.Observe(s.clk.Now().Sub(start))
	}
	return err
}

// Stats reports interception counters.
type Stats struct {
	// Intercepted is the total number of calls seen.
	Intercepted int64
	// Controlled is the number routed through stage queues.
	Controlled int64
	// Bypassed is the number forwarded without throttling.
	Bypassed int64
	// PerOp is the per-operation interception count.
	PerOp map[posix.Op]int64
	// MeanLatencySeconds is the mean end-to-end latency of controlled
	// calls (queueing + backend service).
	MeanLatencySeconds float64
}

// Stats snapshots the shim's counters.
func (s *Shim) Stats() Stats {
	out := Stats{
		PerOp:              make(map[posix.Op]int64),
		MeanLatencySeconds: s.latency.Mean(),
	}
	for i := range s.stripes {
		st := &s.stripes[i]
		for op := range st.controlled {
			c, b := st.controlled[op].Load(), st.bypassed[op].Load()
			out.Controlled += c
			out.Bypassed += b
			if c+b > 0 && op < posix.NumOps {
				out.PerOp[posix.Op(op)] += c + b
			}
		}
	}
	out.Intercepted = out.Controlled + out.Bypassed
	return out
}
