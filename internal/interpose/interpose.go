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

	"padll/internal/clock"
	"padll/internal/metrics"
	"padll/internal/mount"
	"padll/internal/posix"
	"padll/internal/stage"
)

// ControlDecider reports whether a request targets a controlled file
// system (and therefore must pass through the stage's queues).
type ControlDecider func(req *posix.Request) bool

// Shim is the interposition layer. It implements posix.FileSystem.
type Shim struct {
	backend posix.FileSystem
	stg     *stage.Stage
	clk     clock.Clock
	decide  ControlDecider

	// stripes holds the interception counters, one padded cell per
	// stripe (metrics.StripeIndex), so concurrent callers write no common
	// line; Stats sums them. An allocation of their own keeps stripe 0
	// off the line the read-only fields above sit on.
	stripes *[metrics.Stripes]shimStripe
	latency *metrics.Histogram // end-to-end latency of controlled calls
}

// shimStripe is one stripe's share of the interception counters. Every
// call is either controlled or bypassed, so the intercepted total is
// their sum and needs no counter of its own.
type shimStripe struct {
	controlled atomic.Int64
	bypassed   atomic.Int64
	perOp      [posix.NumOps]atomic.Int64
	_          [(64 - (2+posix.NumOps)*8%64) % 64]byte // whole cache lines
}

var _ posix.FileSystem = (*Shim)(nil)

// Option configures a Shim.
type Option func(*Shim)

// WithDecider overrides how the shim decides which requests to control.
func WithDecider(d ControlDecider) Option {
	return func(s *Shim) { s.decide = d }
}

// New returns a shim interposing on backend with the given data-plane
// stage. When the backend is a *mount.Router the default decider controls
// exactly the requests that resolve to a Controlled mount (requests to
// xfs/NFS-like mounts bypass throttling, as in the paper); for any other
// backend every request is controlled.
func New(backend posix.FileSystem, stg *stage.Stage, clk clock.Clock, opts ...Option) *Shim {
	s := &Shim{
		backend: backend,
		stg:     stg,
		clk:     clk,
		stripes: new([metrics.Stripes]shimStripe),
		latency: metrics.NewLatencyHistogram(),
	}
	if r, ok := backend.(*mount.Router); ok {
		s.decide = func(req *posix.Request) bool {
			m, ok := r.ResolveRequest(req)
			return ok && m.Controlled
		}
	} else {
		s.decide = func(*posix.Request) bool { return true }
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Apply implements posix.FileSystem: intercept, differentiate, throttle,
// submit. The shim adds no allocations of its own on top of the backend.
//
//lint:hotpath
func (s *Shim) Apply(req *posix.Request, rep *posix.Reply) error {
	st := &s.stripes[metrics.StripeIndex()]
	if req.Op.Valid() {
		st.perOp[req.Op].Add(1)
	}
	if req.Issued.IsZero() {
		req.Issued = s.clk.Now()
	}

	if !s.decide(req) {
		// Requests to file systems other than the PFS are submitted
		// directly, without any throttling (§III-A).
		st.bypassed.Add(1)
		return s.backend.Apply(req, rep)
	}

	n := st.controlled.Add(1)
	if err := s.stg.Enforce(req); err != nil {
		return err
	}
	err := s.backend.Apply(req, rep)
	// Sample end-to-end latency 1-in-64: the histogram is diagnostic,
	// and an extra clock read per call would dominate the interposition
	// cost the overhead experiment measures. Each stripe samples off its
	// own count, so the aggregate stays 1-in-64 of all controlled calls
	// (to within one sample per stripe).
	if n&63 == 0 {
		s.latency.Observe(s.clk.Now().Sub(req.Issued))
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
		out.Controlled += st.controlled.Load()
		out.Bypassed += st.bypassed.Load()
		for op := range st.perOp {
			if n := st.perOp[op].Load(); n > 0 {
				out.PerOp[posix.Op(op)] += n
			}
		}
	}
	out.Intercepted = out.Controlled + out.Bypassed
	return out
}

// Stage returns the shim's data-plane stage.
func (s *Shim) Stage() *stage.Stage { return s.stg }
