package control

import (
	"sync"

	"padll/internal/rpcio"
	"padll/internal/stage"
)

// StageConn is the control plane's one channel to a data-plane stage.
// Remote stages speak the batched frame protocol (RemoteConn); the
// cluster simulator, single-process deployments and tests drive
// in-process stages directly (LocalConn). Either way the control
// plane's logic is identical — the property that lets the same control
// algorithms run against live and simulated clusters.
type StageConn interface {
	// Info returns the stage's registration identity.
	Info() stage.Info
	// Exchanger is one exchange with the stage, in two halves so a round
	// can have every member's request on the wire before it waits for
	// the first reply: ops apply in order (one result per op; a single
	// operation is a one-op call), then, when dst is non-nil, the
	// stage's statistics are collected into caller-owned dst — every
	// field overwritten, capacity reused — unless the caller held dst
	// untouched since this connection last filled it and nothing has
	// changed, when dst stays as it is and changed reports false. The
	// blocking form is rpcio.Exec, the same for every connection.
	rpcio.Exchanger
	// WireStats reports the connection's cumulative traffic (zero for
	// connections that never serialize).
	WireStats() rpcio.WireStats
	// Close releases the connection.
	Close() error
}

// LocalConn drives an in-process stage directly, with no protocol in
// between: the whole exchange happens in Start and Finish hands over
// its outcome.
type LocalConn struct {
	Stg *stage.Stage

	// mu guards busy — whether an exchange is between its Start and its
	// Finish — and idle, signalled when one ends.
	mu   sync.Mutex
	idle *sync.Cond
	busy bool

	// The rest belongs to the exchange in flight: its outcome, and the
	// collect bookkeeping behind an honest changed — the buffer last
	// filled and the stage's quiescence token from that fill (zero when
	// the stage was not at a fixed point).
	results []rpcio.OpResult
	changed bool
	err     error
	filled  *stage.Stats
	tok     uint64
}

var _ StageConn = (*LocalConn)(nil)

// Info implements StageConn.
func (c *LocalConn) Info() stage.Info { return c.Stg.Info() }

// acquire waits for the connection's turn and takes it; Finish gives it
// back.
func (c *LocalConn) acquire() {
	c.mu.Lock()
	if c.idle == nil {
		c.idle = sync.NewCond(&c.mu)
	}
	for c.busy {
		c.idle.Wait() //lint:allow lockcheck Cond.Wait releases c.mu for as long as it blocks
	}
	c.busy = true
	c.mu.Unlock()
}

// Start implements StageConn directly on the stage. An unchanged collect
// is one the stage's quiescence token vouches for (see
// stage.CollectQuietInto), so it touches no counter.
func (c *LocalConn) Start(ops []rpcio.StageOp, dst *stage.Stats, held bool) {
	c.acquire()
	if c.results, c.err = rpcio.ApplyOps(c.Stg, ops, nil); c.err != nil || dst == nil {
		return
	}
	if held && dst == c.filled && c.tok != 0 && c.Stg.QuietSince(c.tok) {
		return
	}
	c.tok = c.Stg.CollectQuietInto(dst)
	c.filled = dst
	c.changed = true
}

// Finish implements StageConn.
func (c *LocalConn) Finish() (results []rpcio.OpResult, changed bool, err error) {
	results, changed, err = c.results, c.changed, c.err
	c.results, c.changed, c.err = nil, false, nil
	c.mu.Lock()
	c.busy = false
	c.mu.Unlock()
	c.idle.Signal()
	return results, changed, err
}

// Retry implements StageConn: an in-process exchange has no transport
// to fail.
func (c *LocalConn) Retry(int) bool { return false }

// WireStats implements StageConn: nothing is serialized.
func (c *LocalConn) WireStats() rpcio.WireStats { return rpcio.WireStats{} }

// Close implements StageConn.
func (c *LocalConn) Close() error { return nil }

// RemoteConn drives a stage over the frame transport: every exchange is
// one Stage.Batch round trip, and after the first collect only changed
// queues cross the wire.
type RemoteConn struct {
	info   stage.Info
	handle *rpcio.StageHandle
}

var _ StageConn = (*RemoteConn)(nil)

// NewRemoteConn wraps a dialed stage handle with its registered identity.
func NewRemoteConn(info stage.Info, handle *rpcio.StageHandle) *RemoteConn {
	return &RemoteConn{info: info, handle: handle}
}

// Info implements StageConn.
func (c *RemoteConn) Info() stage.Info { return c.info }

// Start implements StageConn.
func (c *RemoteConn) Start(ops []rpcio.StageOp, dst *stage.Stats, held bool) {
	c.handle.Start(ops, dst, held)
}

// Finish implements StageConn.
func (c *RemoteConn) Finish() ([]rpcio.OpResult, bool, error) { return c.handle.Finish() }

// Retry implements StageConn on the handle's backoff schedule.
func (c *RemoteConn) Retry(attempt int) bool { return c.handle.Retry(attempt) }

// WireStats implements StageConn.
func (c *RemoteConn) WireStats() rpcio.WireStats { return c.handle.WireStats() }

// Close implements StageConn.
func (c *RemoteConn) Close() error { return c.handle.Close() }
