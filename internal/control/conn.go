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
	// Exec is one exchange with the stage: ops apply in order (results
	// has one entry per op; a single operation is a one-op call), then,
	// when dst is non-nil, the stage's statistics are collected into
	// caller-owned dst — every field overwritten, capacity reused.
	//
	// held is the caller's promise that nobody has written dst since
	// this connection last filled it. Then, if the statistics have not
	// changed since that fill, dst is left untouched — it already holds
	// the current snapshot — and changed reports false. Without the
	// promise dst is always rewritten and changed is true.
	Exec(ops []rpcio.StageOp, dst *stage.Stats, held bool) (results []rpcio.OpResult, changed bool, err error)
	// WireStats reports the connection's cumulative traffic (zero for
	// connections that never serialize).
	WireStats() rpcio.WireStats
	// Close releases the connection.
	Close() error
}

// LocalConn drives an in-process stage directly, with no protocol in
// between.
type LocalConn struct {
	Stg *stage.Stage

	// mu guards the collect bookkeeping behind an honest changed: the
	// buffer last filled and the stage's quiescence token from that
	// fill (zero when the stage was not at a fixed point).
	mu     sync.Mutex
	filled *stage.Stats
	tok    uint64
}

var _ StageConn = (*LocalConn)(nil)

// Info implements StageConn.
func (c *LocalConn) Info() stage.Info { return c.Stg.Info() }

// Exec implements StageConn directly on the stage. An unchanged collect
// is one the stage's quiescence token vouches for (see
// stage.CollectQuietInto), so it touches no counter.
func (c *LocalConn) Exec(ops []rpcio.StageOp, dst *stage.Stats, held bool) ([]rpcio.OpResult, bool, error) {
	results, err := rpcio.ApplyOps(c.Stg, ops, nil)
	if err != nil {
		return nil, false, err
	}
	if dst == nil {
		return results, false, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if held && dst == c.filled && c.tok != 0 && c.Stg.QuietSince(c.tok) {
		return results, false, nil
	}
	c.tok = c.Stg.CollectQuietInto(dst)
	c.filled = dst
	return results, true, nil
}

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

// Exec implements StageConn.
func (c *RemoteConn) Exec(ops []rpcio.StageOp, dst *stage.Stats, held bool) ([]rpcio.OpResult, bool, error) {
	return c.handle.Exec(ops, dst, held)
}

// WireStats implements StageConn.
func (c *RemoteConn) WireStats() rpcio.WireStats { return c.handle.WireStats() }

// Close implements StageConn.
func (c *RemoteConn) Close() error { return c.handle.Close() }
