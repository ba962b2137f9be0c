package control

import (
	"padll/internal/rpcio"
	"padll/internal/stage"
)

// StageConn is the control plane's one channel to a data-plane stage.
// Every stage the controller drives — over TCP, or in process for the
// cluster simulator, single-process deployments and tests — speaks the
// batched frame protocol through a RemoteConn, so live and simulated
// clusters run the same codec, the same delta protocol and the same
// control algorithms. Fault-injecting wrappers implement it too.
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
	// WireStats reports the connection's cumulative frame traffic.
	WireStats() rpcio.WireStats
	// Close releases the connection.
	Close() error
}

// RemoteConn drives a stage over the frame codec, on TCP
// (rpcio.DialStage) or in process (rpcio.EncodedLoopbackStage): every
// exchange is one Stage.Batch round trip, and after the first collect
// only changed queues cross the wire.
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
