// The client transport's configuration, and the in-memory conn that
// carries it to a stage in this process — the simulated cluster's (the
// chaos scenarios' too), a single-process deployment's, the
// thousand-stage benchmarks' — so the frame cutter and the gather of
// TCP's transport run in every simulated round, a Fault on the conn is
// where the simulator injects its failures, and a failure ends the conn
// as it ends a TCP one.
package rpcio

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"padll/internal/clock"
)

// Retryable reports whether err is a failure of the wire rather than
// the peer's answer, a RemoteError: the wire worked and the peer itself
// refused. A wire failure ends a TCP connection, and a registering
// stage tries again after one; a refusal does neither.
func Retryable(err error) bool {
	_, remote := err.(RemoteError)
	return err != nil && !remote
}

// WireStats is a transport's cumulative traffic accounting. Calls counts
// requests written; bytes are exact frame bytes.
type WireStats struct {
	Calls        uint64
	BytesRead    uint64
	BytesWritten uint64
}

// dialConfig is what a frame transport runs on: the clock, the call
// deadline (0: none) and DialStage's dial deadline.
type dialConfig struct {
	clk     clock.Clock
	timeout time.Duration
	dialTO  time.Duration
}

func defaultDialConfig() dialConfig {
	return dialConfig{clk: clock.NewReal(), timeout: DefaultCallTimeout, dialTO: DefaultDialTimeout}
}

// DialOption configures the transport behind a StageHandle.
type DialOption func(*dialConfig)

// WithHandleClock sets the clock the handle's call deadlines run on
// (default: wall clock).
func WithHandleClock(clk clock.Clock) DialOption {
	return func(c *dialConfig) { c.clk = clk }
}

// Fault decides the fate of each Stage.Batch request an in-process
// handle sends, from its decoded ops and collect flag, before the stage
// sees it: nil delivers it; a ReplyLost lets the stage apply it and
// loses its whole reply, the read awaiting it failing at once with the
// verdict's Err (errReplyLost when nil); io.EOF says the stage hung up (its job ended): the
// request goes nowhere, and the read finds the conn closed
// (ErrDeparted); any other error refuses the whole request, and the
// write fails at once with that error. A RemoteError verdict is the
// stage's own refusal and leaves the conn in service, as an error frame
// does; every other verdict but nil kills the conn, as a wire failure
// kills a TCP one.
type Fault func(ops []StageOp, collect bool) error

// ReplyLost is a Fault's verdict on a request the stage applies and
// whose reply never arrives: the read awaiting it fails at once with
// Err, or errReplyLost when Err is nil.
type ReplyLost struct{ Err error }

var errReplyLost = errors.New("rpcio: reply lost")

func (e ReplyLost) Error() string { return fmt.Sprint("rpcio: reply lost: ", e.Err) }

// LocalStage returns a handle on svc in process: its frames travel over
// one in-memory conn, every request passing fault first (nil: none).
// Nothing on the conn waits, so the handle keeps no deadline. A fault
// ends the conn as a wire failure ends a TCP one: the exchange fails,
// every later one fails at once with that first cause, and Done closes.
func LocalStage(svc *StageService, fault Fault) *StageHandle {
	cfg := defaultDialConfig()
	cfg.timeout = 0
	return newStageHandle(newFrameTransport(svc.stg.Info().StageID, cfg, newMemConn(svc, fault), newFrameReader()))
}

// memConn is an in-memory connection to a stage service. A Write of a
// whole request frame is served at once, on the caller's goroutine, by
// the server's own frame reader and handleCall, and the reply frame is
// queued for the next read: no goroutine and no clock, so exchanges are
// deterministic. Nothing waits on it: a read finds the reply queued, or
// fails at once with why there is none.
type memConn struct {
	target frameTarget

	// srv (the server's half, holding the conn's Fault), out and lost
	// belong to the exchange in flight, the conn's one writer and reader,
	// so the Fault and the stage run under no lock: out[off:] is the reply
	// bytes queued for it, a view of srv's reply frame, and lost the error
	// a lost reply's read returns.
	srv  frameSession
	out  []byte
	off  int
	lost error

	closed atomic.Bool
}

func newMemConn(svc *StageService, fault Fault) *memConn {
	c := &memConn{target: frameTarget{stage: svc}}
	c.srv.fault = fault
	return c
}

// Write serves the request frame b holds, as the conn's Fault decides.
func (c *memConn) Write(b []byte) (int, error) {
	in := frameReader{buf: b, w: len(b)}
	h, payload, ok, err := in.next()
	switch {
	case c.closed.Load():
		return 0, net.ErrClosed
	case err != nil:
		return 0, err
	case !ok || in.r != len(b) || h.kind != frameRequest || c.off < len(c.out):
		return 0, errors.New("rpcio: an in-memory write must be one whole request frame, after the last reply was read")
	}
	// The fault sees the args handleCall decodes, before the stage does.
	reply := c.target.answer(&c.srv, h, payload)
	switch lost, isLost := c.srv.verdict.(ReplyLost); {
	case isLost:
		c.lost = cmp.Or(lost.Err, errReplyLost)
	case c.srv.verdict == io.EOF:
		c.lost = io.EOF
	case c.srv.verdict != nil:
		return 0, c.srv.verdict
	default:
		c.out, c.off = reply, 0
	}
	return len(b), nil
}

// Read moves queued reply bytes into b; with none queued it reports
// why: the conn closed, the reply was lost, or (errWouldBlock) nothing
// was asked. It is also the conn's look.
func (c *memConn) Read(b []byte) (int, error) {
	switch {
	case c.off < len(c.out):
		n := copy(b, c.out[c.off:])
		c.off += n
		return n, nil
	case c.closed.Load():
		return 0, net.ErrClosed
	case c.lost != nil:
		return 0, c.lost
	}
	return 0, errWouldBlock
}

// Close makes every later call fail.
func (c *memConn) Close() error {
	c.closed.Store(true)
	return nil
}

func (c *memConn) SetDeadline(time.Time) error      { return nil } // nothing waits
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }
func (c *memConn) LocalAddr() net.Addr              { return c.RemoteAddr() }
func (c *memConn) RemoteAddr() net.Addr {
	return &net.UnixAddr{Name: c.target.stage.stg.Info().StageID, Net: "mem"}
}
