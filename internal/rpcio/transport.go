// The client transport's configuration, and the in-memory conn that
// carries it to a stage in this process — the simulated cluster's (the
// chaos scenarios' too), a single-process deployment's, the
// thousand-stage benchmarks' — so the frame cutter, the gather and the
// deadline timer of TCP's transport run in every simulated round, and a
// Fault on the conn is where the simulator injects its failures.
package rpcio

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"padll/internal/clock"
)

// Retryable reports whether err is a failure of the wire (worth another
// attempt) rather than the peer's answer: a RemoteError means the wire
// worked and the stage itself refused, and retrying that is wrong.
func Retryable(err error) bool {
	_, remote := err.(RemoteError)
	return err != nil && !remote
}

// WireStats is a transport's cumulative traffic accounting. Calls counts
// requests written (retries too); bytes are exact frame bytes.
type WireStats struct {
	Calls        uint64
	BytesRead    uint64
	BytesWritten uint64
}

// dialConfig is what a frame transport runs on: the clock, the call
// deadline (0: none), the dial deadline and the retry sleeps.
type dialConfig struct {
	clk     clock.Clock
	timeout time.Duration
	dialTO  time.Duration
	delays  []time.Duration
}

func defaultDialConfig() dialConfig {
	return dialConfig{
		clk:     clock.NewReal(),
		timeout: DefaultCallTimeout,
		dialTO:  DefaultDialTimeout,
		delays:  retryDelays,
	}
}

// DialOption configures the transport behind a StageHandle.
type DialOption func(*dialConfig)

// WithHandleClock sets the clock deadlines and retry sleeps run on
// (default: wall clock).
func WithHandleClock(clk clock.Clock) DialOption {
	return func(c *dialConfig) { c.clk = clk }
}

// Fault decides the fate of each Stage.Batch request an in-process
// handle sends, from its decoded ops and collect flag, before the stage
// sees it: nil delivers it; a ReplyLost lets the stage apply it and
// loses its whole reply; any other error refuses the whole request, and
// the write fails at once with that error.
type Fault func(ops []StageOp, collect bool) error

// ReplyLost is a Fault's verdict on a request the stage applies and
// whose reply never arrives: the read awaiting it fails at once with
// Err, or, with Err nil, waits like a read on a silent socket until the
// call's deadline releases it.
type ReplyLost struct{ Err error }

func (e ReplyLost) Error() string { return fmt.Sprint("rpcio: reply lost: ", e.Err) }

// LocalStage returns a handle on svc in process: its frames travel over
// an in-memory conn, every request passing fault first, and its
// deadlines run on clk. With no fault nothing can lose a reply, so there
// is no deadline to keep either. A dead conn is replaced at the next
// exchange by a fresh one to svc; there is no retry schedule: a failed
// exchange is the injected fault, not one to paper over.
func LocalStage(svc *StageService, clk clock.Clock, fault Fault) *StageHandle {
	cfg := defaultDialConfig()
	cfg.clk, cfg.delays = clk, nil
	if fault == nil {
		cfg.timeout = 0
	}
	return newStageHandle(newFrameTransport(svc.stg.Info().StageID, cfg, func() (net.Conn, error) {
		return newMemConn(svc, fault), nil
	}))
}

// memConn is an in-memory connection to a stage service. A Write of a
// whole request frame is served at once, on the caller's goroutine, by
// the server's own frame reader and handleCall, and the reply frame is
// queued for the next read: no goroutine, so exchanges are
// deterministic. It has no clock: a read that finds nothing queued waits
// for a close or a read deadline, and any deadline counts as passed (the
// transport's timer sets one only to release such a read).
type memConn struct {
	target frameTarget
	fault  Fault

	// srv (the server's half), out and lost belong to the exchange in
	// flight, the conn's one writer and reader, so the Fault and the stage
	// run under no lock: out[off:] is the reply bytes queued for it, a view
	// of srv's reply frame, and lost the error a lost reply's read returns.
	srv  frameSession
	out  []byte
	off  int
	lost error

	closed  atomic.Bool
	mu      sync.Mutex
	ready   sync.Cond // broadcast, under mu, when a waiting read may go on
	expired bool      // a read deadline is set; under mu
}

func newMemConn(svc *StageService, fault Fault) *memConn {
	c := &memConn{target: frameTarget{stage: svc}, fault: fault}
	c.ready.L = &c.mu
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
	var verdict error
	if c.fault != nil && h.method == methodBatch {
		// The fault sees the request as the stage will: handleCall
		// decodes the same payload into the same args again.
		if err := readCallArgs(h.method, payload, &c.srv.batchArgs); err == nil {
			verdict = c.fault(c.srv.batchArgs.Ops, c.srv.batchArgs.Collect)
		}
	}
	lost, isLost := verdict.(ReplyLost)
	if verdict != nil && !isLost {
		return 0, verdict
	}
	if reply := c.target.answer(&c.srv, h, payload); isLost {
		c.lost = lost.Err // nil: the read waits as on a silent socket
	} else {
		c.out, c.off = reply, 0
	}
	return len(b), nil
}

// Read waits until a reply is queued, the conn closes or a deadline is set.
func (c *memConn) Read(b []byte) (int, error) { return c.read(b, true) }

// read moves queued reply bytes into b; with none queued it reports
// why, or, with wait set, waits until there is a reason. Without wait
// it is the conn's look: errWouldBlock when nothing is queued.
func (c *memConn) read(b []byte, wait bool) (int, error) {
	if c.off < len(c.out) {
		n := copy(b, c.out[c.off:])
		c.off += n
		return n, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		switch {
		case c.closed.Load():
			return 0, net.ErrClosed
		case c.lost != nil:
			return 0, c.lost
		case !wait:
			return 0, errWouldBlock
		case c.expired:
			return 0, os.ErrDeadlineExceeded
		}
		c.ready.Wait() //lint:allow lockcheck Cond.Wait releases c.mu for as long as it blocks
	}
}

// SetReadDeadline sets (any non-zero t) or clears the read deadline.
func (c *memConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.expired = !t.IsZero()
	c.mu.Unlock()
	c.ready.Broadcast()
	return nil
}

// Close releases a waiting read; every later call fails.
func (c *memConn) Close() error {
	c.mu.Lock()
	c.closed.Store(true)
	c.mu.Unlock()
	c.ready.Broadcast()
	return nil
}

func (c *memConn) SetDeadline(t time.Time) error    { return c.SetReadDeadline(t) }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil } // writes never wait
func (c *memConn) LocalAddr() net.Addr              { return c.RemoteAddr() }
func (c *memConn) RemoteAddr() net.Addr {
	return &net.UnixAddr{Name: c.target.stage.stg.Info().StageID, Net: "mem"}
}
