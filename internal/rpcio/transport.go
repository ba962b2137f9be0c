// Transport abstraction for the control plane's stage-facing wire.
//
// The paper's control plane talks gRPC to its stages (§III-C); this
// reproduction's wire is the versioned binary frame protocol over TCP.
// Both are request/response transports, and everything above them — the
// typed StageHandle API, the batched delta protocol, the controller —
// only needs "issue one named call, get one reply", in two halves so a
// caller driving many stages can have every request in flight at once.
// Transport captures that contract so the same control plane can run
// over a real socket (frameTransport) or through the same codec in
// process (EncodedLoopback) — the transport of every in-process stage:
// the cluster simulator's, a single-process deployment's, the chaos
// harness's and the thousand-stage benchmarks'. They are the only code
// on the client side that writes a request frame or reads a reply frame,
// and Transport is the one seam a fault injector wraps.
package rpcio

import (
	"fmt"
	"sync"
	"time"

	"padll/internal/clock"
)

// Transport carries one exchange at a time with a stage's control
// service (or the registrar), in two halves, so a caller with many peers
// can have every request on the wire before it waits for the first
// reply. The contract is strict alternation: Finish follows every Start
// before the next Start (StageHandle guarantees it with its busy flag).
// Retry, WireStats and Close are safe for concurrent use.
type Transport interface {
	// Start is the first half of one attempt at the named RPC: args (the
	// pointer form of the method's wire type) is encoded and the request
	// is on the wire when it returns. reply belongs to the exchange until
	// Finish. An exchange that could not be started reports why from
	// Finish.
	Start(method string, args, reply any)
	// Finish is the second half: it waits for the reply under the call's
	// deadline — counted from when the request was sent, however late
	// Finish is called — decodes it into the reply value Start was given,
	// and returns the exchange's outcome. A transport error discards the
	// connection.
	Finish() error
	// Retry is what separates the attempts of a blocking call: after the
	// attempt-th try (counting from 0) failed in transport it sleeps the
	// retry schedule's next delay and reports true, or reports false at
	// once when the schedule holds no further attempt.
	Retry(attempt int) bool
	// WireStats reports cumulative traffic accounting.
	WireStats() WireStats
	// Close tears the transport down; subsequent calls fail.
	Close() error
}

// Retryable reports whether err is a failure of the wire (worth another
// attempt) rather than the peer's answer: a RemoteError means the wire
// worked and the stage itself refused, and retrying that is wrong.
func Retryable(err error) bool {
	_, remote := err.(RemoteError)
	return err != nil && !remote
}

// WireStats is a transport's cumulative traffic accounting. Calls counts
// round trips issued (including retries); bytes are exact frame bytes.
type WireStats struct {
	Calls        uint64
	BytesRead    uint64
	BytesWritten uint64
}

// dialConfig is the resolved option set behind DialStage.
type dialConfig struct {
	clk     clock.Clock
	timeout time.Duration
	dialTO  time.Duration
	backoff Backoff
	stageID string
	dialer  *frameDialer
}

func defaultDialConfig() dialConfig {
	return dialConfig{
		clk:     clock.NewReal(),
		timeout: DefaultCallTimeout,
		dialTO:  DefaultDialTimeout,
		backoff: DefaultBackoff,
	}
}

// DialOption configures the transport behind a StageHandle.
type DialOption func(*dialConfig)

// WithCallTimeout bounds each RPC (0 disables the deadline).
func WithCallTimeout(d time.Duration) DialOption {
	return func(c *dialConfig) { c.timeout = d }
}

// WithDialTimeout bounds each connection attempt.
func WithDialTimeout(d time.Duration) DialOption {
	return func(c *dialConfig) { c.dialTO = d }
}

// WithBackoff sets the redial/retry schedule.
func WithBackoff(b Backoff) DialOption {
	return func(c *dialConfig) { c.backoff = b }
}

// WithHandleClock sets the clock deadlines and backoff sleeps run on
// (default: wall clock).
func WithHandleClock(clk clock.Clock) DialOption {
	return func(c *dialConfig) { c.clk = clk }
}

// WithMuxStage names the stage to address on a multi-stage (ServeMux)
// endpoint: the handle resolves the ID to a frame channel with the
// attach handshake and shares the endpoint's one connection with every
// other handle.
func WithMuxStage(stageID string) DialOption {
	return func(c *dialConfig) { c.stageID = stageID }
}

// LoopbackAddr names an EncodedLoopback peer in its errors.
const LoopbackAddr = "loopback"

// FrameDir distinguishes the two directions a fault hook can intercept
// on an EncodedLoopback.
type FrameDir uint8

const (
	// FrameRequest is the client→service direction: a dropped request
	// never reaches the service (no state changes).
	FrameRequest FrameDir = iota
	// FrameReply is the service→client direction: a dropped reply means
	// the service already applied the call but the client never learned
	// — the case that forces a delta-protocol full resync.
	FrameReply
)

// FrameFault inspects one frame about to cross an EncodedLoopback and
// may return an error to simulate losing it at that frame boundary.
type FrameFault func(dir FrameDir, method string) error

// EncodedLoopback is the in-process transport that still pays the wire:
// every call round-trips through the binary frame codec — encode args,
// decode into the service's reusable session, dispatch, encode the
// reply, decode into the caller's value — with exact frame-byte
// accounting but no socket and no goroutine handoff. Deterministic and
// single-threaded per call, it is what every in-process stage runs on,
// the simulated clusters behind the paper's figures included: the
// codec's cost and its bugs are in the loop, the kernel's are not. A
// FrameFault hook injects losses at frame granularity.
type EncodedLoopback struct {
	mu     sync.Mutex
	fs     *FrameServer
	sess   frameSession
	enc    []byte
	rep    []byte
	fault  FrameFault
	closed bool
	// outcome is the started exchange's result, which Finish hands over.
	outcome error

	calls        uint64
	bytesRead    uint64
	bytesWritten uint64
}

// NewEncodedLoopback returns a codec-exercising in-process transport
// bound to svc.
func NewEncodedLoopback(svc *StageService) *EncodedLoopback {
	fs := NewFrameServer()
	fs.Add(svc)
	return &EncodedLoopback{fs: fs}
}

// EncodedLoopbackStage returns a handle driving svc through the binary
// codec in process; see EncodedLoopback.
func EncodedLoopbackStage(svc *StageService) *StageHandle {
	return NewStageHandle(NewEncodedLoopback(svc))
}

// SetFault installs (or, with nil, removes) the frame-loss hook.
func (l *EncodedLoopback) SetFault(f FrameFault) {
	l.mu.Lock()
	l.fault = f
	l.mu.Unlock()
}

// WireStats implements Transport: bytes are exact frame bytes both
// directions, as a TCP frame connection would carry.
func (l *EncodedLoopback) WireStats() WireStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return WireStats{Calls: l.calls, BytesRead: l.bytesRead, BytesWritten: l.bytesWritten}
}

// Close implements Transport.
func (l *EncodedLoopback) Close() error {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	return nil
}

// Retry implements Transport: a loopback has no retry schedule.
func (l *EncodedLoopback) Retry(int) bool { return false }

// Start implements Transport. Nothing is in flight in process, so the
// whole exchange happens here and Finish only hands over its outcome.
func (l *EncodedLoopback) Start(method string, args, reply any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.outcome = l.exchange(method, args, reply)
}

// Finish implements Transport.
func (l *EncodedLoopback) Finish() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.outcome
	l.outcome = nil
	return err
}

// exchange is one full encode→dispatch→decode round trip through the
// binary codec, under l.mu.
func (l *EncodedLoopback) exchange(method string, args, reply any) error {
	m, ok := methodIDs[method]
	if !ok {
		return fmt.Errorf("rpcio: loopback: unknown method %q", method)
	}
	if l.closed {
		return fmt.Errorf("rpcio: stage %s: connection closed", LoopbackAddr)
	}
	l.calls++

	frame, err := appendCallArgs(frameStart(l.enc), m, args)
	if err != nil {
		return err
	}
	l.enc = frame
	putFrameHeader(frame[:frameHeaderLen], frameHeader{
		kind:   frameRequest,
		method: m,
		stream: l.calls,
		length: uint32(len(frame) - frameHeaderLen),
	})
	l.bytesWritten += uint64(len(frame))
	if l.fault != nil {
		if err := l.fault(FrameRequest, method); err != nil {
			return err // request lost before the service saw it
		}
	}

	h, err := parseFrameHeader(frame[:frameHeaderLen])
	if err != nil {
		return err
	}
	l.sess.payload = frame[frameHeaderLen:]
	rep, kind := l.fs.handleCall(&l.sess, h, frameStart(l.rep))
	l.rep = rep
	putFrameHeader(rep[:frameHeaderLen], frameHeader{
		kind:   kind,
		method: m,
		stream: h.stream,
		length: uint32(len(rep) - frameHeaderLen),
	})
	l.bytesRead += uint64(len(rep))
	if l.fault != nil {
		if err := l.fault(FrameReply, method); err != nil {
			return err // reply lost after the service applied the call
		}
	}

	if kind == frameError {
		return RemoteError(string(rep[frameHeaderLen:]))
	}
	return readCallReply(m, rep[frameHeaderLen:], reply)
}
