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
// the simulated cluster's (the chaos scenarios' too), a single-process
// deployment's and the thousand-stage benchmarks'. They are the only code
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
	// Finish is the second half, on the caller's goroutine: it reads the
	// reply — at once when it is already in, else under the call's
	// deadline, counted from the send however late Finish is called —
	// decodes it into the reply value Start was given, and returns the
	// exchange's outcome. A transport error discards the connection.
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

// LoopbackAddr names an EncodedLoopback peer in its errors.
const LoopbackAddr = "loopback"

// EncodedLoopback is the in-process transport that still pays the wire:
// every call round-trips through the binary frame codec — encode args,
// decode into the service's reusable session, dispatch, encode the
// reply, decode into the caller's value — with exact frame-byte
// accounting but no socket and no goroutine handoff. Deterministic and
// single-threaded per call, it is what every in-process stage runs on,
// the simulated clusters behind the paper's figures included: the
// codec's cost and its bugs are in the loop, the kernel's are not.
type EncodedLoopback struct {
	mu     sync.Mutex
	svc    frameTarget
	sess   frameSession
	enc    []byte
	rep    []byte
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
	return &EncodedLoopback{svc: frameTarget{stage: svc}}
}

// EncodedLoopbackStage returns a handle driving svc through the binary
// codec in process; see EncodedLoopback.
func EncodedLoopbackStage(svc *StageService) *StageHandle {
	return NewStageHandle(NewEncodedLoopback(svc))
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

	h, err := parseFrameHeader(frame[:frameHeaderLen])
	if err != nil {
		return err
	}
	l.sess.payload = frame[frameHeaderLen:]
	rep, kind := l.svc.handleCall(&l.sess, h, frameStart(l.rep))
	l.rep = rep
	putFrameHeader(rep[:frameHeaderLen], frameHeader{
		kind:   kind,
		method: m,
		stream: h.stream,
		length: uint32(len(rep) - frameHeaderLen),
	})
	l.bytesRead += uint64(len(rep))

	if kind == frameError {
		return RemoteError(string(rep[frameHeaderLen:]))
	}
	return readCallReply(m, rep[frameHeaderLen:], reply)
}
