// Client half of the frame transport.
//
// Every transport owns one TCP connection to a single-service endpoint
// (a stage's control service, or the registrar). A request frame names
// a stream — a per-connection sequence number the reply echoes — and a
// reader goroutine per connection reads reply frames and hands the
// payload of the one awaited stream to the waiting call; replies for
// any other stream — duplicates injected by a flaky wire, or stragglers
// from a timed-out call — are consumed and dropped, never misdelivered.
//
// An exchange is two halves (Transport.Start, Transport.Finish): the
// first encodes, registers the stream and writes the frame, the second
// waits for the reader goroutine's signal and decodes — so a caller
// driving many stages has every request on the wire before it waits for
// the first reply, and by the time it gathers most replies are already
// buffered in their calls. A transport carries one exchange at a time,
// so it owns exactly one call, which every exchange reuses, and its
// connection has at most one call waiting and one writer.
//
// Failure handling: every call runs under the transport's deadline on
// its injected clock, counted from the send. The deadline's timer — one
// the call owns and re-arms, so it costs no allocation — is armed only
// when the second half actually has to block, for what is left of the
// deadline; requests sent together to hung peers therefore expire
// together. A timeout or I/O error kills the connection (completing the
// waiting call with the error), and the next call redials; a blocking
// exchange (Exec) separates its attempts by the transport's backoff
// schedule, materialized once when the transport was built. RemoteError
// — the peer answered with an application error — is returned without
// retry. Frames are written with a single Write call, so fault
// injectors operating at write granularity (the tests' FlakyConn) drop or
// duplicate whole frames, never fragments.
package rpcio

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"padll/internal/clock"
)

// frameCall is one transport's request rendezvous: the reader goroutine
// delivers the reply payload into buf and signals ch. Completion is
// exactly-once (whoever takes the call out of its connection's waiting
// slot completes it) and the call is reused only after that one signal
// was consumed, so the call and its buffers serve every exchange of its
// transport.
type frameCall struct {
	ch   chan struct{} // buffered(1); one signal per completion
	kind uint8
	buf  []byte // reply payload (reused)
	wbuf []byte // request frame assembly (reused)
	// err is the completion's error, or the error of a Start that put
	// nothing on the wire.
	err error
	// deadline is the call's reusable timeout timer, made the first time
	// a wait has to block and always stopped before the wait returns.
	// sent is when the request went out: the instant the deadline counts
	// from.
	deadline clock.Timer
	sent     time.Time
	// fc, m and reply are the started exchange Finish completes; fc is
	// nil when no exchange is in flight.
	fc    *frameConn
	m     methodID
	reply any
}

// frameConn is one transport's connection. Its transport writes to it
// one frame at a time; its reader goroutine completes the waiting call.
type frameConn struct {
	addr string
	conn net.Conn
	br   *bufio.Reader

	mu sync.Mutex
	// stream is the last stream ID sent, and waiting the call awaiting
	// its reply (nil when none is).
	stream  uint64
	waiting *frameCall
	dead    bool
	err     error

	readerDone chan struct{}
}

// dialFrameConn connects to addr and starts the connection's reader
// goroutine, which exits (closing readerDone) when the connection dies.
func dialFrameConn(addr string, dialTO time.Duration) (*frameConn, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTO)
	if err != nil {
		return nil, fmt.Errorf("rpcio: dial stage %s: %w", addr, err)
	}
	fc := &frameConn{
		addr:       addr,
		conn:       conn,
		br:         bufio.NewReader(conn),
		readerDone: make(chan struct{}),
	}
	go func() {
		defer close(fc.readerDone)
		fc.readLoop()
	}()
	return fc, nil
}

// register assigns a fresh stream ID and parks the call in the waiting
// slot. It fails if the connection already died.
func (fc *frameConn) register(call *frameCall) (uint64, error) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if fc.dead {
		return 0, fc.err
	}
	fc.stream++
	fc.waiting = call
	return fc.stream, nil
}

// forget takes back a call that never made it onto the wire and reports
// whether it was still waiting: false means a kill got to it first and
// is completing it.
func (fc *frameConn) forget() bool {
	fc.mu.Lock()
	waiting := fc.waiting != nil
	fc.waiting = nil
	fc.mu.Unlock()
	return waiting
}

// kill tears the connection down once: marks it dead, completes the
// waiting call with err and closes the socket, so the next call dials
// fresh.
func (fc *frameConn) kill(err error) {
	fc.mu.Lock()
	if fc.dead {
		fc.mu.Unlock()
		return
	}
	fc.dead = true
	fc.err = err
	call := fc.waiting
	fc.waiting = nil
	fc.mu.Unlock()
	if call != nil {
		call.err = err
		call.ch <- struct{}{}
	}
	// The connection is being discarded; its close error is subsumed by
	// the error that killed it.
	_ = fc.conn.Close()
}

// close kills the connection and waits for its reader goroutine.
func (fc *frameConn) close(err error) {
	fc.kill(err)
	<-fc.readerDone
}

func (fc *frameConn) isDead() bool {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.dead
}

// readLoop is the reader goroutine: it hands the awaited stream's reply
// payload to the waiting call and exits when the connection dies.
func (fc *frameConn) readLoop() {
	var hdr [frameHeaderLen]byte
	var discard []byte
	for {
		if _, err := io.ReadFull(fc.br, hdr[:]); err != nil {
			fc.kill(fmt.Errorf("rpcio: %s: read frame header: %w", fc.addr, err))
			return
		}
		h, err := parseFrameHeader(hdr[:])
		if err != nil {
			fc.kill(err)
			return
		}
		fc.mu.Lock()
		call := fc.waiting
		if call != nil && h.stream == fc.stream {
			fc.waiting = nil
		} else {
			call = nil
		}
		fc.mu.Unlock()
		if call == nil {
			// Duplicate or orphaned reply: consume the payload so framing
			// stays aligned, then drop it.
			if cap(discard) < int(h.length) {
				discard = make([]byte, h.length)
			}
			if _, err := io.ReadFull(fc.br, discard[:h.length]); err != nil {
				fc.kill(fmt.Errorf("rpcio: %s: read orphan payload: %w", fc.addr, err))
				return
			}
			continue
		}
		if cap(call.buf) < int(h.length) {
			call.buf = make([]byte, h.length)
		}
		call.buf = call.buf[:h.length]
		if _, err := io.ReadFull(fc.br, call.buf); err != nil {
			err = fmt.Errorf("rpcio: %s: read frame payload: %w", fc.addr, err)
			call.err = err
			call.ch <- struct{}{}
			fc.kill(err)
			return
		}
		call.kind = h.kind
		call.err = nil
		call.ch <- struct{}{}
	}
}

// frameTransport implements Transport over its own frameConn, redialed
// whenever the last one died.
type frameTransport struct {
	addr    string
	clk     clock.Clock
	timeout time.Duration
	dialTO  time.Duration
	// delays is the backoff schedule's retry sleeps (Backoff.Delays).
	delays []time.Duration

	calls        atomic.Uint64
	bytesRead    atomic.Uint64
	bytesWritten atomic.Uint64

	mu     sync.Mutex
	fc     *frameConn
	closed bool

	// call is the transport's one exchange: every Start/Finish pair uses
	// it in turn.
	call frameCall
}

func newFrameTransport(addr string, cfg dialConfig) *frameTransport {
	return &frameTransport{
		addr:    addr,
		clk:     cfg.clk,
		timeout: cfg.timeout,
		dialTO:  cfg.dialTO,
		delays:  cfg.backoff.Delays(),
		call:    frameCall{ch: make(chan struct{}, 1)},
	}
}

// WireStats implements Transport.
func (t *frameTransport) WireStats() WireStats {
	return WireStats{
		Calls:        t.calls.Load(),
		BytesRead:    t.bytesRead.Load(),
		BytesWritten: t.bytesWritten.Load(),
	}
}

func (t *frameTransport) errClosed() error {
	return fmt.Errorf("rpcio: stage %s: connection closed", t.addr)
}

// ensureConn returns the transport's live connection, dialing a fresh
// one when the previous died. Only the goroutine running the exchange
// calls it, so two dials never race; a Close racing a dial wins, and the
// fresh connection is closed.
func (t *frameTransport) ensureConn() (*frameConn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, t.errClosed()
	}
	if t.fc != nil && !t.fc.isDead() {
		fc := t.fc
		t.mu.Unlock()
		return fc, nil
	}
	old := t.fc
	t.fc = nil
	t.mu.Unlock()
	if old != nil {
		<-old.readerDone // dead: its socket is closed, so the reader is leaving
	}

	fc, err := dialFrameConn(t.addr, t.dialTO)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		fc.close(t.errClosed())
		return nil, t.errClosed()
	}
	t.fc = fc
	t.mu.Unlock()
	return fc, nil
}

// frameStart resets b to a frame assembly buffer: empty payload after a
// zeroed frameHeaderLen gap the sender patches before writing.
func frameStart(b []byte) []byte {
	var zero [frameHeaderLen]byte
	return append(b[:0], zero[:]...)
}

// send is a call's first half on the wire: it registers the stream and
// writes the frame assembled in call.wbuf (a frameHeaderLen gap followed
// by the encoded payload; see frameStart) with one Write. An error means
// the call is not in flight — nothing will signal it — and the
// connection is dead.
func (t *frameTransport) send(fc *frameConn, call *frameCall, m methodID) error {
	stream, err := fc.register(call)
	if err != nil {
		return err
	}
	frame := call.wbuf
	putFrameHeader(frame[:frameHeaderLen], frameHeader{
		kind:   frameRequest,
		method: m,
		stream: stream,
		length: uint32(len(frame) - frameHeaderLen),
	})
	if t.timeout > 0 {
		call.sent = t.clk.Now()
	}
	if _, err := fc.conn.Write(frame); err != nil {
		if !fc.forget() {
			<-call.ch // a racing kill completed the call: take its signal
		}
		err = fmt.Errorf("rpcio: %s: write frame: %w", t.addr, err)
		fc.kill(err)
		return err
	}
	t.bytesWritten.Add(uint64(len(frame)))
	return nil
}

// await is a sent call's second half: it takes the call's one
// completion signal, blocking under what is left of the deadline only
// when the reply has not already arrived. The reply lands in call.buf —
// a distinct buffer from wbuf, so the reader goroutine never touches
// memory conn.Write may still be reading. On timeout the connection is
// killed — a late reply on a stream with no waiter would be discarded
// by the reader, but the connection can no longer be trusted to be
// timely.
func (t *frameTransport) await(fc *frameConn, call *frameCall, m methodID) error {
	select {
	case <-call.ch:
	default:
		t.block(fc, call, m)
	}
	if call.err != nil {
		return call.err
	}
	t.bytesRead.Add(uint64(frameHeaderLen + len(call.buf)))
	return nil
}

// block waits for a call whose reply is still outstanding.
func (t *frameTransport) block(fc *frameConn, call *frameCall, m methodID) {
	if t.timeout <= 0 {
		<-call.ch
		return
	}
	if left := t.timeout - t.clk.Now().Sub(call.sent); left > 0 {
		if call.deadline == nil {
			call.deadline = t.clk.NewTimer()
		}
		call.deadline.Reset(left)
		select {
		case <-call.ch:
			call.deadline.Stop()
			return
		case <-call.deadline.C():
		}
	}
	fc.kill(fmt.Errorf("rpcio: %s: %s deadline %v exceeded", t.addr, methodName(m), t.timeout))
	<-call.ch // kill (or the racing reader) completes the call
	// A nil error here means the reply raced the deadline and won.
}

// methodName renders a methodID for error messages.
func methodName(m methodID) string {
	for name, id := range methodIDs {
		if id == m {
			return name
		}
	}
	return fmt.Sprintf("method(%d)", m)
}

// discard is the outcome of an attempt that failed on fc: a transport
// error invalidates the connection, so the next attempt dials fresh.
func discard(fc *frameConn, err error) error {
	if Retryable(err) {
		fc.kill(err)
	}
	return err
}

// Start implements Transport: dial if the last connection died, encode,
// register, write. A failure leaves its error in the call for Finish.
func (t *frameTransport) Start(method string, args, reply any) {
	c := &t.call
	m, ok := methodIDs[method]
	if !ok {
		c.err = fmt.Errorf("rpcio: unknown method %q", method)
		return
	}
	fc, err := t.ensureConn()
	if err != nil {
		c.err = err
		return
	}
	t.calls.Add(1)
	c.wbuf, err = appendCallArgs(frameStart(c.wbuf), m, args)
	if err == nil {
		err = t.send(fc, c, m)
	}
	if err != nil {
		c.err = discard(fc, err)
		return
	}
	c.fc, c.m, c.reply = fc, m, reply
}

// Finish implements Transport: wait, decode into the reply Start was
// given, and leave the call at rest for the next Start.
func (t *frameTransport) Finish() error {
	c := &t.call
	fc := c.fc
	var err error
	if fc == nil {
		err = c.err // Start put nothing on the wire
	} else {
		// c.err is the reader goroutine's until await took the signal.
		err = t.await(fc, c, c.m)
		if err == nil {
			switch c.kind {
			case frameError:
				err = RemoteError(string(c.buf))
			case frameReply:
				err = readCallReply(c.m, c.buf, c.reply)
			default:
				err = fmt.Errorf("rpcio: %s: unexpected frame kind %d", t.addr, c.kind)
			}
		}
		err = discard(fc, err)
	}
	c.err, c.fc, c.reply = nil, nil, nil
	return err
}

// Retry implements Transport on the backoff schedule: every blocking
// call walks the same delays from the start.
func (t *frameTransport) Retry(attempt int) bool {
	if attempt >= len(t.delays) || t.isClosed() {
		return false
	}
	t.clk.Sleep(t.delays[attempt])
	return true
}

func (t *frameTransport) isClosed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

// Close implements Transport: it closes the connection and waits for
// its reader goroutine.
func (t *frameTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	fc := t.fc
	t.fc = nil
	t.mu.Unlock()
	if fc != nil {
		fc.close(t.errClosed())
	}
	return nil
}
