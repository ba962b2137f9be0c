// Client half of the multiplexed frame transport.
//
// One TCP connection per endpoint carries any number of logical stage
// conversations: every request frame names a stream (a per-connection
// nonce routing the reply back to its waiter) and a channel (selecting
// one of the services multiplexed behind the listener). A single demux
// goroutine per connection reads reply frames and hands each payload to
// the waiting call; replies for unknown streams — duplicates injected
// by a flaky wire, or stragglers from a timed-out call — are consumed
// and dropped, never misdelivered.
//
// An exchange is two halves (Transport.Start, Transport.Finish): the
// first encodes, registers the stream and writes the frame, the second
// waits for the demux goroutine's signal and decodes — so a caller
// driving many stages has every request on the wire before it waits for
// the first reply, and by the time it gathers most replies are already
// buffered in their calls. A transport carries one exchange at a time,
// so it owns exactly one call, which the attach handshake and every
// exchange reuse.
//
// Failure handling: every call runs under the transport's deadline on
// its injected clock, counted from the send. The deadline's timer — one
// the call owns and re-arms, so it costs no allocation — is armed only
// when the second half actually has to block, for what is left of the
// deadline; requests sent together to hung peers therefore expire
// together. A timeout or I/O error kills the whole connection
// (completing every pending call with the error), and the next call
// redials; a blocking exchange (Exec) separates its attempts by the
// transport's backoff schedule, materialized once when the transport was
// built. RemoteError — the peer answered with an application error — is
// returned without retry. Frames are written with a single Write call, so fault
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
// exactly-once (whoever removes the call from the pending map completes
// it) and the call is reused only after that one signal was consumed,
// so the call and its buffers serve every exchange of its transport.
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

// frameConn is one multiplexed connection shared by every transport
// dialing the same endpoint. It is owned by a frameDialer, which
// refcounts it; the last transport to close releases the socket.
type frameConn struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	d    *frameDialer

	// wmu serializes frame writes; each frame is one conn.Write.
	wmu sync.Mutex

	mu         sync.Mutex
	nextStream uint64
	pending    map[uint64]*frameCall
	channels   map[string]uint32 // attach cache: stage ID → channel
	dead       bool
	err        error

	// refs is guarded by the dialer's mutex (see frameDialer).
	refs int

	readerDone chan struct{}
}

// register assigns a fresh stream ID and parks the call in the pending
// map. It fails if the connection already died.
func (fc *frameConn) register(call *frameCall) (uint64, error) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if fc.dead {
		return 0, fc.err
	}
	fc.nextStream++
	s := fc.nextStream
	fc.pending[s] = call
	return s, nil
}

// forget removes a call that never made it onto the wire and reports
// whether it was still pending: false means a kill got to it first and
// is completing it.
func (fc *frameConn) forget(stream uint64) bool {
	fc.mu.Lock()
	_, pending := fc.pending[stream]
	delete(fc.pending, stream)
	fc.mu.Unlock()
	return pending
}

// send writes one whole frame with a single Write.
func (fc *frameConn) send(frame []byte) error {
	fc.wmu.Lock()
	_, err := fc.conn.Write(frame)
	fc.wmu.Unlock()
	return err
}

// kill tears the connection down once: marks it dead, completes every
// pending call with err, closes the socket, and removes the connection
// from its dialer so the next call dials fresh.
func (fc *frameConn) kill(err error) {
	fc.mu.Lock()
	if fc.dead {
		fc.mu.Unlock()
		return
	}
	fc.dead = true
	fc.err = err
	pending := fc.pending
	fc.pending = make(map[uint64]*frameCall)
	fc.mu.Unlock()
	for _, call := range pending {
		call.err = err
		call.ch <- struct{}{}
	}
	// The connection is being discarded; its close error is subsumed by
	// the error that killed it.
	_ = fc.conn.Close()
	fc.d.remove(fc)
}

func (fc *frameConn) isDead() bool {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.dead
}

// readLoop is the demux goroutine: it routes each reply frame's payload
// to its stream's waiter and exits (closing readerDone) when the
// connection dies.
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
		call := fc.pending[h.stream]
		if call != nil {
			delete(fc.pending, h.stream)
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

// channelFor resolves the wire channel for a stage on this connection,
// performing the attach handshake on first use. An empty stage ID means
// the endpoint's default (sole) service on channel 0.
func (fc *frameConn) channelFor(t *frameTransport, stageID string) (uint32, error) {
	if stageID == "" {
		return 0, nil
	}
	fc.mu.Lock()
	ch, ok := fc.channels[stageID]
	fc.mu.Unlock()
	if ok {
		return ch, nil
	}
	call := &t.call
	call.wbuf = append(frameStart(call.wbuf), stageID...)
	if err := t.roundTrip(fc, call, methodAttach, 0); err != nil {
		return 0, err
	}
	if call.kind == frameError {
		return 0, RemoteError(string(call.buf))
	}
	r := wireReader{buf: call.buf}
	ch = uint32(r.uvarint())
	if err := r.done(); err != nil {
		return 0, fmt.Errorf("rpcio: %s: attach %q: %w", fc.addr, stageID, err)
	}
	fc.mu.Lock()
	fc.channels[stageID] = ch
	fc.mu.Unlock()
	return ch, nil
}

// frameDialer pools one frameConn per endpoint address: however many
// stages a controller drives behind one endpoint, they share
// a single TCP connection. Connections are refcounted by the transports
// using them; the last Close releases the socket.
type frameDialer struct {
	mu    sync.Mutex
	conns map[string]*frameConn
}

// defaultFrameDialer is the process-wide pool DialStage uses.
var defaultFrameDialer = &frameDialer{}

// acquire returns the live connection to addr, dialing one if needed,
// with the caller's reference counted.
func (d *frameDialer) acquire(addr string, dialTO time.Duration) (*frameConn, error) {
	d.mu.Lock()
	if fc := d.conns[addr]; fc != nil && !fc.isDead() {
		fc.refs++
		d.mu.Unlock()
		return fc, nil
	}
	d.mu.Unlock()

	conn, err := net.DialTimeout("tcp", addr, dialTO)
	if err != nil {
		return nil, fmt.Errorf("rpcio: dial stage %s: %w", addr, err)
	}
	fc := &frameConn{
		addr:       addr,
		conn:       conn,
		br:         bufio.NewReader(conn),
		d:          d,
		pending:    make(map[uint64]*frameCall),
		channels:   make(map[string]uint32),
		readerDone: make(chan struct{}),
	}

	d.mu.Lock()
	if existing := d.conns[addr]; existing != nil && !existing.isDead() {
		// A concurrent dial won; use its connection.
		existing.refs++
		d.mu.Unlock()
		_ = conn.Close()
		return existing, nil
	}
	if d.conns == nil {
		d.conns = make(map[string]*frameConn)
	}
	d.conns[addr] = fc
	fc.refs = 1
	d.mu.Unlock()
	// The demux goroutine exits when the connection dies (kill closes the
	// socket, failing its blocking read); readerDone is the join point
	// release waits on.
	go func() {
		defer close(fc.readerDone)
		fc.readLoop()
	}()
	return fc, nil
}

// release drops one reference; the last one kills the connection.
func (d *frameDialer) release(fc *frameConn) {
	d.mu.Lock()
	fc.refs--
	last := fc.refs == 0
	d.mu.Unlock()
	if last {
		fc.kill(fmt.Errorf("rpcio: stage %s: connection closed", fc.addr))
		<-fc.readerDone
	}
}

// remove forgets a dead connection so the next acquire dials fresh.
func (d *frameDialer) remove(fc *frameConn) {
	d.mu.Lock()
	if d.conns[fc.addr] == fc {
		delete(d.conns, fc.addr)
	}
	d.mu.Unlock()
}

// frameTransport implements Transport over a (shared) frameConn. Byte
// accounting is per transport — each call's frames are attributed to
// the transport that issued them — so a controller summing its
// connections' WireStats sees exact per-stage traffic even when many
// stages share one socket.
type frameTransport struct {
	addr    string
	stageID string
	d       *frameDialer
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

	// call is the transport's one exchange: the attach handshake and
	// every Start/Finish pair use it in turn.
	call frameCall
}

func newFrameTransport(addr string, cfg dialConfig) *frameTransport {
	d := cfg.dialer
	if d == nil {
		d = defaultFrameDialer
	}
	return &frameTransport{
		addr:    addr,
		stageID: cfg.stageID,
		d:       d,
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

// ensureConn returns the transport's live shared connection, acquiring
// a fresh one from the dialer when the previous died.
func (t *frameTransport) ensureConn() (*frameConn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, fmt.Errorf("rpcio: stage %s: connection closed", t.addr)
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
		t.d.release(old)
	}

	fc, err := t.d.acquire(t.addr, t.dialTO)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	switch {
	case t.closed:
		t.mu.Unlock()
		t.d.release(fc)
		return nil, fmt.Errorf("rpcio: stage %s: connection closed", t.addr)
	case t.fc != nil && !t.fc.isDead():
		existing := t.fc
		t.mu.Unlock()
		t.d.release(fc)
		return existing, nil
	default:
		t.fc = fc
		t.mu.Unlock()
		return fc, nil
	}
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
func (t *frameTransport) send(fc *frameConn, call *frameCall, m methodID, channel uint32) error {
	stream, err := fc.register(call)
	if err != nil {
		return err
	}
	frame := call.wbuf
	putFrameHeader(frame[:frameHeaderLen], frameHeader{
		kind:    frameRequest,
		method:  m,
		stream:  stream,
		channel: channel,
		length:  uint32(len(frame) - frameHeaderLen),
	})
	if t.timeout > 0 {
		call.sent = t.clk.Now()
	}
	if err := fc.send(frame); err != nil {
		if !fc.forget(stream) {
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
// a distinct buffer from wbuf, so the demux goroutine never touches
// memory conn.Write may still be reading. On timeout the whole
// connection is killed — a late reply on a stream with no waiter would
// be discarded by the demux loop, but the connection's framing state
// can no longer be trusted to be timely.
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

// roundTrip is send then await, for the exchanges the transport makes
// on its own behalf (the attach handshake).
func (t *frameTransport) roundTrip(fc *frameConn, call *frameCall, m methodID, channel uint32) error {
	if err := t.send(fc, call, m, channel); err != nil {
		return err
	}
	return t.await(fc, call, m)
}

// methodName renders a methodID for error messages.
func methodName(m methodID) string {
	for name, id := range methodIDs {
		if id == m {
			return name
		}
	}
	if m == methodAttach {
		return "attach"
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

// Start implements Transport: dial if the last connection died, resolve
// the channel, encode, register, write. A failure leaves its error in
// the call for Finish.
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
	channel, err := fc.channelFor(t, t.stageID)
	if err == nil {
		c.wbuf, err = appendCallArgs(frameStart(c.wbuf), m, args)
	}
	if err == nil {
		err = t.send(fc, c, m, channel)
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
		// c.err is the demux goroutine's until await took the signal.
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

// Close implements Transport: it releases this transport's reference on
// the shared connection; the socket itself closes when the last sharer
// leaves.
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
		t.d.release(fc)
	}
	return nil
}
