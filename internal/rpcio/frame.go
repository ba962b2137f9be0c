// Client half of the frame transport.
//
// Every transport runs over exactly one connection to a single-service
// endpoint (a stage's control service, or the registrar), which it gets
// at construction and never replaces: TCP — the one a stage dialed to
// register, or the one DialStage opens — or an in-memory conn to a stage
// in this process (transport.go). The exchange in flight is the
// connection's one writer and its one reader: no goroutine runs per
// connection. A request frame names a stream — a per-connection
// sequence number the reply echoes — and a reply frame on any other
// stream (a duplicate from a flaky wire, a straggler from a timed-out
// call) is consumed and dropped, never misdelivered.
//
// An exchange is two halves (frameTransport.Start, Finish). The
// first encodes the frame and writes it with one Write, so fault
// injectors working at write granularity (the tests' FlakyConn) drop or
// duplicate whole frames. The second reads the reply and decodes it. A
// caller driving many stages has every request on the wire before it
// gathers the first reply, and by then most replies are in their
// connections: Finish takes what the connection holds without waiting
// (its look) and blocks in a read only when the reply is not there yet
// — under what is left of the deadline, counted from the send on the
// transport's clock, whose timer releases the read (see wait). A
// timeout, an I/O error or an injected fault kills the connection, and
// with it the handle: every later exchange fails at once with the first
// cause, and a peer that hung up has left (ErrDeparted) — a stage that
// lost its registration dials again, and the controller gets a new
// handle. A RemoteError — the peer's application error — leaves the
// connection as it is.
package rpcio

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"padll/internal/clock"
)

// frameCall is one transport's exchange, reused by every exchange of
// its transport.
type frameCall struct {
	wbuf []byte // request frame assembly
	// kind and buf are the reply frame's: buf is a view of the
	// connection's receive buffer, valid until the next read into it.
	kind uint8
	buf  []byte
	err  error     // the error of a Start that put nothing on the wire
	sent time.Time // when the request went out: the deadline counts from it
	// fc, m and reply are the started exchange Finish completes; fc is
	// nil when no exchange is in flight.
	fc    *frameConn
	m     methodID
	reply any
}

// frameConn is one transport's connection. Everything but err and done
// belongs to the exchange in flight; a kill may come from any goroutine.
type frameConn struct {
	conn net.Conn
	in   frameReader
	mem  *memConn // set for an in-memory conn, which looks itself; else peek
	peek rawPeek
	// stream is the last stream ID sent.
	stream uint64
	// deadline releases a read blocked past the call's deadline; fired
	// receives once its function has moved the read deadline.
	deadline clock.FuncTimer
	fired    chan struct{}

	mu   sync.Mutex
	err  error         // what killed the connection; nil while it lives
	done chan struct{} // closed by the kill
}

// expire is the deadline timer's function: it releases the blocked read.
func (fc *frameConn) expire() {
	_ = fc.conn.SetReadDeadline(time.Unix(1, 0)) // a closed socket needs no release
	fc.fired <- struct{}{}
}

// kill tears the connection down once, recording why, closes the
// socket, which releases a read blocked on it, and closes done.
func (fc *frameConn) kill(err error) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if fc.err == nil {
		fc.err = err
		// The connection is being discarded; its close error is subsumed
		// by the error that killed it.
		_ = fc.conn.Close()
		close(fc.done)
	}
}

// fail is the outcome of an exchange that failed with err. A
// RemoteError is the peer's answer over a working wire and leaves the
// connection alone; any other failure kills it for good. The error
// returned is the one that killed the connection (a kill from
// elsewhere may have got there first).
func (fc *frameConn) fail(err error) error {
	if !Retryable(err) {
		return err
	}
	fc.kill(err)
	return fc.cause()
}

// cause is the error that killed the connection (nil while it lives),
// read without a lock: kill sets err before it closes done.
func (fc *frameConn) cause() error {
	select {
	case <-fc.done:
		return fc.err
	default:
		return nil
	}
}

// look reads what the connection holds without waiting: errWouldBlock
// when it holds nothing, io.EOF when the peer closed it.
func (fc *frameConn) look(buf []byte) (int, error) {
	if fc.mem != nil {
		return fc.mem.Read(buf)
	}
	return fc.peek.look(buf)
}

// frameReader is a connection's receive buffer: frames are cut out of
// it in place, so a payload stays valid until the next read into it.
type frameReader struct {
	buf  []byte
	r, w int // buf[r:w] is received and not yet consumed
	// need is the size of the incomplete frame at buf[r:], once its
	// header is in.
	need int
}

func newFrameReader() frameReader { return frameReader{buf: make([]byte, 4096)} }

// next cuts the next whole frame out of the buffer; ok is false while
// the buffer does not hold one.
func (fr *frameReader) next() (h frameHeader, payload []byte, ok bool, err error) {
	if fr.w-fr.r < frameHeaderLen {
		return h, nil, false, nil
	}
	if h, err = parseFrameHeader(fr.buf[fr.r:fr.w]); err != nil {
		return h, nil, false, err
	}
	if fr.need = frameHeaderLen + int(h.length); fr.w-fr.r < fr.need {
		return h, nil, false, nil
	}
	payload = fr.buf[fr.r+frameHeaderLen : fr.r+fr.need]
	fr.r += fr.need
	return h, payload, true, nil
}

// space returns the free tail the next read fills, after moving the
// unconsumed bytes to the front and growing the buffer to hold the
// frame they begin.
func (fr *frameReader) space() []byte {
	fr.w = copy(fr.buf, fr.buf[fr.r:fr.w])
	fr.r = 0
	if fr.need > len(fr.buf) {
		fr.buf = append(fr.buf, make([]byte, fr.need-len(fr.buf))...)
	}
	return fr.buf[fr.w:]
}

// add takes in the outcome of a read into space.
func (fr *frameReader) add(n int, err error) error {
	fr.w += n
	return err
}

// errWouldBlock is a look's answer when the socket holds nothing.
var errWouldBlock = errors.New("rpcio: nothing to read")

// ErrDeparted is a stage's departure as its handle sees it: the stage
// closed the handle's connection — the one it registered on, as a stage
// process does when it exits or dies, or one DialStage opened — or, in
// process (an in-memory conn), hung up when its job ended. Every later
// exchange on the handle fails with it too.
var ErrDeparted = errors.New("rpcio: the stage hung up")

// frameTransport runs one exchange at a time — Finish follows every Start
// before the next Start (StageHandle's busy flag) — over the one
// frameConn it was built with. WireStats and Close are safe for
// concurrent use.
type frameTransport struct {
	addr string
	dialConfig
	fc *frameConn

	calls        atomic.Uint64
	bytesRead    atomic.Uint64
	bytesWritten atomic.Uint64

	// call is the transport's one exchange: every Start/Finish pair uses
	// it in turn.
	call frameCall
}

// newFrameTransport runs over conn, whose receive buffer in may already
// hold bytes. Its exchanges reuse the buffer, the look and the deadline
// timer built here.
func newFrameTransport(addr string, cfg dialConfig, conn net.Conn, in frameReader) *frameTransport {
	fc := &frameConn{conn: conn, in: in, fired: make(chan struct{}, 1), done: make(chan struct{})}
	if fc.mem, _ = conn.(*memConn); fc.mem == nil {
		fc.peek.init(conn.(syscall.Conn)) // TCP
	}
	if cfg.timeout > 0 {
		fc.deadline = cfg.clk.NewFuncTimer(fc.expire)
	}
	return &frameTransport{addr: addr, dialConfig: cfg, fc: fc}
}

// WireStats reports cumulative traffic accounting.
func (t *frameTransport) WireStats() WireStats {
	return WireStats{Calls: t.calls.Load(), BytesRead: t.bytesRead.Load(), BytesWritten: t.bytesWritten.Load()}
}

// adoptStage returns a handle on a connection a stage dialed (the
// registrar hands over the one a stage registered on) and on what its
// receive buffer in already holds.
func adoptStage(conn net.Conn, in frameReader) *StageHandle {
	return newStageHandle(newFrameTransport(conn.RemoteAddr().String(), defaultDialConfig(), conn, in))
}

// frameStart resets b to a frame assembly buffer: empty payload after a
// zeroed frameHeaderLen gap the sender patches before writing.
func frameStart(b []byte) []byte {
	var zero [frameHeaderLen]byte
	return append(b[:0], zero[:]...)
}

// send is a call's first half on the wire: it writes the frame
// assembled in c.wbuf (a frameHeaderLen gap followed by the encoded
// payload of method c.m; see frameStart) on a fresh stream, with one
// Write. An error means the call is not in flight.
func (t *frameTransport) send(fc *frameConn, c *frameCall) error {
	fc.stream++
	frame := c.wbuf
	putFrameHeader(frame[:frameHeaderLen], frameHeader{
		kind:   frameRequest,
		method: c.m,
		stream: fc.stream,
		length: uint32(len(frame) - frameHeaderLen),
	})
	if t.timeout > 0 {
		c.sent = t.clk.Now()
	}
	if _, err := fc.conn.Write(frame); err != nil {
		if fc.mem == nil { // an in-memory conn's error is an injected fault's, or a close's
			err = fmt.Errorf("rpcio: %s: write frame: %w", t.addr, err)
		}
		return err
	}
	t.calls.Add(1)
	t.bytesWritten.Add(uint64(len(frame)))
	c.fc = fc
	return nil
}

// await is a sent call's second half: it reads frames until the one on
// the call's stream, which lands in c.kind and c.buf. Frames already
// received come first, then what the socket holds; only when it holds
// nothing does await block, under what is left of the deadline. A
// timeout fails the exchange and kills the connection — a late
// reply would be discarded as a straggler, but the connection can no
// longer be trusted to be timely. A peer that closed the connection has
// left (ErrDeparted).
func (t *frameTransport) await(c *frameCall) error {
	for fc := c.fc; ; {
		h, payload, ok, err := fc.in.next()
		if err != nil {
			return fc.fail(err)
		}
		if ok {
			if h.stream != fc.stream {
				continue // a duplicate or a straggler
			}
			c.kind, c.buf = h.kind, payload
			t.bytesRead.Add(uint64(frameHeaderLen + len(payload)))
			return nil
		}
		if err = fc.in.add(fc.look(fc.in.space())); err == errWouldBlock {
			err = t.wait(fc, c)
		}
		switch {
		case err == nil:
			continue
		case err == errWouldBlock:
			err = fmt.Errorf("rpcio: %s: %s deadline %v exceeded", t.addr, c.m, t.timeout)
		case hungUp(err):
			err = fmt.Errorf("rpcio: stage %s: %w", t.addr, ErrDeparted)
		case fc.mem == nil:
			err = fmt.Errorf("rpcio: %s: read frame: %w", t.addr, err)
		}
		return fc.fail(err)
	}
}

// hungUp reports whether a read's error says the peer closed the
// connection.
func hungUp(err error) bool { return err == io.EOF || errors.Is(err, syscall.ECONNRESET) }

// wait is a read that blocks, for what is left of c's deadline; with
// nothing left the look that found the socket empty was the last.
// errWouldBlock means the deadline passed with nothing read: the timer
// released the read, and one more look after it found nothing either —
// a reply that made it into the socket still wins.
func (t *frameTransport) wait(fc *frameConn, c *frameCall) error {
	if t.timeout <= 0 {
		return fc.in.add(fc.conn.Read(fc.in.space()))
	}
	left := t.timeout - t.clk.Now().Sub(c.sent)
	if left <= 0 {
		return errWouldBlock
	}
	fc.deadline.Reset(left)
	err := fc.in.add(fc.conn.Read(fc.in.space()))
	if fc.deadline.Stop() {
		return err
	}
	<-fc.fired
	if err := fc.conn.SetReadDeadline(time.Time{}); err != nil {
		return err
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		return err
	}
	return fc.in.add(fc.look(fc.in.space()))
}

// Start is the first half of one exchange of method m: encode args
// (the pointer form of m's wire type) and write. reply belongs to the
// exchange until Finish; a failure, or a connection that already died,
// leaves its error in the call for Finish.
func (t *frameTransport) Start(m methodID, args, reply any) {
	c, fc := &t.call, t.fc
	if err := fc.cause(); err != nil {
		c.err = err
		return
	}
	c.m, c.reply = m, reply
	var err error
	if c.wbuf, err = appendCallArgs(frameStart(c.wbuf), m, args); err == nil {
		err = t.send(fc, c)
	}
	c.err = fc.fail(err)
}

// Finish is the second half: read the reply, decode it into the reply
// Start was given, and leave the call at rest for the next Start. A
// failure is the connection's to judge (frameConn.fail).
func (t *frameTransport) Finish() error {
	c := &t.call
	err := c.err // Start put nothing on the wire
	if c.fc != nil {
		err = t.await(c)
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
		err = c.fc.fail(err)
	}
	c.err, c.fc, c.reply = nil, nil, nil
	return err
}

// Close kills the connection, releasing an exchange blocked on it;
// subsequent calls fail with what killed it.
func (t *frameTransport) Close() error {
	t.fc.kill(fmt.Errorf("rpcio: stage %s: connection closed", t.addr))
	return nil
}
