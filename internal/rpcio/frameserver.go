// Server half of the frame transport.
//
// A listener serves one service — a stage's control service, or the
// control plane's registrar — so a frame names a method and no service.
// Each accepted connection is served by one goroutine that reads a
// request, answers it and reads the next: a client has one
// exchange at a time on its connection, so only a duplicating wire
// ever queues a second request behind the first, and frames are
// handled strictly in arrival order. A stage serves the connection it
// dialed to register the same way: the registrar hands that connection
// to the controller, whose rounds run over it. The per-connection receive buffer,
// decode targets and reply structs are reused across frames, so a
// steady-state collect allocates nothing on the server side either.
package rpcio

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"padll/internal/stage"
)

// frameTarget is a listener's one service: exactly one field is set.
// register is the registrar's (see ServeRegistrar).
type frameTarget struct {
	stage    *StageService
	register func(stage.Info, *StageHandle) (period time.Duration, err error)
}

// The kinds of service an endpoint can host, as mismatch errors name them.
const (
	stageService     = "a stage"
	registrarService = "the registrar"
)

// hosts names the kind of service the target is.
func (t frameTarget) hosts() string {
	if t.stage != nil {
		return stageService
	}
	return registrarService
}

// serviceOf names the kind of service a call method belongs to ("" for
// a method number this build does not know).
func serviceOf(m methodID) string {
	switch m {
	case methodBatch:
		return stageService
	case methodRegister:
		return registrarService
	default:
		return ""
	}
}

// frameSession is one served connection's reusable state: decode
// targets and reply values survive across frames, so the steady-state
// dispatch path allocates nothing.
type frameSession struct {
	// conn and in are the connection and its receive buffer, which a
	// registration hands to the controller; handedOff says it did, and
	// keep takes the connection out of its endpoint once it has.
	conn      net.Conn
	in        frameReader
	handedOff bool
	keep      func()

	payload []byte
	wbuf    []byte

	batchArgs BatchArgs
	info      stage.Info // Registrar.Register args

	batchReply BatchReply

	// served counts the requests the loop has answered: on a stage's
	// connection to its controller, the controller's exchanges, whose
	// silence the stage's lifecycle watches.
	served atomic.Uint64

	// fault, on an in-memory conn's session, judges each decoded
	// Stage.Batch request before the stage sees it: a refused one never
	// reaches it, one whose reply is lost does. verdict is the last one's.
	fault   Fault
	verdict error
}

// errHandedOff ends a registrar's frame loop once a registration handed
// the connection to the controller.
var errHandedOff = errors.New("rpcio: connection handed to the controller")

// serveConn runs one accepted connection's frame loop and reports why
// it ended: errHandedOff, or the error that made the connection
// unusable.
func (t frameTarget) serveConn(conn net.Conn) error {
	return t.serve(&frameSession{conn: conn, in: newFrameReader()}, nil)
}

// serve runs s's frame loop until it ends, and reports why. Frames are
// handled in order. Requests are cut out of the connection's receive
// buffer — a frame's header and payload arrive in one read of the
// socket, not two — and each reply is written with a single Write so
// write-granular fault injection drops whole frames. A frame that is
// not a request goes to onReply (on a stage's connection to its
// controller, the answer to its registration), whose error ends the
// loop; with no onReply it ends the loop, since a client must only send
// requests. The loop can be resumed with s where it ended.
func (t frameTarget) serve(s *frameSession, onReply func(frameHeader, []byte) error) error {
	for {
		h, payload, ok, err := s.in.next()
		if err != nil {
			return err // unusable framing: kill the connection
		}
		if !ok {
			if err := s.in.add(s.conn.Read(s.in.space())); err != nil {
				return err // peer hung up (or the listener stopped and closed us)
			}
			continue
		}
		if h.kind != frameRequest {
			if onReply == nil {
				return fmt.Errorf("rpcio: frame kind %d from a client", h.kind)
			}
			if err := onReply(h, payload); err != nil {
				return err
			}
			continue
		}
		reply := t.answer(s, h, payload)
		// Counted once answered, before the write: the peer may read its
		// reply, and look at the count, before this loop runs again. A
		// write that fails ends the loop anyway.
		s.served.Add(1)
		_, err = s.conn.Write(reply)
		switch {
		case s.handedOff:
			return errHandedOff // the connection is the controller's now
		case err != nil:
			return err
		}
	}
}

// answer handles one request frame and returns the reply frame, which
// s reuses for the next.
func (t frameTarget) answer(s *frameSession, h frameHeader, payload []byte) []byte {
	s.payload = payload
	reply, kind := t.handleCall(s, h, frameStart(s.wbuf))
	s.wbuf = reply
	putFrameHeader(reply[:frameHeaderLen], frameHeader{
		kind:   kind,
		method: h.method,
		stream: h.stream,
		length: uint32(len(reply) - frameHeaderLen),
	})
	return reply
}

func appendErrorPayload(reply []byte, msg string) []byte {
	return append(reply, msg...)
}

// handleCall decodes, dispatches, and encodes one service method.
func (t frameTarget) handleCall(s *frameSession, h frameHeader, reply []byte) ([]byte, uint8) {
	// Each method belongs to one kind of service; a call addressed to an
	// endpoint hosting another kind fails loudly rather than misdispatch.
	switch want := serviceOf(h.method); {
	case want == "":
		return appendErrorPayload(reply, fmt.Sprintf("rpcio: unknown method %d", h.method)), frameError
	case want != t.hosts():
		return appendErrorPayload(reply, fmt.Sprintf("rpcio: this endpoint hosts %s, not %s", t.hosts(), want)), frameError
	}
	var (
		err error
		out = reply
	)
	switch h.method {
	case methodBatch:
		if err = readCallArgs(h.method, s.payload, &s.batchArgs); err == nil && s.fault != nil {
			s.verdict = s.fault(s.batchArgs.Ops, s.batchArgs.Collect)
		}
		if _, lost := s.verdict.(ReplyLost); err == nil && (s.verdict == nil || lost) {
			err = t.stage.Batch(s.batchArgs, &s.batchReply)
		}
		out = appendBatchReply(reply, &s.batchReply)
	case methodRegister:
		// The controller's handle on the stage runs over the connection
		// the stage registered on, so the managed and replayed rules are
		// installed before this call is answered, which carries the
		// period of the controller's loop.
		if err = readCallArgs(h.method, s.payload, &s.info); err == nil {
			s.handedOff = true
			var period time.Duration
			period, err = t.register(s.info, adoptStage(s.conn, s.in))
			// The controller owns the connection: before the answer tells
			// the stage so, a stop of the endpoint may no longer close it.
			s.keep()
			out = appendPeriod(reply, period)
		}
	}
	if err != nil {
		return appendErrorPayload(reply[:frameHeaderLen], err.Error()), frameError
	}
	return out, frameReply
}
