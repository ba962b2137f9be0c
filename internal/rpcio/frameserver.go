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

	"padll/internal/stage"
)

// frameTarget is a listener's one service: exactly one field is set.
type frameTarget struct {
	stage *StageService
	reg   *registrar
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
	case methodRegister, methodDeregister, methodRegistrarPing:
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
	// registration hands to the controller; handedOff says it did.
	conn      net.Conn
	in        frameReader
	handedOff bool

	payload []byte
	wbuf    []byte

	probe     HealthProbe // Registrar.Ping args and its echo
	batchArgs BatchArgs
	info      stage.Info // Registrar.Register args
	stageID   string     // Registrar.Deregister args

	batchReply BatchReply
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
		_, err = s.conn.Write(t.answer(s, h, payload))
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
		if err = readCallArgs(h.method, s.payload, &s.batchArgs); err == nil {
			err = t.stage.Batch(s.batchArgs, &s.batchReply)
		}
		out = appendBatchReply(reply, &s.batchReply)
	case methodRegister:
		// The controller's handle on the stage runs over the connection
		// the stage registered on, so the managed and replayed rules are
		// installed before this call is answered.
		if err = readCallArgs(h.method, s.payload, &s.info); err == nil {
			s.handedOff = true
			err = t.reg.onRegister(s.info, adoptStage(s.conn, s.in))
		}
	case methodDeregister:
		if err = readCallArgs(h.method, s.payload, &s.stageID); err == nil && t.reg.onDeregister != nil {
			t.reg.onDeregister(s.stageID)
		}
	case methodRegistrarPing:
		// Echo the probe with the registry's answer: stages use it as the
		// controller liveness check behind their degraded-mode detection,
		// and to learn that the controller forgot them.
		if err = readCallArgs(h.method, s.payload, &s.probe); err == nil {
			s.probe.Registered = t.reg.registered != nil && t.reg.registered(s.probe.StageID)
		}
		out = appendHealthProbe(reply, &s.probe)
	}
	if err != nil {
		return appendErrorPayload(reply[:frameHeaderLen], err.Error()), frameError
	}
	return out, frameReply
}
