// Server half of the frame transport.
//
// A listener serves one service — a stage's control service, or the
// control plane's registrar — so a frame names a method and no service.
// Each accepted connection is served by one goroutine that reads a
// request, answers it and reads the next: a client has one
// exchange at a time on its connection, so only a duplicating wire
// ever queues a second request behind the first, and frames are
// handled strictly in arrival order. The per-connection receive buffer,
// decode targets and reply structs are reused across frames, so a
// steady-state collect allocates nothing on the server side either.
package rpcio

import (
	"fmt"
	"net"
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

// frameSession is one accepted connection's reusable server state:
// decode targets and reply values survive across frames, so the
// steady-state dispatch path allocates nothing.
type frameSession struct {
	payload []byte
	wbuf    []byte

	probe        HealthProbe // Registrar.Ping args and its echo
	batchArgs    BatchArgs
	registration Registration
	stageID      string // Registrar.Deregister args

	batchReply BatchReply
}

// serveConn runs one connection's frame loop until the connection
// dies. Frames are handled in order. Requests are cut out of the
// connection's receive buffer — a frame's header and payload arrive in
// one read of the socket, not two — and each reply is written with a
// single Write so write-granular fault injection drops whole frames.
func (t frameTarget) serveConn(conn net.Conn) {
	var s frameSession
	in := newFrameReader()
	for {
		h, payload, ok, err := in.next()
		if err != nil {
			return // unusable framing: kill the connection
		}
		if !ok {
			if err := in.add(conn.Read(in.space())); err != nil {
				return // peer hung up (or the listener stopped and closed us)
			}
			continue
		}
		s.payload = payload
		if h.kind != frameRequest {
			return // a client must only send requests
		}
		reply, kind := t.handleCall(&s, h, frameStart(s.wbuf))
		s.wbuf = reply
		putFrameHeader(reply[:frameHeaderLen], frameHeader{
			kind:   kind,
			method: h.method,
			stream: h.stream,
			length: uint32(len(reply) - frameHeaderLen),
		})
		if _, err := conn.Write(reply); err != nil {
			return
		}
	}
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
		if err = readCallArgs(h.method, s.payload, &s.registration); err == nil {
			err = t.reg.onRegister(s.registration)
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
