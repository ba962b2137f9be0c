// Server half of the multiplexed frame transport.
//
// A FrameServer hosts any number of services behind one listener —
// stage services, or the control plane's registrar: clients address a service by channel number, resolved once
// per connection per stage via the attach handshake (methodAttach with
// the stage ID as payload). Each accepted connection is served by one
// goroutine that processes frames strictly in arrival order — requests
// pipeline (a client may have many in flight; none waits for a network
// round trip behind another) but replies never reorder, and the
// per-connection decode buffers and reply structs are reused across
// frames, so a steady-state collect allocates nothing on the server
// side either.
package rpcio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// frameTarget is one mux channel's service: exactly one field is set.
type frameTarget struct {
	stage *StageService
	reg   *registrar
}

// The kinds of service a channel can host, as mismatch errors name them.
const (
	stageService     = "a stage"
	registrarService = "the registrar"
)

// hosts names the kind of service the channel serves.
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

// FrameServer routes frames to the services multiplexed behind one
// listener. Channel 0 is the first service added — the implicit default
// for clients that never attach (a single-service endpoint).
type FrameServer struct {
	mu     sync.Mutex
	byName map[string]uint32
	// targets is published copy-on-write: registration appends to a
	// fresh slice under mu, while lookup — on the path of every frame —
	// reads the current snapshot with one atomic load and no lock.
	targets atomic.Pointer[[]frameTarget]
}

// NewFrameServer returns an empty mux.
func NewFrameServer() *FrameServer {
	return &FrameServer{byName: make(map[string]uint32)}
}

// Add registers a service under its stage's ID and returns the channel
// clients resolve via attach. The first service added also serves
// channel 0 (the no-attach default).
func (fs *FrameServer) Add(svc *StageService) uint32 {
	return fs.add(svc.stg.Info().StageID, frameTarget{stage: svc})
}

func (fs *FrameServer) add(name string, t frameTarget) uint32 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var cur []frameTarget
	if p := fs.targets.Load(); p != nil {
		cur = *p
	}
	ch := uint32(len(cur))
	next := make([]frameTarget, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = t
	fs.targets.Store(&next)
	fs.byName[name] = ch
	return ch
}

// lookup resolves a channel to its service.
func (fs *FrameServer) lookup(ch uint32) (frameTarget, bool) {
	p := fs.targets.Load()
	if p == nil || int(ch) >= len(*p) {
		return frameTarget{}, false
	}
	return (*p)[ch], true
}

// attach resolves a stage ID to its channel. The empty ID
// names the default service.
func (fs *FrameServer) attach(stageID string) (uint32, bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if stageID == "" {
		if p := fs.targets.Load(); p == nil || len(*p) == 0 {
			return 0, false
		}
		return 0, true
	}
	ch, ok := fs.byName[stageID]
	return ch, ok
}

// frameSession is one accepted connection's reusable server state:
// decode targets and reply values survive across frames, so the
// steady-state dispatch path allocates nothing.
type frameSession struct {
	hdr     [frameHeaderLen]byte
	payload []byte
	wbuf    []byte

	probe        HealthProbe // Registrar.Ping args and its echo
	batchArgs    BatchArgs
	registration Registration
	stageID      string // Registrar.Deregister args

	batchReply BatchReply
}

// serveFrameConn runs one connection's frame loop until the connection
// dies. Frames are handled in order. Requests are read through the
// session's buffered reader — a frame's header and payload arrive in
// one read of the socket, not two — and each reply is written with a
// single Write so write-granular fault injection drops whole frames.
func (fs *FrameServer) serveFrameConn(conn net.Conn) {
	var s frameSession
	br := bufio.NewReader(conn)
	for {
		if _, err := io.ReadFull(br, s.hdr[:]); err != nil {
			return // peer hung up (or the listener stopped and closed us)
		}
		h, err := parseFrameHeader(s.hdr[:])
		if err != nil {
			return // unusable framing: kill the connection
		}
		if cap(s.payload) < int(h.length) {
			s.payload = make([]byte, h.length)
		}
		s.payload = s.payload[:h.length]
		if _, err := io.ReadFull(br, s.payload); err != nil {
			return
		}
		if h.kind != frameRequest {
			return // a client must only send requests
		}
		reply := frameStart(s.wbuf)
		kind := frameReply
		if h.method == methodAttach {
			reply, kind = fs.handleAttach(s.payload, reply)
		} else {
			reply, kind = fs.handleCall(&s, h, reply)
		}
		s.wbuf = reply
		putFrameHeader(reply[:frameHeaderLen], frameHeader{
			kind:    kind,
			method:  h.method,
			stream:  h.stream,
			channel: h.channel,
			length:  uint32(len(reply) - frameHeaderLen),
		})
		if _, err := conn.Write(reply); err != nil {
			return
		}
	}
}

// handleAttach resolves a stage ID to its channel.
func (fs *FrameServer) handleAttach(payload, reply []byte) ([]byte, uint8) {
	ch, ok := fs.attach(string(payload))
	if !ok {
		return appendErrorPayload(reply, fmt.Sprintf("rpcio: no stage %q on this endpoint", payload)), frameError
	}
	return appendUvarintPayload(reply, uint64(ch)), frameReply
}

func appendErrorPayload(reply []byte, msg string) []byte {
	return append(reply, msg...)
}

func appendUvarintPayload(reply []byte, v uint64) []byte {
	return binary.AppendUvarint(reply, v)
}

// handleCall decodes, dispatches, and encodes one service method.
func (fs *FrameServer) handleCall(s *frameSession, h frameHeader, reply []byte) ([]byte, uint8) {
	tgt, ok := fs.lookup(h.channel)
	if !ok {
		return appendErrorPayload(reply, fmt.Sprintf("rpcio: no service on channel %d", h.channel)), frameError
	}
	// Each method belongs to one kind of service; a call addressed to a
	// channel hosting another kind fails loudly rather than misdispatch.
	switch want := serviceOf(h.method); {
	case want == "":
		return appendErrorPayload(reply, fmt.Sprintf("rpcio: unknown method %d", h.method)), frameError
	case want != tgt.hosts():
		return appendErrorPayload(reply, fmt.Sprintf("rpcio: channel %d hosts %s, not %s", h.channel, tgt.hosts(), want)), frameError
	}
	var (
		err error
		out = reply
	)
	switch h.method {
	case methodBatch:
		if err = readCallArgs(h.method, s.payload, &s.batchArgs); err == nil {
			err = tgt.stage.Batch(s.batchArgs, &s.batchReply)
		}
		out = appendBatchReply(reply, &s.batchReply)
	case methodRegister:
		if err = readCallArgs(h.method, s.payload, &s.registration); err == nil {
			err = tgt.reg.onRegister(s.registration)
		}
	case methodDeregister:
		if err = readCallArgs(h.method, s.payload, &s.stageID); err == nil && tgt.reg.onDeregister != nil {
			tgt.reg.onDeregister(s.stageID)
		}
	case methodRegistrarPing:
		// Echo the probe: stages use it as the controller liveness check
		// behind their degraded-mode detection.
		err = readCallArgs(h.method, s.payload, &s.probe)
		out = appendHealthProbe(reply, &s.probe)
	}
	if err != nil {
		return appendErrorPayload(reply[:frameHeaderLen], err.Error()), frameError
	}
	return out, frameReply
}
