// Package rpcio provides the wire between PADLL's control plane and its
// data-plane stages. The paper uses gRPC (§III-C); this implementation
// uses one versioned binary frame protocol (wirecodec.go) with two
// methods, written and read on the client side by one transport
// (frame.go), over TCP or an in-memory conn (transport.go). Every stage
// exposes a typed control service (install rule, retune rate, collect
// statistics — all carried by Stage.Batch), and the control plane a
// registration service (Registrar.Register) stages dial when their job
// starts (§III-B "orchestrating stages from the same job"). The
// connection a stage registers on is the whole contract between the
// two: the controller's rounds run over it, and are the stage's sign of
// life (lifecycle.go); the stage leaves by closing it. A handle on a
// stage runs over that one connection, or one DialStage opens, and
// never dials again: when the connection dies the handle is done, and
// the stage registers anew.
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
	"padll/internal/stage"
)

// ---- stage-side control service ----

// StageService exposes a stage's control operations over RPC: the
// batched delta protocol (batch.go), Stage.Batch being its one method.
type StageService struct {
	stg *stage.Stage
	// track is the one delta baseline: the snapshot the last collect
	// sent, whichever client asked for it. See batch.go.
	track deltaTracker

	calls         atomic.Uint64
	batchedOps    atomic.Uint64
	deltaCollects atomic.Uint64
	fullCollects  atomic.Uint64
}

// NewStageService wraps a stage for serving, either over a listener
// (ServeStageService) or in process (LocalStage).
func NewStageService(stg *stage.Stage) *StageService {
	return &StageService{stg: stg}
}

// Served reports cumulative service-side counters.
func (s *StageService) Served() ServiceStats {
	return ServiceStats{
		Calls:         s.calls.Load(),
		BatchedOps:    s.batchedOps.Load(),
		DeltaCollects: s.deltaCollects.Load(),
		FullCollects:  s.fullCollects.Load(),
	}
}

// maxConns bounds how many connections one control endpoint serves
// concurrently. A stage normally has a handful of clients (its
// controller, maybe an operator CLI); the bound exists so a connection
// flood degrades into queued accepts instead of unbounded goroutines.
const maxConns = 128

// serveBounded accepts connections on l and hands each to handler, with
// a hard bound on concurrently served connections: the accept loop
// takes a semaphore slot before accepting, so at most limit handler
// goroutines exist and excess dials queue in the listener backlog. The
// handler must serve the connection until it dies, or until it hands
// the connection to a new owner, and report which (kept). Before it
// lets the new owner's peer learn of the handoff it calls keep, which
// takes the connection out of the server, so a stop from then on
// leaves it open; a kept connection gives its slot back and leaves the
// server without being closed. The returned stop function is
// deterministic: it closes the listener, closes every in-flight
// connection (unblocking their handlers), and waits for all goroutines
// to finish.
func serveBounded(l net.Listener, handler func(conn net.Conn, keep func()) (kept bool), limit int) (stop func()) {
	sem := make(chan struct{}, limit)
	var (
		mu      sync.Mutex
		stopped bool
		live    = make(map[net.Conn]struct{})
	)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			sem <- struct{}{}
			conn, err := l.Accept()
			if err != nil {
				<-sem
				return // listener closed
			}
			mu.Lock()
			if stopped {
				mu.Unlock()
				// Lost the race with stop(): this connection would
				// outlive the server, so refuse it.
				_ = conn.Close()
				<-sem
				continue
			}
			live[conn] = struct{}{}
			mu.Unlock()
			wg.Add(1)
			go func(conn net.Conn) {
				defer wg.Done()
				defer func() { <-sem }()
				keep := func() {
					mu.Lock()
					delete(live, conn)
					mu.Unlock()
				}
				if !handler(conn, keep) {
					// The handler is done with the peer (it hung up, or sent
					// unusable framing): release the socket now rather than
					// leaving the peer to run into its own deadline.
					_ = conn.Close()
				}
				keep()
			}(conn)
		}
	}()
	return func() {
		// Closing an already-serving listener: the only error is "already
		// closed", which a stop function tolerates by design.
		_ = l.Close()
		mu.Lock()
		stopped = true
		for conn := range live {
			// Force in-flight connections down; each frame loop returns
			// once its connection dies, and handler goroutines drain.
			_ = conn.Close()
		}
		mu.Unlock()
		wg.Wait()
	}
}

// ServeStageService starts serving svc on l over the frame protocol,
// one listener per service. It returns immediately; the returned stop
// function closes the listener and every in-flight connection, then
// waits for all serving goroutines to exit.
func ServeStageService(l net.Listener, svc *StageService) (stop func()) {
	return serveBounded(l, func(conn net.Conn, _ func()) bool {
		// The loop ends when the connection does; why is nobody's concern.
		_ = frameTarget{stage: svc}.serveConn(conn)
		return false
	}, maxConns)
}

// ServeStage serves the stage's control service on l; see
// ServeStageService.
func ServeStage(l net.Listener, stg *stage.Stage) (stop func()) {
	return ServeStageService(l, NewStageService(stg))
}

// Default deadlines for control-plane RPCs. A single hung peer must
// never block the feedback loop indefinitely (§III-C).
const (
	DefaultDialTimeout = 2 * time.Second
	DefaultCallTimeout = 5 * time.Second
)

// retryDelays is the pace of a stage that lost its controller and
// registers again (RetryDelay): 50, 100 and 200 ms, then 200 ms for
// every later attempt, so a blip costs a stage a fraction of a second
// while a controller that stays down is asked five times a second.
var retryDelays = []time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond}

// StageHandle is the control plane's one link to a stage, layered over
// the frame transport and running over exactly one connection: frames
// with deadlines over TCP — the connection the stage registered on
// (ServeRegistrar), or the one DialStage opens — or an in-memory conn
// to a stage in this process (LocalStage), where a Fault injects
// failures. Its first failure on the wire ends the handle for good.
// Nothing redials and nothing retries: a stage that lost its handle
// registers again and the controller gets a new one.
// The handle owns the client half of the batched delta protocol
// (Start/Finish/Exec in batch.go).
type StageHandle struct {
	t *frameTransport

	// bmu guards the delta-collect acknowledgment with the buffer it
	// acknowledges, and busy: whether an exchange is between its Start
	// and its Finish. idle is signalled when one ends.
	bmu    sync.Mutex
	idle   sync.Cond
	busy   bool
	dstate deltaState

	// The exchange in flight, owned by whoever set busy: the reusable
	// args/reply buffers. busy is also what keeps the transport to one
	// exchange at a time.
	bargs  BatchArgs
	breply BatchReply
}

// DialStage connects to a stage's control service over TCP, once. The
// wire is the versioned binary frame codec; the handle owns its
// connection, has at most one Stage.Batch exchange on it at a time, and
// never redials: a deadline or an I/O error kills it for good, every
// later exchange failing at once with that first cause, and a stage
// that closes the connection has left (ErrDeparted).
func DialStage(addr string, opts ...DialOption) (*StageHandle, error) {
	cfg := defaultDialConfig()
	for _, o := range opts {
		o(&cfg)
	}
	conn, err := net.DialTimeout("tcp", addr, cfg.dialTO)
	if err != nil {
		return nil, fmt.Errorf("rpcio: dial stage %s: %w", addr, err)
	}
	return newStageHandle(newFrameTransport(addr, cfg, conn, newFrameReader())), nil
}

func newStageHandle(t *frameTransport) *StageHandle {
	h := &StageHandle{t: t}
	h.idle.L = &h.bmu
	return h
}

// WireStats reports the handle's cumulative traffic accounting.
func (h *StageHandle) WireStats() WireStats { return h.t.WireStats() }

// Close tears down the connection; subsequent calls fail.
func (h *StageHandle) Close() error { return h.t.Close() }

// Done is closed once the handle's connection dies: the stage's link
// as the controller sees it end — a wire failure, the stage's hang-up,
// or the controller's Close (a deregistration, a replacing
// registration).
func (h *StageHandle) Done() <-chan struct{} { return h.t.fc.done }

// ---- controller-side registration service ----

// ServeRegistrar serves a registration endpoint on l. A stage registers
// on a connection it keeps: onRegister receives the stage's identity and
// a handle running over that connection, which it owns from then on;
// the period it returns (that of the controller's loop, 0 when none
// runs) is the registration's answer, and its error travels back to the
// stage as the call's error instead. The connection leaves the
// endpoint's bound and its stop function with the handle, before the
// answer is sent; the stage leaves by closing it (ErrDeparted).
// Connection handling is bounded and stop is deterministic; see
// ServeStageService.
func ServeRegistrar(l net.Listener, onRegister func(stage.Info, *StageHandle) (period time.Duration, err error)) (stop func()) {
	return serveBounded(l, func(conn net.Conn, keep func()) bool {
		s := &frameSession{conn: conn, in: newFrameReader(), keep: keep}
		return frameTarget{register: onRegister}.serve(s, nil) == errHandedOff
	}, maxConns)
}

// ControllerConn is a registered stage's connection to its control
// plane: the stage dialed it to register, and serves its control
// service on it, the controller's rounds included, until it dies.
type ControllerConn struct {
	conn   net.Conn
	sess   *frameSession
	period time.Duration // the controller's loop period, from the registration's answer
	done   chan struct{}
}

// Link is the connection as the stage's lifecycle watches it: closed
// once it has died and its serve loop has returned, the controller's
// loop period, and the exchanges served on it.
func (c *ControllerConn) Link() Link {
	return Link{Done: c.done, Period: c.period, Served: c.sess.served.Load}
}

// Close closes the connection and waits for its serve loop to return.
func (c *ControllerConn) Close() {
	// Whatever the close reports, the connection is gone.
	_ = c.conn.Close()
	<-c.done
}

// registerStream is the stream of a registration's request: the first
// and only request a stage sends on its connection to the controller.
const registerStream = 1

// RegisterWithController dials the control plane's registrar at
// controllerAddr and registers the stage svc serves, serving svc on the
// same connection: the controller installs the stage's rules over it
// before the registration is answered, and runs its rounds over it
// afterwards. The answer carries the controller's loop period; an error
// frame in answer is the registration's error. Closing the connection
// is the stage's departure.
func RegisterWithController(controllerAddr string, svc *StageService) (*ControllerConn, error) {
	return register(controllerAddr, DefaultDialTimeout, DefaultCallTimeout, svc)
}

// register is RegisterWithController with its dial and call deadlines;
// the call's counts from the send, on the wall clock.
func register(addr string, dialTO, callTO time.Duration, svc *StageService) (*ControllerConn, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTO)
	if err != nil {
		return nil, fmt.Errorf("rpcio: controller %s: dial: %w", addr, err)
	}
	info := svc.stg.Info()
	frame, err := appendCallArgs(frameStart(nil), methodRegister, &info)
	if err == nil {
		putFrameHeader(frame[:frameHeaderLen], frameHeader{
			kind:   frameRequest,
			method: methodRegister,
			stream: registerStream,
			length: uint32(len(frame) - frameHeaderLen),
		})
		err = conn.SetReadDeadline(clock.NewReal().Now().Add(callTO))
	}
	if err == nil {
		_, err = conn.Write(frame)
	}
	t := frameTarget{stage: svc}
	sess := &frameSession{conn: conn, in: newFrameReader()}
	var period time.Duration
	if err == nil {
		// The stage serves the connection from the start: the controller
		// installs the stage's rules over it before it answers.
		err = t.serve(sess, func(h frameHeader, payload []byte) error {
			switch {
			case h.method != methodRegister || h.stream != registerStream:
				return fmt.Errorf("rpcio: unexpected %s reply on stream %d", h.method, h.stream)
			case h.kind == frameError:
				return RemoteError(string(payload))
			}
			if err := readCallReply(methodRegister, payload, &period); err != nil {
				return err
			}
			return errRegistered
		})
	}
	if err == errRegistered {
		// The deadline bounded the registration; the connection now
		// waits for rounds as long as it lives.
		err = conn.SetReadDeadline(time.Time{})
	}
	if err != nil {
		// The connection is unusable; its close error adds nothing.
		_ = conn.Close()
		switch {
		case errors.Is(err, os.ErrDeadlineExceeded):
			return nil, fmt.Errorf("rpcio: controller %s: Registrar.Register deadline %v exceeded", addr, callTO)
		case !Retryable(err):
			return nil, err // the controller's refusal
		}
		return nil, fmt.Errorf("rpcio: controller %s: registration: %w", addr, err)
	}
	c := &ControllerConn{conn: conn, sess: sess, period: period, done: make(chan struct{})}
	go func() {
		defer close(c.done)
		// The loop ends when the connection does, which says why.
		_ = t.serve(sess, nil)
		_ = conn.Close()
	}()
	return c, nil
}

// errRegistered ends the first stretch of a stage's frame loop on its
// connection to the controller: the registration was answered.
var errRegistered = errors.New("rpcio: registered")

// RetryDelay is the sleep after a registration's attempt-th failed try
// (counting from 0), the schedule's last delay once it runs out: the
// pace of a stage that keeps re-registering after losing its
// controller.
func RetryDelay(attempt int) time.Duration {
	return retryDelays[min(attempt, len(retryDelays)-1)]
}
