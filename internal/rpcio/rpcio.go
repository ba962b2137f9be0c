// Package rpcio provides the wire between PADLL's control plane and its
// data-plane stages. The paper uses gRPC (§III-C); this implementation
// uses one versioned binary frame protocol (wirecodec.go) for stage and
// registrar traffic, written and read on the client side by one
// transport (frame.go), over TCP or an in-memory conn (transport.go).
// The structure is the same:
// every stage exposes a typed control service (install rule, retune
// rate, collect statistics — all carried by Stage.Batch), and the
// control plane exposes a registration service stages dial when their
// job starts (§III-B "orchestrating stages from the same job").
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
	// epoch identifies this service instance to delta-collect clients;
	// see StatsDelta.Epoch.
	epoch uint64
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
	return &StageService{stg: stg, epoch: newEpoch()}
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

// HealthProbe is the controller liveness check a stage sends the
// registrar (Registrar.Ping). Seq is echoed back so a prober can match
// replies to probes across retries. StageID names the probing stage, and
// the reply's Registered says whether the controller holds its
// registration: one that restarted or evicted the stage answers false,
// and the stage registers again.
type HealthProbe struct {
	Seq        uint64
	StageID    string
	Registered bool
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
// the connection to a new owner, and report which (kept): a kept
// connection gives its slot back and leaves the server without being
// closed. The returned stop function is deterministic: it closes the
// listener, closes every in-flight connection (unblocking their
// handlers), and waits for all goroutines to finish.
func serveBounded(l net.Listener, handler func(net.Conn) (kept bool), limit int) (stop func()) {
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
				if !handler(conn) {
					// The handler is done with the peer (it hung up, or sent
					// unusable framing): release the socket now rather than
					// leaving the peer to run into its own deadline.
					_ = conn.Close()
				}
				mu.Lock()
				delete(live, conn)
				mu.Unlock()
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
	return serveBounded(l, func(conn net.Conn) bool {
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

// retryDelays is what a stage handle sleeps between the attempts of a
// blocking exchange that failed in transport: four attempts at
// 50/100/200 ms keep transient blips invisible while a dead peer fails
// in well under a second of sleeping. Every sleep runs on the handle's
// clock, so a retry sequence is the same on every run under a simulated
// one — the property the chaos scenarios assert.
var retryDelays = []time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond}

// StageHandle is the control plane's one link to a stage, layered over
// the frame transport: frames with deadlines over TCP — on the
// connection the stage registered on (ServeRegistrar), or on one
// DialStage opens, with redial and a fixed retry schedule — or over an
// in-memory conn to a stage in this process (LocalStage), where a Fault
// injects failures. The handle owns the client half of the batched delta
// protocol (Start/Finish/Exec/Reattempt in batch.go).
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

// DialStage connects to a stage's control service over TCP. The wire is
// the versioned binary frame codec; the handle owns its connection
// (redialed when it dies) and has at most one Stage.Batch exchange on
// it at a time.
func DialStage(addr string, opts ...DialOption) (*StageHandle, error) {
	cfg := defaultDialConfig()
	for _, o := range opts {
		o(&cfg)
	}
	t := newFrameTransport(addr, cfg, dialTCP(addr, cfg.dialTO))
	if _, err := t.ensureConn(); err != nil {
		return nil, err
	}
	return newStageHandle(t), nil
}

func newStageHandle(t *frameTransport) *StageHandle {
	h := &StageHandle{t: t}
	h.idle.L = &h.bmu
	return h
}

// WireStats reports the handle's cumulative traffic accounting.
func (h *StageHandle) WireStats() WireStats { return h.t.WireStats() }

// Close tears down the transport; subsequent calls fail without
// redialing.
func (h *StageHandle) Close() error { return h.t.Close() }

// ---- controller-side registration service ----

// registrar is the control plane's registration service: the target of
// the three Registrar.* frame methods (dispatched in frameserver.go).
type registrar struct {
	onRegister   func(stage.Info, *StageHandle) error
	onDeregister func(stageID string)
	registered   func(stageID string) bool
}

// ServeRegistrar serves a registration endpoint on l. A stage registers
// on a connection it keeps: onRegister receives the stage's identity and
// a handle running over that connection, which it owns from then on,
// and its error travels back to the stage as the call's error. The
// connection leaves the endpoint's bound and its stop function with the
// handle. onDeregister (may be nil) runs on departures, and a health
// probe is answered with registered(stageID); a nil registered holds no
// stage. Connection handling is bounded and stop is deterministic; see
// ServeStageService.
func ServeRegistrar(l net.Listener, onRegister func(stage.Info, *StageHandle) error, onDeregister func(string),
	registered func(string) bool) (stop func()) {
	reg := &registrar{onRegister: onRegister, onDeregister: onDeregister, registered: registered}
	return serveBounded(l, func(conn net.Conn) bool {
		return frameTarget{reg: reg}.serveConn(conn) == errHandedOff
	}, maxConns)
}

// registrarCall performs one exchange with the control plane's
// registrar: a one-shot frame transport on a connection of its own, so
// concurrent calls are served in parallel, closed once the exchange is
// over. The dial and the exchange (counted from the send, on the wall
// clock: registrar calls run on real deployments' shutdown and
// heartbeat paths) are bounded, which keeps those paths from hanging on
// a dead controller.
func registrarCall(addr string, dialTO, callTO time.Duration, m methodID, args, reply any) error {
	cfg := defaultDialConfig()
	cfg.timeout, cfg.delays = callTO, nil
	t := newFrameTransport(addr, cfg, dialTCP(addr, dialTO))
	// Closing a one-shot transport after its exchange reports nothing.
	defer func() { _ = t.Close() }()
	t.Start(m, args, reply)
	err := t.Finish()
	if Retryable(err) {
		return fmt.Errorf("rpcio: controller %s: %w", addr, err)
	}
	return err
}

// ControllerConn is a registered stage's connection to its control
// plane: the stage dialed it to register, and serves its control
// service on it, the controller's rounds included, until it dies.
type ControllerConn struct {
	conn net.Conn
	done chan struct{}
}

// Done is closed once the connection has died and its serve loop has
// returned.
func (c *ControllerConn) Done() <-chan struct{} { return c.done }

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
// afterwards. An error frame in answer is the registration's error.
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
			if err := readCallReply(methodRegister, payload, nil); err != nil {
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
	c := &ControllerConn{conn: conn, done: make(chan struct{})}
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

// DeregisterFromController announces a stage's departure.
func DeregisterFromController(controllerAddr, stageID string) error {
	return registrarCall(controllerAddr, DefaultDialTimeout, DefaultCallTimeout, methodDeregister, &stageID, nil)
}

// ProbeController performs one bounded controller liveness check on
// behalf of stage stageID: dial the registrar, exchange a Registrar.Ping,
// close. A nil error means the control plane is reachable and serving;
// registered reports whether it holds the stage's registration.
func ProbeController(controllerAddr, stageID string, timeout time.Duration) (registered bool, err error) {
	if timeout <= 0 {
		timeout = DefaultDialTimeout
	}
	var echo HealthProbe
	if err := registrarCall(controllerAddr, timeout, timeout, methodRegistrarPing,
		&HealthProbe{Seq: 1, StageID: stageID}, &echo); err != nil {
		return false, fmt.Errorf("rpcio: probe controller: %w", err)
	}
	return echo.Registered, nil
}

// RetryDelay is the retry schedule's sleep after the attempt-th failed
// try (counting from 0), its last delay once the schedule runs out: the
// pace of a stage that keeps re-registering after losing its
// controller.
func RetryDelay(attempt int) time.Duration {
	return retryDelays[min(attempt, len(retryDelays)-1)]
}
