// Package rpcio provides the wire between PADLL's control plane and its
// data-plane stages. The paper uses gRPC (§III-C); this implementation
// uses one versioned binary frame protocol over TCP (wirecodec.go) for
// stage and registrar traffic, written and read on the client side by
// one transport (frame.go). The structure is the same:
// every stage exposes a typed control service (install rule, retune
// rate, collect statistics — all carried by Stage.Batch), and the
// control plane exposes a registration service stages dial when their
// job starts (§III-B "orchestrating stages from the same job").
package rpcio

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"padll/internal/stage"
)

// Registration is what a stage announces to the control plane at startup:
// the identity attributes the controller groups stages by (job-ID, PID,
// hostname, user) plus the address of the stage's control service.
type Registration struct {
	Info stage.Info
	// Addr is the host:port of the stage's RPC server.
	Addr string
}

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
// (ServeStageService) or in process (NewEncodedLoopback).
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
// handler must serve the connection to completion and return when it
// dies. The returned stop function is deterministic: it closes the
// listener, closes every in-flight connection (unblocking their
// handlers), and waits for all goroutines to finish.
func serveBounded(l net.Listener, handler func(net.Conn), limit int) (stop func()) {
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
				handler(conn)
				// The handler is done with the peer (it hung up, or sent
				// unusable framing): release the socket now rather than
				// leaving the peer to run into its own deadline.
				_ = conn.Close()
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
	return serveBounded(l, frameTarget{stage: svc}.serveConn, maxConns)
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

// StageHandle is the control plane's one link to a stage, layered
// over a Transport: frames over TCP with redial, deadlines and a fixed
// retry schedule for remote stages (DialStage), or the same codec in
// process (EncodedLoopbackStage). The handle owns the client half of
// the batched delta protocol (Start/Finish/Exec/Reattempt in batch.go);
// a fault to inject goes under it, as a Transport.
type StageHandle struct {
	t Transport

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
	t := newFrameTransport(addr, cfg)
	if _, err := t.ensureConn(); err != nil {
		return nil, err
	}
	return NewStageHandle(t), nil
}

// NewStageHandle wraps an arbitrary transport (fault injectors wrap an
// EncodedLoopback).
func NewStageHandle(t Transport) *StageHandle {
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
	onRegister   func(Registration) error
	onDeregister func(stageID string)
	registered   func(stageID string) bool
}

// ServeRegistrar serves a registration endpoint on l, invoking onRegister
// for each arriving stage — its error travels back to the stage as the
// call's error — and onDeregister (may be nil) on departures. A health
// probe is answered with registered(stageID); a nil registered holds no
// stage. Connection handling is bounded and stop is deterministic; see
// ServeStageService.
func ServeRegistrar(l net.Listener, onRegister func(Registration) error, onDeregister func(string),
	registered func(string) bool) (stop func()) {
	reg := &registrar{onRegister: onRegister, onDeregister: onDeregister, registered: registered}
	return serveBounded(l, frameTarget{reg: reg}.serveConn, maxConns)
}

// registrarCall performs one exchange with the control plane's
// registrar: a one-shot frame transport on a connection of its own, so
// concurrent registrations are served in parallel, closed once the
// exchange is over. The dial and the exchange (counted from the send, on
// the wall clock: registrar calls run on real deployments' startup
// paths) are bounded, which keeps a stage's startup, shutdown and
// heartbeat paths from hanging on a dead controller.
func registrarCall(addr string, dialTO, callTO time.Duration, method string, args, reply any) error {
	cfg := defaultDialConfig()
	cfg.timeout, cfg.dialTO, cfg.delays = callTO, dialTO, nil
	t := newFrameTransport(addr, cfg)
	// Closing a one-shot transport after its exchange reports nothing.
	defer func() { _ = t.Close() }()
	t.Start(method, args, reply)
	err := t.Finish()
	if Retryable(err) {
		return fmt.Errorf("rpcio: controller %s: %w", addr, err)
	}
	return err
}

// RegisterWithController dials the control plane's registrar and announces
// a stage served at stageAddr.
func RegisterWithController(controllerAddr string, info stage.Info, stageAddr string) error {
	return registrarCall(controllerAddr, DefaultDialTimeout, DefaultCallTimeout, "Registrar.Register",
		&Registration{Info: info, Addr: stageAddr}, nil)
}

// DeregisterFromController announces a stage's departure.
func DeregisterFromController(controllerAddr, stageID string) error {
	return registrarCall(controllerAddr, DefaultDialTimeout, DefaultCallTimeout, "Registrar.Deregister", &stageID, nil)
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
	if err := registrarCall(controllerAddr, timeout, timeout, "Registrar.Ping",
		&HealthProbe{Seq: 1, StageID: stageID}, &echo); err != nil {
		return false, fmt.Errorf("rpcio: probe controller: %w", err)
	}
	return echo.Registered, nil
}
