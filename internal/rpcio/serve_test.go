package rpcio

import (
	"io"
	"net"
	"sync"
	"syscall"
	"testing"
	"time"

	"padll/internal/clock"
	"padll/internal/stage"
)

// TestStopClosesInFlightConnections: stop() must tear down connections
// that are sitting idle inside the frame loop, not just the listener — and
// return only after every serving goroutine has drained. A hang here
// fails the test by timeout.
func TestStopClosesInFlightConnections(t *testing.T) {
	stg := stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clock.NewSim(epoch))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := ServeStage(l, stg)
	h, err := DialStage(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if _, err := ping(h); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stop() hung with an in-flight connection open")
	}
	if _, err := ping(h); err == nil {
		t.Error("call succeeded after the server stopped")
	}
}

// TestMaxConnsBoundsConcurrentClients drives serveBounded with a single
// connection slot. A second client can complete the TCP handshake (kernel backlog)
// but its calls go unanswered until the first client releases the slot.
// The second client's deadline runs on a simulated clock, so "goes unanswered" is the deadline the test fires,
// and "served once the slot frees up" is a call that simply returns.
func TestMaxConnsBoundsConcurrentClients(t *testing.T) {
	stg := stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clock.NewSim(epoch))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	svc := NewStageService(stg)
	stop := serveBounded(l, func(conn net.Conn, _ func()) bool {
		_ = frameTarget{stage: svc}.serveConn(conn)
		return false
	}, 1)
	defer stop()

	a, err := DialStage(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ping(a); err != nil {
		t.Fatal(err)
	}

	const timeout = 200 * time.Millisecond
	clk := clock.NewSim(epoch)
	b, err := DialStage(l.Addr().String(), WithHandleClock(clk), withCallTimeout(timeout))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	unanswered := make(chan error, 1)
	go func() {
		_, err := ping(b)
		unanswered <- err
	}()
	clk.BlockUntil(1) // b's request is written and waiting on its deadline
	clk.Advance(timeout)
	if err := <-unanswered; err == nil {
		t.Fatal("second client served while the only slot was held")
	}

	// Releasing the slot lets the accept loop go on: b's handle died at
	// its deadline, and a client dialing now is answered.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := DialStage(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := ping(c); err != nil {
		t.Fatalf("a client dialing after the slot freed up not served: %v", err)
	}
}

// TestStopRefusesLateConnections: a connection that wins the Accept race
// against stop() must be refused, not silently served by a dying server.
func TestStopRefusesLateConnections(t *testing.T) {
	stg := stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clock.NewSim(epoch))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := ServeStage(l, stg)
	stop()
	if _, err := DialStage(l.Addr().String(), withDialTimeout(200*time.Millisecond)); err == nil {
		t.Error("dial succeeded against a stopped server")
	}
}

// TestFrameServerRefusesMisaddressedCalls: a call the endpoint cannot
// take is answered with an error frame, never dispatched. Wire v9
// numbered the live methods 1 and 2: 9 and 12, theirs before, and 13,
// the registrar's retired probe, must now read as unknown; and a method
// this build knows, sent to an endpoint hosting the other kind of
// service, names both kinds.
func TestFrameServerRefusesMisaddressedCalls(t *testing.T) {
	svc := frameTarget{stage: NewStageService(stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clock.NewSim(epoch)))}
	client, server := net.Pipe()
	defer client.Close()
	go svc.serveConn(server)

	for _, tc := range []struct {
		method methodID
		want   string
	}{
		{9, "rpcio: unknown method 9"},
		{12, "rpcio: unknown method 12"},
		{13, "rpcio: unknown method 13"},
		{methodRegister, "rpcio: this endpoint hosts a stage, not the registrar"},
	} {
		req := make([]byte, frameHeaderLen)
		putFrameHeader(req, frameHeader{kind: frameRequest, method: tc.method, stream: 7})
		if _, err := client.Write(req); err != nil {
			t.Fatal(err)
		}
		hdr := make([]byte, frameHeaderLen)
		if _, err := io.ReadFull(client, hdr); err != nil {
			t.Fatal(err)
		}
		h, err := parseFrameHeader(hdr)
		if err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, h.length)
		if _, err := io.ReadFull(client, payload); err != nil {
			t.Fatal(err)
		}
		if h.kind != frameError || h.stream != 7 || string(payload) != tc.want {
			t.Errorf("method %d: answered kind %d stream %d %q, want an error frame on stream 7 saying %q",
				tc.method, h.kind, h.stream, payload, tc.want)
		}
	}
}

// stallingListener hands out connections that report their closing and
// whose first Write, once its bytes are sent, waits for release: a
// registrar's handler stalls right after it answers a registration.
type stallingListener struct {
	net.Listener
	conns chan *stallingConn
}

func (l *stallingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	c := &stallingConn{Conn: conn, wrote: make(chan struct{}), release: make(chan struct{}), closed: make(chan struct{})}
	l.conns <- c
	return c, nil
}

type stallingConn struct {
	net.Conn
	writes                 int // the server's own writes, in order
	wrote, release, closed chan struct{}
	closeOnce              sync.Once
}

func (c *stallingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	if c.writes++; c.writes == 1 {
		close(c.wrote)
		<-c.release
	}
	return n, err
}

// SyscallConn lets the controller's handle look at the socket, as it
// does on any TCP connection.
func (c *stallingConn) SyscallConn() (syscall.RawConn, error) {
	return c.Conn.(syscall.Conn).SyscallConn()
}

func (c *stallingConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// TestRegistrarStopSparesAHandedOffConnection: a registration takes its
// connection out of the registrar before the answer tells the stage it
// registered, so a registrar stopped from then on leaves the connection
// open under the controller, even while the registrar's handler is
// still in the Write that sent the answer.
func TestRegistrarStopSparesAHandedOffConnection(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &stallingListener{Listener: inner, conns: make(chan *stallingConn, 2)}
	handles := make(chan *StageHandle, 1)
	stop := ServeRegistrar(l, func(_ stage.Info, h *StageHandle) (time.Duration, error) {
		handles <- h
		return 0, nil
	})
	// A client that sends nothing: its connection is in flight at the stop.
	idle, err := net.Dial("tcp", inner.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	idleConn := <-l.conns
	svc := NewStageService(stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clock.NewSim(epoch)))
	link, err := RegisterWithController(inner.Addr().String(), svc)
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	h := <-handles
	defer h.Close()
	reg := <-l.conns
	<-reg.wrote // the stage has its answer; the handler is still in the Write
	stopped := make(chan struct{})
	go func() {
		stop()
		close(stopped)
	}()
	<-idleConn.closed // the stop is closing the connections in flight
	close(reg.release)
	<-stopped
	select {
	case <-reg.closed:
		t.Fatal("the registrar's stop closed a connection it had handed to the controller")
	default:
	}
	if err := h.CollectDeltaInto(&stage.Stats{}); err != nil {
		t.Errorf("the controller's handle failed once the registrar stopped: %v", err)
	}
}
