package rpcio

import (
	"io"
	"net"
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
	h, err := DialStage(l.Addr().String(), withDelays())
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
	stop := serveBounded(l, frameTarget{stage: NewStageService(stg)}.serveConn, 1)
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
	b, err := DialStage(l.Addr().String(),
		WithHandleClock(clk),
		withCallTimeout(timeout),
		withDelays())
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

	// Releasing the slot lets the accept loop reach the queued client:
	// its next call redials and is answered.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ping(b); err != nil {
		t.Fatalf("second client not served after the slot freed up: %v", err)
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
	if _, err := DialStage(l.Addr().String(), withDelays(), withDialTimeout(200*time.Millisecond)); err == nil {
		t.Error("dial succeeded against a stopped server")
	}
}

// TestFrameServerRefusesMisaddressedCalls: a call the endpoint cannot
// take is answered with an error frame, never dispatched. Method 1 was
// the stage mux's attach handshake, method 8 the stage health probe
// until wire v5, methods 10 and 11 the aggregator tier's until v4, and
// all four must now read as unknown; and a method this build knows,
// sent to an endpoint hosting the other kind of service, names both
// kinds.
func TestFrameServerRefusesMisaddressedCalls(t *testing.T) {
	svc := frameTarget{stage: NewStageService(stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clock.NewSim(epoch)))}
	client, server := net.Pipe()
	defer client.Close()
	go svc.serveConn(server)

	for _, tc := range []struct {
		method methodID
		want   string
	}{
		{1, "rpcio: unknown method 1"},
		{8, "rpcio: unknown method 8"},
		{10, "rpcio: unknown method 10"},
		{11, "rpcio: unknown method 11"},
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
