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
	h, err := DialStage(l.Addr().String(), WithBackoff(Backoff{Attempts: 1}))
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
// The second client gets a private frame dialer: the default pool would
// share the first client's multiplexed connection (the mux's whole
// point), and this test needs two real sockets. Its deadline runs on a
// simulated clock, so "goes unanswered" is the deadline the test fires,
// and "served once the slot frees up" is a call that simply returns.
func TestMaxConnsBoundsConcurrentClients(t *testing.T) {
	stg := stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clock.NewSim(epoch))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFrameServer()
	fs.Add(NewStageService(stg))
	stop := serveBounded(l, fs.serveFrameConn, 1)
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
		WithCallTimeout(timeout),
		WithBackoff(Backoff{Attempts: 1}),
		func(c *dialConfig) { c.dialer = &frameDialer{} })
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
	if _, err := DialStage(l.Addr().String(), WithBackoff(Backoff{Attempts: 1}), WithDialTimeout(200*time.Millisecond)); err == nil {
		t.Error("dial succeeded against a stopped server")
	}
}

// TestFrameServerRefusesMisaddressedCalls: a call the channel cannot
// take is answered with an error frame, never dispatched. Method 8 was
// the stage health probe until wire v5, methods 10 and 11 the
// aggregator tier's until v4, and all three must now read as unknown; a
// method this build knows, sent to a channel hosting the other kind of
// service, names both kinds.
func TestFrameServerRefusesMisaddressedCalls(t *testing.T) {
	fs := NewFrameServer()
	fs.Add(NewStageService(stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clock.NewSim(epoch))))
	client, server := net.Pipe()
	defer client.Close()
	go fs.serveFrameConn(server)

	for _, tc := range []struct {
		method methodID
		want   string
	}{
		{8, "rpcio: unknown method 8"},
		{10, "rpcio: unknown method 10"},
		{11, "rpcio: unknown method 11"},
		{methodRegister, "rpcio: channel 0 hosts a stage, not the registrar"},
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

// TestFrameServerPublishesTargetsCopyOnWrite: Add publishes a fresh
// channel table that nobody writes again, so a frame's lookup can read
// the newest entry with one atomic load and no lock while another
// service is being added. Under -race, an Add that filled in its entry
// after publishing the table is reported here as a data race.
func TestFrameServerPublishesTargetsCopyOnWrite(t *testing.T) {
	const adds = 2000
	fs := NewFrameServer()
	svc := NewStageService(stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clock.NewSim(epoch)))
	fs.Add(svc)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < adds; i++ {
			fs.Add(svc)
		}
	}()
	for {
		newest := uint32(len(*fs.targets.Load()) - 1)
		if tgt, ok := fs.lookup(newest); !ok || tgt.stage != svc {
			t.Fatalf("channel %d resolved to %+v, %v; want the service just added", newest, tgt, ok)
		}
		select {
		case <-done:
			if n := len(*fs.targets.Load()); n != adds+1 {
				t.Fatalf("%d channels after %d adds", n, adds+1)
			}
			return
		default:
		}
	}
}
