package rpcio

import (
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"padll/internal/clock"
	"padll/internal/policy"
	"padll/internal/posix"
	"padll/internal/stage"
)

var epoch = time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC)

// The helpers below spell single operations the way every client does:
// as one-op batches (and the liveness probe as a collect).

func execOp(h *StageHandle, op StageOp) (found bool, err error) {
	res, _, err := h.Exec([]StageOp{op}, nil)
	if err != nil {
		return false, err
	}
	return res[0].Found, nil
}

func applyRule(h *StageHandle, r policy.Rule) error {
	_, err := execOp(h, StageOp{Kind: OpApplyRule, Rule: r})
	return err
}

func setRate(h *StageHandle, id string, rate float64) (bool, error) {
	return execOp(h, StageOp{Kind: OpSetRate, ID: id, Rate: rate})
}

func removeRule(h *StageHandle, id string) (bool, error) {
	return execOp(h, StageOp{Kind: OpRemoveRule, ID: id})
}

func setMode(h *StageHandle, m stage.Mode) error {
	_, err := execOp(h, StageOp{Kind: OpSetMode, Mode: m})
	return err
}

// collect is a one-shot collect into a fresh buffer: always a full
// snapshot. A test that follows the incremental protocol keeps its
// buffer and collects into it with CollectDeltaInto.
func collect(h *StageHandle) (stage.Stats, error) {
	var st stage.Stats
	err := h.CollectDeltaInto(&st)
	return st, err
}

// ping is padll-ctl's ping: one collect, of which it keeps the stage's
// identity.
func ping(h *StageHandle) (stage.Info, error) {
	st, err := collect(h)
	return st.Info, err
}

// sameStats reports whether two snapshots are field-for-field equal,
// an empty queue list equal to a nil one.
func sameStats(a, b stage.Stats) bool {
	if len(a.Queues) == 0 {
		a.Queues = nil
	}
	if len(b.Queues) == 0 {
		b.Queues = nil
	}
	return reflect.DeepEqual(a, b)
}

// holdHandles is a registrar's onRegister that keeps every handle it is
// given, answers with err, and closes the handles when the test ends.
func holdHandles(t *testing.T, err error) func(stage.Info, *StageHandle) (time.Duration, error) {
	var mu sync.Mutex
	var held []*StageHandle
	t.Cleanup(func() {
		mu.Lock()
		defer mu.Unlock()
		for _, h := range held {
			h.Close()
		}
	})
	return func(_ stage.Info, h *StageHandle) (time.Duration, error) {
		mu.Lock()
		defer mu.Unlock()
		held = append(held, h)
		return 0, err
	}
}

// servedStage spins up a stage with its RPC service on loopback.
func servedStage(t *testing.T) (*stage.Stage, *StageHandle) {
	t.Helper()
	stg := stage.New(stage.Info{StageID: "s1", JobID: "j1", Hostname: "n1", PID: 7, User: "u"}, clock.NewSim(epoch))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := ServeStage(l, stg)
	t.Cleanup(stop)
	h, err := DialStage(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	return stg, h
}

func TestPingRoundTrip(t *testing.T) {
	_, h := servedStage(t)
	info, err := ping(h)
	if err != nil {
		t.Fatal(err)
	}
	if info.StageID != "s1" || info.JobID != "j1" || info.PID != 7 {
		t.Errorf("ping info = %+v", info)
	}
}

func TestApplyRuleOverRPC(t *testing.T) {
	stg, h := servedStage(t)
	rule := policy.Rule{
		ID:    "open-cap",
		Match: policy.Matcher{Ops: []posix.Op{posix.OpOpen}, JobID: "j1"},
		Rate:  5000,
		Burst: 100,
	}
	if err := applyRule(h, rule); err != nil {
		t.Fatal(err)
	}
	rules := stg.Rules()
	if len(rules) != 1 || rules[0].ID != "open-cap" || rules[0].Rate != 5000 {
		t.Errorf("installed rules = %+v", rules)
	}
	if len(rules[0].Match.Ops) != 1 || rules[0].Match.Ops[0] != posix.OpOpen {
		t.Errorf("matcher lost over the wire: %+v", rules[0].Match)
	}
}

func TestSetRateOverRPC(t *testing.T) {
	stg, h := servedStage(t)
	if err := applyRule(h, policy.Rule{ID: "q", Rate: 100}); err != nil {
		t.Fatal(err)
	}
	found, err := setRate(h, "q", 250)
	if err != nil || !found {
		t.Fatalf("SetRate = %v, %v", found, err)
	}
	if got := stg.Rules()[0].Rate; got != 250 {
		t.Errorf("rate = %v, want 250", got)
	}
	found, err = setRate(h, "ghost", 1)
	if err != nil || found {
		t.Errorf("SetRate(ghost) = %v, %v; want false, nil", found, err)
	}
}

func TestRemoveRuleOverRPC(t *testing.T) {
	_, h := servedStage(t)
	if err := applyRule(h, policy.Rule{ID: "q", Rate: 100}); err != nil {
		t.Fatal(err)
	}
	removed, err := removeRule(h, "q")
	if err != nil || !removed {
		t.Fatalf("RemoveRule = %v, %v", removed, err)
	}
	removed, err = removeRule(h, "q")
	if err != nil || removed {
		t.Errorf("second RemoveRule = %v, %v; want false, nil", removed, err)
	}
}

func TestCollectOverRPC(t *testing.T) {
	stg, h := servedStage(t)
	if err := applyRule(h, policy.Rule{ID: "meta", Match: policy.Matcher{Classes: []posix.Class{posix.ClassMetadata}}, Rate: policy.Unlimited}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if err := stg.Enforce(&posix.Request{Op: posix.OpOpen, Path: "/f"}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := collect(h)
	if err != nil {
		t.Fatal(err)
	}
	if st.Info.StageID != "s1" {
		t.Errorf("stats info = %+v", st.Info)
	}
	if len(st.Queues) != 1 || st.Queues[0].Total != 25 {
		t.Errorf("queues = %+v", st.Queues)
	}
}

func TestSetModeOverRPC(t *testing.T) {
	stg, h := servedStage(t)
	if err := setMode(h, stage.Passthrough); err != nil {
		t.Fatal(err)
	}
	if stg.Mode() != stage.Passthrough {
		t.Error("mode not switched")
	}
}

// TestRegistrarFlow: a registration carries the stage's identity and is
// answered with the controller's loop period, and the stage leaves by
// closing the connection it registered on: the controller's next
// exchange on its handle finds it gone (ErrDeparted), and so does every
// one after it.
func TestRegistrarFlow(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	regs := make(chan stage.Info, 1)
	handles := make(chan *StageHandle, 1)
	stop := ServeRegistrar(l, func(info stage.Info, h *StageHandle) (time.Duration, error) {
		regs <- info
		handles <- h
		return 1500 * time.Millisecond, nil
	})
	defer stop()

	info := stage.Info{StageID: "sX", JobID: "jY", Hostname: "nodeZ", PID: 11, User: "bob"}
	cc, err := RegisterWithController(l.Addr().String(), NewStageService(stage.New(info, clock.NewReal())))
	if err != nil {
		t.Fatal(err)
	}
	if got := <-regs; got != info {
		t.Errorf("registration = %+v, want %+v", got, info)
	}
	if got := cc.Link().Period; got != 1500*time.Millisecond {
		t.Errorf("the registration's answer carried period %v, want 1.5s", got)
	}
	h := <-handles
	defer h.Close()
	if err := h.CollectDeltaInto(&stage.Stats{}); err != nil {
		t.Fatalf("collect over the registration connection: %v", err)
	}
	cc.Close()
	for i := 0; i < 2; i++ {
		if err := h.CollectDeltaInto(&stage.Stats{}); !errors.Is(err, ErrDeparted) {
			t.Errorf("exchange %d after the stage hung up: %v, want its departure", i, err)
		}
	}
}

// TestInMemoryHangUpIsADeparture: a stage in process hangs up its
// in-memory conn through its Fault (io.EOF), and the controller's
// handle takes that as the stage's departure, on the exchange that
// found it and on a fresh conn after it.
func TestInMemoryHangUpIsADeparture(t *testing.T) {
	svc := NewStageService(stage.New(stage.Info{StageID: "s1"}, clock.NewSim(epoch)))
	var gone atomic.Bool
	h := LocalStage(svc, func([]StageOp, bool) error {
		if gone.Load() {
			return io.EOF
		}
		return nil
	})
	defer h.Close()
	if err := h.CollectDeltaInto(&stage.Stats{}); err != nil {
		t.Fatal(err)
	}
	gone.Store(true)
	for i := 0; i < 2; i++ {
		if err := h.CollectDeltaInto(&stage.Stats{}); !errors.Is(err, ErrDeparted) {
			t.Errorf("exchange %d after the hang-up: %v, want the stage's departure", i, err)
		}
	}
	if served := svc.Served(); served.Calls != 1 {
		t.Errorf("the stage served %d calls, want the one before it hung up", served.Calls)
	}
}

// TestRegistrationConnectionCarriesTheControllersCalls: the registrar
// hands the connection a stage registered on to the controller, which
// installs a rule over it before the registration is answered. The
// stage serves that call, the answer then ends its registration, and
// the connection carries the controller's later exchanges until the
// controller closes its handle, which ends the stage's serve loop.
func TestRegistrationConnectionCarriesTheControllersCalls(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	handles := make(chan *StageHandle, 1)
	stop := ServeRegistrar(l, func(_ stage.Info, h *StageHandle) (time.Duration, error) {
		handles <- h
		return 0, applyRule(h, policy.Rule{ID: "cap", Rate: 100})
	})
	defer stop()

	stg := stage.New(stage.Info{StageID: "sX", JobID: "jY"}, clock.NewReal())
	svc := NewStageService(stg)
	cc, err := RegisterWithController(l.Addr().String(), svc)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	h := <-handles
	defer h.Close()
	if rules := stg.Rules(); len(rules) != 1 || rules[0].ID != "cap" {
		t.Fatalf("rules when the registration returned = %+v, want the one the registrar installed", rules)
	}
	if found, err := setRate(h, "cap", 50); err != nil || !found {
		t.Fatalf("retune over the registration connection: found=%v, %v", found, err)
	}
	if got := stg.Rules()[0].Rate; got != 50 {
		t.Errorf("rate after the retune = %v, want 50", got)
	}
	if served := svc.Served(); served.Calls != 2 {
		t.Errorf("stage served %d calls, want the install and the retune", served.Calls)
	}
	if served := cc.Link().Served(); served != 2 {
		t.Errorf("the registration connection served %d exchanges, want the install and the retune", served)
	}
	// Another client of the same service moves the service's count, not
	// the connection's: the silence the stage watches is its controller's.
	sl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ServeStageService(sl, svc)()
	other, err := DialStage(sl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if _, err := ping(other); err != nil {
		t.Fatal(err)
	}
	if served := cc.Link().Served(); served != 2 || svc.Served().Calls != 3 {
		t.Errorf("after another client's exchange: connection %d, service %d; want 2 and 3", served, svc.Served().Calls)
	}

	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-cc.Link().Done:
	case <-time.After(5 * time.Second):
		t.Fatal("the stage's serve loop outlived the controller's handle")
	}
}

// TestRegistrationConnectionCountsEachExchangeBeforeItsReply: the
// stage counts an exchange on its registration connection once it has
// answered it, before the reply is written, so the count has moved by
// the time the controller reads the reply.
func TestRegistrationConnectionCountsEachExchangeBeforeItsReply(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	handles := make(chan *StageHandle, 1)
	stop := ServeRegistrar(l, func(_ stage.Info, h *StageHandle) (time.Duration, error) {
		handles <- h
		return 0, nil
	})
	defer stop()
	cc, err := RegisterWithController(l.Addr().String(), NewStageService(stage.New(stage.Info{StageID: "sC", JobID: "jC"}, clock.NewReal())))
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	h := <-handles
	defer h.Close()
	for i := uint64(1); i <= 200; i++ {
		if _, err := ping(h); err != nil {
			t.Fatalf("exchange %d: %v", i, err)
		}
		if served := cc.Link().Served(); served != i {
			t.Fatalf("after the reply to exchange %d the connection counts %d served", i, served)
		}
	}
}

// TestRegistrarRejectsMalformedFrames sends the registrar what a broken
// or outdated stage would: a registration payload cut short (answered
// with an error frame, onRegister never runs) and a frame from a
// WireVersion 2 peer (connection dropped without a reply). Neither may
// panic the endpoint, which must keep serving afterwards.
func TestRegistrarRejectsMalformedFrames(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var regs atomic.Int32
	hold := holdHandles(t, nil)
	stop := ServeRegistrar(l, func(info stage.Info, h *StageHandle) (time.Duration, error) { regs.Add(1); return hold(info, h) })
	defer stop()

	// exchange writes one raw request frame and reads one reply frame.
	exchange := func(frame []byte) (frameHeader, []byte, error) {
		conn, err := net.DialTimeout("tcp", l.Addr().String(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		var hdr [frameHeaderLen]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return frameHeader{}, nil, err
		}
		h, err := parseFrameHeader(hdr[:])
		if err != nil {
			return frameHeader{}, nil, err
		}
		body := make([]byte, h.length)
		_, err = io.ReadFull(conn, body)
		return h, body, err
	}
	request := func(cut int) []byte {
		frame, err := appendCallArgs(frameStart(nil), methodRegister, &stage.Info{StageID: "sX", JobID: "jY"})
		if err != nil {
			t.Fatal(err)
		}
		frame = frame[:len(frame)-cut]
		putFrameHeader(frame[:frameHeaderLen], frameHeader{
			kind: frameRequest, method: methodRegister, stream: 1,
			length: uint32(len(frame) - frameHeaderLen),
		})
		return frame
	}

	h, body, err := exchange(request(5))
	if err != nil {
		t.Fatalf("truncated registration: no reply: %v", err)
	}
	if h.kind != frameError || !strings.Contains(string(body), "decode") {
		t.Errorf("truncated registration answered kind=%d %q, want a decode error frame", h.kind, body)
	}

	old := request(0)
	old[4] = 2
	if _, _, err := exchange(old); err == nil {
		t.Error("WireVersion 2 frame was answered; want the connection dropped")
	}

	if got := regs.Load(); got != 0 {
		t.Errorf("onRegister ran %d times on malformed input, want 0", got)
	}
	cc, err := RegisterWithController(l.Addr().String(), NewStageService(stage.New(stage.Info{StageID: "sX"}, clock.NewReal())))
	if err != nil {
		t.Fatalf("registrar stopped serving after malformed frames: %v", err)
	}
	cc.Close()
}

func TestDialStageFailure(t *testing.T) {
	if _, err := DialStage("127.0.0.1:1"); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

func TestClosedHandleErrors(t *testing.T) {
	_, h := servedStage(t)
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if _, err := ping(h); err == nil {
		t.Error("Ping on closed handle succeeded")
	}
}

func TestEndToEndEnforcementViaRPC(t *testing.T) {
	// Full integration: controller installs a rule over the wire; the
	// stage then throttles a live request stream.
	stg := stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clock.NewReal())
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := ServeStage(l, stg)
	defer stop()
	h, err := DialStage(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	if err := applyRule(h, policy.Rule{ID: "cap", Rate: 1000, Burst: 10}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for i := 0; i < 200; i++ {
		if err := stg.Enforce(&posix.Request{Op: posix.OpOpen, Path: "/f"}); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Errorf("200 ops at 1000/s burst 10 finished in %v; RPC-installed rule not enforced", elapsed)
	}
	st, err := collect(h)
	if err != nil {
		t.Fatal(err)
	}
	if st.Queues[0].Total != 200 {
		t.Errorf("total = %d, want 200", st.Queues[0].Total)
	}
}

func TestWaitPercentilesSurviveGob(t *testing.T) {
	// QueueStats gained WaitP50/P95/P99; make sure the collect reply
	// carries them rather than silently zeroing the new fields.
	clk := clock.NewSim(epoch)
	stg := stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clk)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := ServeStage(l, stg)
	defer stop()
	h, err := DialStage(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	stg.ApplyRule(policy.Rule{ID: "cap", Rate: 10, Burst: 1})
	req := &posix.Request{Op: posix.OpOpen, Path: "/f", JobID: "j1"}
	if err := stg.Enforce(req); err != nil { // drains the 1-token burst
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- stg.Enforce(req) }()
	clk.BlockUntil(1) // the request is parked in its bucket
	clk.Advance(200 * time.Millisecond)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	st, err := collect(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Queues) != 1 {
		t.Fatalf("queues = %+v", st.Queues)
	}
	q := st.Queues[0]
	if q.WaitP99 <= 0 {
		t.Errorf("WaitP99 = %v, want > 0: percentiles lost over the wire (%+v)", q.WaitP99, q)
	}
	if q.WaitP50 > q.WaitP95 || q.WaitP95 > q.WaitP99 {
		t.Errorf("percentiles not monotone over the wire: %+v", q)
	}
}

func TestRuleActionSurvivesGob(t *testing.T) {
	stg, h := servedStage(t)
	rule := policy.Rule{ID: "police", Rate: 100, Burst: 5, Action: policy.ActionDrop}
	if err := applyRule(h, rule); err != nil {
		t.Fatal(err)
	}
	got := stg.Rules()[0]
	if got.Action != policy.ActionDrop {
		t.Errorf("action lost over the wire: %+v", got)
	}
}
