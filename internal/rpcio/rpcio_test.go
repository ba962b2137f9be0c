package rpcio

import (
	"io"
	"net"
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
	res, _, err := h.Exec([]StageOp{op}, nil, false)
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

// statsBytes is the canonical encoding two snapshots are compared
// under: codec-byte-identical means field-for-field identical.
func statsBytes(st stage.Stats) []byte { return appendStats(nil, &st) }

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

func TestRegistrarFlow(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var regs []Registration
	var deregs []string
	stop := ServeRegistrar(l,
		func(r Registration) error {
			mu.Lock()
			regs = append(regs, r)
			mu.Unlock()
			return nil
		},
		func(id string) {
			mu.Lock()
			deregs = append(deregs, id)
			mu.Unlock()
		})
	defer stop()

	info := stage.Info{StageID: "sX", JobID: "jY", Hostname: "nodeZ", PID: 11, User: "bob"}
	if err := RegisterWithController(l.Addr().String(), info, "127.0.0.1:9999"); err != nil {
		t.Fatal(err)
	}
	if err := DeregisterFromController(l.Addr().String(), "sX"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(regs) != 1 || regs[0].Info.JobID != "jY" || regs[0].Addr != "127.0.0.1:9999" {
		t.Errorf("registrations = %+v", regs)
	}
	if len(deregs) != 1 || deregs[0] != "sX" {
		t.Errorf("deregistrations = %v", deregs)
	}
}

// TestRegistrarRejectsMalformedFrames sends the registrar what a broken
// or outdated stage would: a Registration payload cut short (answered
// with an error frame, onRegister never runs) and a frame from a
// WireVersion 2 peer (connection dropped without a reply). Neither may
// panic the endpoint, which must keep serving afterwards.
func TestRegistrarRejectsMalformedFrames(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var regs atomic.Int32
	stop := ServeRegistrar(l, func(Registration) error { regs.Add(1); return nil }, nil)
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
		frame, err := appendCallArgs(frameStart(nil), methodRegister,
			&Registration{Info: stage.Info{StageID: "sX", JobID: "jY"}, Addr: "127.0.0.1:9999"})
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
	if err := ProbeController(l.Addr().String(), time.Second); err != nil {
		t.Errorf("registrar stopped serving after malformed frames: %v", err)
	}
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
