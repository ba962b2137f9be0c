package rpcio

import (
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"padll/internal/clock"
	"padll/internal/policy"
	"padll/internal/posix"
	"padll/internal/stage"
)

// maxRule is a rule with every field (and every nested matcher field)
// populated, so a round trip that drops any field diverges from it.
func maxRule(id string) policy.Rule {
	return policy.Rule{
		ID: id,
		Match: policy.Matcher{
			Ops:        []posix.Op{posix.OpOpen, posix.OpStat, posix.OpOpendir},
			Classes:    []posix.Class{posix.ClassMetadata, posix.ClassData},
			PathPrefix: "/scratch/job-7",
			JobID:      "j1",
			User:       "alice",
		},
		Rate:   12345.5,
		Burst:  64,
		Action: policy.ActionDrop,
	}
}

func maxStats() stage.Stats {
	return stage.Stats{
		Info: stage.Info{StageID: "s9", JobID: "j1", Hostname: "node-3", PID: 4242, User: "alice"},
		Queues: []stage.QueueStats{
			{
				RuleID: "r1", Limit: 500, Burst: 25, ThroughputRate: 480.25,
				DemandRate: 900.75, Total: 1 << 40, TotalDemand: 1<<40 + 7,
				Dropped: 13, Waiting: 4, WaitP50: 0.001, WaitP95: 0.01, WaitP99: 0.1,
			},
			{RuleID: "r2", Limit: 1, Dropped: -1, Total: -5},
		},
		Passthrough:     987654321,
		Degraded:        true,
		DegradedSeconds: 12.75,
	}
}

// callFixture pairs one method's fully-populated args and reply values
// with matching zero-value destinations.
type callFixture struct {
	method   methodID
	args     any // pointer to populated args, nil when the method takes none
	argsDst  any // pointer to zero value of the same type
	reply    any // pointer to populated reply, nil when the reply is empty
	replyDst any
}

func callFixtures() []callFixture {
	st := maxStats()
	info := stage.Info{StageID: "sX", JobID: "jX", Hostname: "hX", PID: -3, User: "uX"}
	period := 7*time.Second + time.Millisecond
	return []callFixture{
		{
			method: methodBatch,
			args: &BatchArgs{
				Ops: []StageOp{
					{Kind: OpApplyRule, Rule: maxRule("b1")},
					{Kind: OpSetRate, ID: "b1", Rate: 42},
					{Kind: OpRemoveRule, ID: "b0"},
					{Kind: OpSetMode, Mode: stage.Passthrough},
				},
				Collect: true,
				AckGen:  12345,
			},
			argsDst: &BatchArgs{},
			reply: &BatchReply{
				Results: []OpResult{{Found: true}, {Found: false}, {Found: true}, {Found: true}},
				Delta: StatsDelta{
					Gen: 12346, Full: true,
					Info:        st.Info,
					Queues:      st.Queues,
					Removed:     []string{"gone-1", "gone-2"},
					Passthrough: -7,
					Degraded:    true, DegradedSeconds: 3.25,
				},
			},
			replyDst: &BatchReply{},
		},
		{
			// The steady-state collect: no ops, a matching ack, an empty
			// incremental delta.
			method:  methodBatch,
			args:    &BatchArgs{Collect: true, AckGen: 41},
			argsDst: &BatchArgs{},
			reply: &BatchReply{Delta: StatsDelta{
				Gen: 42, Passthrough: 3,
			}},
			replyDst: &BatchReply{},
		},
		{
			// A single operation is a one-op batch with no collect.
			method:   methodBatch,
			args:     &BatchArgs{Ops: []StageOp{{Kind: OpSetRate, ID: "q1", Rate: 777.125}}},
			argsDst:  &BatchArgs{},
			reply:    &BatchReply{Results: []OpResult{{Found: false}}},
			replyDst: &BatchReply{},
		},
		{
			// The answer carries the controller's loop period.
			method:   methodRegister,
			args:     &info,
			argsDst:  &stage.Info{},
			reply:    &period,
			replyDst: new(time.Duration),
		},
	}
}

// TestBinaryCodecRoundTripsEveryMethod drives every method's args and
// reply through the dispatch encoders and decoders with fully-populated
// values. Decoding into a pre-dirtied destination (non-nil slices with
// stale elements) checks that decoders overwrite every field rather
// than merging — the property that lets the transport reuse one
// destination struct across calls.
func TestBinaryCodecRoundTripsEveryMethod(t *testing.T) {
	for _, fx := range callFixtures() {
		m := fx.method
		if fx.args != nil {
			buf, err := appendCallArgs(nil, m, fx.args)
			if err != nil {
				t.Errorf("%s: encode args: %v", fx.method, err)
				continue
			}
			if err := readCallArgs(m, buf, fx.argsDst); err != nil {
				t.Errorf("%s: decode args: %v", fx.method, err)
				continue
			}
			if !reflect.DeepEqual(fx.args, fx.argsDst) {
				t.Errorf("%s: args drifted over binary codec:\n in: %+v\nout: %+v", fx.method, fx.args, fx.argsDst)
			}
		}
		if fx.reply != nil {
			buf, err := appendCallReply(nil, m, fx.reply)
			if err != nil {
				t.Errorf("%s: encode reply: %v", fx.method, err)
				continue
			}
			if err := readCallReply(m, buf, fx.replyDst); err != nil {
				t.Errorf("%s: decode reply: %v", fx.method, err)
				continue
			}
			if !reflect.DeepEqual(fx.reply, fx.replyDst) {
				t.Errorf("%s: reply drifted over binary codec:\n in: %+v\nout: %+v", fx.method, fx.reply, fx.replyDst)
			}
		}
	}
}

// TestBinaryCodecOverwritesDirtyDestination decodes into destinations
// already holding longer slices and non-zero scalars from a previous
// call; any surviving stale element means a decoder merged instead of
// overwrote.
func TestBinaryCodecOverwritesDirtyDestination(t *testing.T) {
	small := StatsDelta{Gen: 2, Queues: []stage.QueueStats{{RuleID: "only", Limit: 1}}, Removed: []string{"gone"}}
	st := maxStats()
	dirty := StatsDelta{ // longer slices, every scalar non-zero
		Gen: 9, Full: true, Info: st.Info, Queues: st.Queues, Removed: []string{"a", "b"},
		Passthrough: st.Passthrough, Degraded: st.Degraded, DegradedSeconds: st.DegradedSeconds,
	}
	r := wireReader{buf: appendStatsDelta(nil, &small)}
	readStatsDelta(&r, &dirty)
	if err := r.done(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(small, dirty) {
		t.Errorf("stale state survived decode:\n in: %+v\nout: %+v", small, dirty)
	}

	bsmall := BatchArgs{Ops: []StageOp{{Kind: OpRemoveRule, ID: "x"}}}
	bbuf, err := appendCallArgs(nil, methodBatch, &bsmall)
	if err != nil {
		t.Fatal(err)
	}
	bdirty := BatchArgs{
		Ops: []StageOp{
			{Kind: OpApplyRule, Rule: maxRule("stale-0")},
			{Kind: OpApplyRule, Rule: maxRule("stale-1")},
		},
		Collect: true, AckGen: 9,
	}
	if err := readCallArgs(methodBatch, bbuf, &bdirty); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bsmall, bdirty) {
		t.Errorf("stale batch state survived decode:\n in: %+v\nout: %+v", bsmall, bdirty)
	}
}

// TestFrameHeaderRejectsMalformedInput exercises every validation arm of
// parseFrameHeader: each corruption must produce an error, never a
// silently wrong header.
func TestFrameHeaderRejectsMalformedInput(t *testing.T) {
	good := make([]byte, frameHeaderLen)
	putFrameHeader(good, frameHeader{
		kind: frameRequest, method: methodBatch, stream: 7, length: 10,
	})
	if h, err := parseFrameHeader(good); err != nil {
		t.Fatalf("valid header rejected: %v", err)
	} else if h.kind != frameRequest || h.method != methodBatch || h.stream != 7 || h.length != 10 {
		t.Fatalf("valid header misparsed: %+v", h)
	}

	corrupt := func(mutate func([]byte)) []byte {
		b := append([]byte(nil), good...)
		mutate(b)
		return b
	}
	cases := map[string][]byte{
		"truncated":       good[:frameHeaderLen-1],
		"empty":           {},
		"bad magic":       corrupt(func(b []byte) { b[0] ^= 0xFF }),
		"version skew":    corrupt(func(b []byte) { b[4] = WireVersion + 1 }),
		"version zero":    corrupt(func(b []byte) { b[4] = 0 }),
		"oversize length": corrupt(func(b []byte) { b[15], b[16], b[17], b[18] = 0xFF, 0xFF, 0xFF, 0xFF }),
	}
	for name, b := range cases {
		if _, err := parseFrameHeader(b); err == nil {
			t.Errorf("%s: parseFrameHeader accepted malformed header", name)
		}
	}
}

// TestDecoderRejectsTruncatedPayloads truncates a valid encoded payload
// at every byte boundary: every prefix except the full payload must
// decode with an error (sticky-reader semantics), and none may panic.
func TestDecoderRejectsTruncatedPayloads(t *testing.T) {
	fx := callFixtures()
	for _, f := range fx {
		m := f.method
		if f.args != nil {
			buf, err := appendCallArgs(nil, m, f.args)
			if err != nil {
				t.Fatal(err)
			}
			for cut := 0; cut < len(buf); cut++ {
				dst := reflect.New(reflect.TypeOf(f.argsDst).Elem()).Interface()
				if err := readCallArgs(m, buf[:cut], dst); err == nil {
					t.Errorf("%s args truncated at %d/%d decoded without error", f.method, cut, len(buf))
				}
			}
		}
		if f.reply != nil {
			buf, err := appendCallReply(nil, m, f.reply)
			if err != nil {
				t.Fatal(err)
			}
			for cut := 0; cut < len(buf); cut++ {
				dst := reflect.New(reflect.TypeOf(f.replyDst).Elem()).Interface()
				if err := readCallReply(m, buf[:cut], dst); err == nil {
					t.Errorf("%s reply truncated at %d/%d decoded without error", f.method, cut, len(buf))
				}
			}
		}
	}
}

// TestDecoderRejectsTrailingGarbage appends bytes after a valid payload;
// done() must flag the leftovers as a schema disagreement.
func TestDecoderRejectsTrailingGarbage(t *testing.T) {
	buf, err := appendCallArgs(nil, methodRegister, &stage.Info{StageID: "s1"})
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, 0x00)
	if err := readCallArgs(methodRegister, buf, &stage.Info{}); err == nil {
		t.Error("trailing byte after args payload decoded without error")
	}
}

// TestEmptyDeltaEncodesSmall: a steady-state incremental delta (no queue
// changes, no removals) must encode to only a handful of bytes — the
// property the fleet-scale collect path is built on. The bound is
// generous; the point is "tens of bytes, not a serialized Stats blob".
func TestEmptyDeltaEncodesSmall(t *testing.T) {
	d := StatsDelta{Gen: 1 << 62, Passthrough: 1 << 40}
	if n := len(appendStatsDelta(nil, &d)); n > 64 {
		t.Errorf("steady-state empty delta encodes to %d bytes, want <= 64", n)
	}
}

// TestHandleEquivalenceProperty is the multi-handle analogue of
// TestDeltaCollectMatchesDirectCollect: one stage served over TCP, two
// independent handles collecting it (each with its own acknowledgment
// over its own connection), and a direct in-process Collect as ground
// truth. The first handle collects after every mutation, the second
// after every other one, moving the stage's one baseline to itself, so
// the first handle's collects alternate between deltas and full
// resyncs. Every snapshot must equal the direct one. Halfway through,
// the server is torn down and rebuilt on the same port with a fresh
// stage (same ID): both handles find the stage gone (ErrDeparted) and
// are done, and two new handles, collecting into the same buffers,
// resync from a full snapshot and converge again.
func TestHandleEquivalenceProperty(t *testing.T) {
	clk := clock.NewSim(epoch)
	info := stage.Info{StageID: "s1", JobID: "j1", Hostname: "n1", PID: 7, User: "u"}
	stg := stage.New(info, clk)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	stop := ServeStage(l, stg)

	hBin, err := DialStage(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer hBin.Close()
	hAlt, err := DialStage(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer hAlt.Close()

	var stBin, stAlt stage.Stats
	steps := 0
	checkConverged := func(step string) {
		t.Helper()
		want := stg.Collect()
		if err := hBin.CollectDeltaInto(&stBin); err != nil {
			t.Fatalf("%s: binary collect: %v", step, err)
		}
		if !sameStats(stBin, want) {
			t.Fatalf("%s: binary snapshot diverged from direct Collect:\nbin:    %+v\ndirect: %+v", step, stBin, want)
		}
		if steps++; steps%2 == 0 {
			if err := hAlt.CollectDeltaInto(&stAlt); err != nil {
				t.Fatalf("%s: second-handle collect: %v", step, err)
			}
			if !sameStats(stAlt, want) {
				t.Fatalf("%s: second handle diverged from direct Collect:\nalt:    %+v\ndirect: %+v", step, stAlt, want)
			}
		}
	}

	mutate := []func(){
		func() {
			if err := applyRule(hBin, maxRule("r1")); err != nil {
				t.Fatal(err)
			}
		},
		func() {
			stg.Offer(&posix.Request{Op: posix.OpOpen, JobID: "j1", User: "alice", Path: "/scratch/job-7/f"}, 500, time.Second)
			clk.Advance(2 * time.Second)
		},
		func() {
			if _, err := setRate(hAlt, "r1", 999); err != nil {
				t.Fatal(err)
			}
		},
		func() {
			if err := applyRule(hAlt, maxRule("r2")); err != nil {
				t.Fatal(err)
			}
		},
		func() {
			if _, err := removeRule(hBin, "r2"); err != nil {
				t.Fatal(err)
			}
		},
		func() {
			if err := setMode(hBin, stage.Passthrough); err != nil {
				t.Fatal(err)
			}
			stg.Offer(&posix.Request{Op: posix.OpStat, JobID: "other"}, 50, time.Second)
		},
	}
	for i, m := range mutate {
		m()
		checkConverged("mutation " + string(rune('a'+i)))
	}

	if _, deltas := hBin.CollectCounts(); deltas == 0 {
		t.Error("first handle: no incremental collects")
	}

	// Restart: new stage (fresh service epoch) behind the same address.
	// The listener may need a few attempts to rebind on slow hosts: the
	// port is the kernel's to release, on a schedule no clock we inject
	// and no signal we could wait on describes, so this wall-clock
	// retry pause stays.
	stop()
	stg = stage.New(info, clk)
	var l2 net.Listener
	for i := 0; ; i++ {
		l2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i > 50 {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	stop2 := ServeStage(l2, stg)
	defer stop2()
	for name, h := range map[string]*StageHandle{"first": hBin, "second": hAlt} {
		if _, err := ping(h); !errors.Is(err, ErrDeparted) {
			t.Fatalf("%s handle after the restart: err = %v, want ErrDeparted", name, err)
		}
	}
	if hBin, err = DialStage(addr); err != nil {
		t.Fatal(err)
	}
	defer hBin.Close()
	if hAlt, err = DialStage(addr); err != nil {
		t.Fatal(err)
	}
	defer hAlt.Close()

	stg.ApplyRule(maxRule("post-restart"))
	stg.Offer(&posix.Request{Op: posix.OpOpen, JobID: "j1", User: "alice", Path: "/scratch/job-7/g"}, 100, time.Second)
	checkConverged("post-restart")
	clk.Advance(time.Second)
	stg.SetRate("post-restart", 321)
	checkConverged("post-restart steady")

	// Each new handle's first collect is a full snapshot; the first
	// handle's second, with the baseline still its own, is incremental.
	if fulls, deltas := hBin.CollectCounts(); fulls != 1 || deltas != 1 {
		t.Errorf("new first handle: %d full / %d delta collects, want 1/1", fulls, deltas)
	}
	if fulls, deltas := hAlt.CollectCounts(); fulls != 1 || deltas != 0 {
		t.Errorf("new second handle: %d full / %d delta collects, want 1/0", fulls, deltas)
	}
}
