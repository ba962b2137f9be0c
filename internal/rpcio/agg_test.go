package rpcio

import (
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// fakeAggBackend records rounds and answers with canned data, so the
// tests exercise the service/transport plumbing rather than control
// logic.
type fakeAggBackend struct {
	mu     sync.Mutex
	id     string
	rounds []AggRoundArgs
	reply  AggRoundReply
	err    error
}

func (b *fakeAggBackend) Describe(reply *AggInfo) {
	reply.AggID = b.id
	reply.Stages = 4
	reply.Jobs = append(reply.Jobs, "j1", "j2")
}

func (b *fakeAggBackend) Round(args *AggRoundArgs, reply *AggRoundReply) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	// Copy: the args struct is the transport's reusable scratch.
	cp := AggRoundArgs{Grants: append([]JobGrant(nil), args.Grants...), Collect: args.Collect}
	b.rounds = append(b.rounds, cp)
	if b.err != nil {
		return b.err
	}
	reply.AggID = b.reply.AggID
	reply.Stages = b.reply.Stages
	reply.Jobs = append(reply.Jobs, b.reply.Jobs...)
	reply.Borrowed = b.reply.Borrowed
	reply.Repaid = b.reply.Repaid
	reply.Forgiven = b.reply.Forgiven
	return nil
}

func cannedAggReply(id string) AggRoundReply {
	return AggRoundReply{
		AggID:  id,
		Stages: 4,
		Jobs: []AggJobDelta{
			{JobID: "j1", Stages: 2, Demand: 100, Throughput: 80, WaitP99: 0.25, Dropped: 3, FailedStages: 1},
			{JobID: "j2", Stages: 2, Demand: 50, Throughput: 50},
		},
		Borrowed: 7.5, Repaid: 5, Forgiven: 2.5,
	}
}

// driveAggHandle runs the attach + two-round conversation every
// transport must support identically.
func driveAggHandle(t *testing.T, h *AggHandle, backend *fakeAggBackend) {
	t.Helper()
	info, err := h.Attach(99)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	want := AggInfo{Seq: 99, AggID: backend.id, Stages: 4, Jobs: []string{"j1", "j2"}}
	if !reflect.DeepEqual(info, want) {
		t.Fatalf("Attach info = %+v, want %+v", info, want)
	}

	grants := []JobGrant{{JobID: "j1", Rate: 30000}, {JobID: "j2", Rate: 50000}}
	var reply AggRoundReply
	if err := h.Round(grants, true, &reply); err != nil {
		t.Fatalf("Round: %v", err)
	}
	if !reflect.DeepEqual(reply, backend.reply) {
		t.Fatalf("Round reply = %+v, want %+v", reply, backend.reply)
	}

	// Second round with a dirty reply struct: stale rows must not leak.
	reply.Jobs = append(reply.Jobs, AggJobDelta{JobID: "stale"})
	if err := h.Round(nil, true, &reply); err != nil {
		t.Fatalf("Round 2: %v", err)
	}
	if !reflect.DeepEqual(reply, backend.reply) {
		t.Fatalf("Round 2 reply = %+v, want %+v (stale rows leaked?)", reply, backend.reply)
	}

	backend.mu.Lock()
	defer backend.mu.Unlock()
	if len(backend.rounds) != 2 {
		t.Fatalf("backend saw %d rounds, want 2", len(backend.rounds))
	}
	if !reflect.DeepEqual(backend.rounds[0].Grants, grants) || !backend.rounds[0].Collect {
		t.Fatalf("backend round 0 = %+v, want grants %+v collect=true", backend.rounds[0], grants)
	}
}

func TestAggServiceOverEncodedLoopback(t *testing.T) {
	backend := &fakeAggBackend{id: "agg-loop"}
	backend.reply = cannedAggReply("agg-loop")
	driveAggHandle(t, EncodedLoopbackAgg(NewAggService(backend)), backend)
}

// TestAggServiceOverMuxTCP serves two aggregators beside a frame mux on
// one TCP listener and drives each by ID — the production shape, where
// DialAgg's attach handshake resolves the aggregator's channel.
func TestAggServiceOverMuxTCP(t *testing.T) {
	fs := NewFrameServer()
	backends := make(map[string]*fakeAggBackend)
	for _, id := range []string{"agg-a", "agg-b"} {
		b := &fakeAggBackend{id: id}
		b.reply = cannedAggReply(id)
		backends[id] = b
		fs.AddAgg(NewAggService(b))
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := ServeMux(l, fs)
	defer stop()

	for id, b := range backends {
		h, err := DialAgg(l.Addr().String(), id)
		if err != nil {
			t.Fatalf("DialAgg(%s): %v", id, err)
		}
		driveAggHandle(t, h, b)
		if err := h.Close(); err != nil {
			t.Fatalf("Close(%s): %v", id, err)
		}
	}
}

// TestAggChannelMismatchErrors pins the cross-tier error paths: stage
// methods on an aggregator channel and agg methods on a stage channel
// must both fail loudly rather than misdispatch.
func TestAggChannelMismatchErrors(t *testing.T) {
	backend := &fakeAggBackend{id: "agg-only"}
	backend.reply = cannedAggReply("agg-only")
	lb := NewEncodedLoopbackAgg(NewAggService(backend))

	var health StageHealth
	if err := Call(lb, "Stage.Health", &HealthProbe{}, &health); err == nil {
		t.Fatal("Stage.Health on an aggregator channel should error")
	} else if !strings.Contains(err.Error(), "aggregator") {
		t.Fatalf("Stage.Health error %q should name the aggregator mismatch", err)
	}
}
