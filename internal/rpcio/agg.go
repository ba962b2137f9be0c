// Aggregator tier of the control-plane wire protocol.
//
// A flat controller pays one exchange per stage per round; past a few
// thousand stages the round's wall clock is the fleet size. The
// aggregator protocol inserts a fan-in/fan-out tier: each aggregator
// fronts a shard of stages, merges their per-job statistics into one
// AggRoundReply, and fans the controller's per-job grants down to its
// members — so the controller's round cost is one exchange per
// aggregator, whatever the shard size.
//
// The wire surface is three messages on the same versioned frame codec
// stages speak (wirecodec.go):
//
//   - Agg.Attach (AggAttachArgs → AggInfo): identity and membership
//     probe, the aggregator analogue of Stage.Health.
//   - Agg.Round (AggRoundArgs → AggRoundReply): one control round — the
//     fan-out plan (per-job grants) travels down, the merged per-job
//     delta travels up, in a single round trip.
//
// Aggregator services are hosted on the same FrameServer mux as stage
// services: the attach handshake resolves an aggregator ID to a channel
// exactly as it does a stage ID.
package rpcio

import (
	"sync"
)

// AggAttachArgs probes an aggregator's identity and membership. Seq is
// echoed back so a prober can match replies to probes across retries.
//
//lint:wire
type AggAttachArgs struct {
	Seq uint64
}

// AggInfo is an aggregator's identity and current membership.
//
//lint:wire
type AggInfo struct {
	Seq    uint64
	AggID  string
	Stages int
	// Jobs lists the distinct job IDs with at least one member stage,
	// sorted.
	Jobs []string
}

// JobGrant tells an aggregator what one job's member stages are to
// enforce. Rate is the rate of each member stage, not of the shard: the
// controller divides a job's allocation by the stages registered for it
// across the whole fleet, once, and every shard holding stages of the
// job receives the same per-stage figure — the aggregator applies it
// as it stands and does no arithmetic on it.
//
//lint:wire
type JobGrant struct {
	JobID string
	Rate  float64
}

// AggRoundArgs drives one control round on an aggregator: bring the
// granted jobs' member stages to the granted rate, and (when Collect is
// set) merge the shard's statistics into the reply.
//
//lint:wire
type AggRoundArgs struct {
	Grants  []JobGrant
	Collect bool
}

// AggJobDelta is one job's statistics merged across the aggregator's
// member stages — the upward half of a round, replacing per-stage
// StatsDelta streams with one row per job per shard.
//
//lint:wire
type AggJobDelta struct {
	JobID  string
	Stages int
	// Demand/Throughput are the job's aggregate arrival and admitted
	// rates over the shard, ops/s; WaitP99 is the worst member's
	// control-queue p99 shaping wait in seconds.
	Demand     float64
	Throughput float64
	WaitP99    float64
	// Dropped counts requests the members' control queues rejected.
	Dropped int64
	// FailedStages counts members that did not answer this round.
	FailedStages int
}

// AggRoundReply is an aggregator's merged answer for one round.
//
//lint:wire
type AggRoundReply struct {
	AggID  string
	Stages int
	Jobs   []AggJobDelta
	// Borrowed/Repaid/Forgiven are the shard borrow pool's lifetime
	// token counts (see tokenbucket.BorrowPool), surfaced so the
	// controller can audit work conservation without extra RPCs.
	Borrowed float64
	Repaid   float64
	Forgiven float64
}

// AggBackend is what an aggregator service dispatches into —
// control.Aggregator in production, fakes in tests. Implementations
// must fully overwrite reply structs (reusing slice capacity), the same
// contract the stage service's collect path honors: decode targets are
// reused across frames.
type AggBackend interface {
	// Describe fills reply with the aggregator's identity and current
	// membership. The service overwrites Seq afterwards.
	Describe(reply *AggInfo)
	// Round applies the fanned-down grants to the member stages and,
	// when args.Collect is set, merges the shard's statistics into
	// reply.
	Round(args *AggRoundArgs, reply *AggRoundReply) error
}

// AggService exposes an AggBackend over the frame protocol, hosted on a
// FrameServer beside stage services.
type AggService struct {
	backend AggBackend
	id      string
}

// NewAggService wraps a backend for serving. The aggregator's ID (from
// Describe) is its mux attach name.
func NewAggService(b AggBackend) *AggService {
	var info AggInfo
	b.Describe(&info)
	return &AggService{backend: b, id: info.AggID}
}

// Attach reports identity and membership, echoing the probe's Seq.
func (s *AggService) Attach(args AggAttachArgs, reply *AggInfo) error {
	*reply = AggInfo{Jobs: reply.Jobs[:0]}
	s.backend.Describe(reply)
	reply.Seq = args.Seq
	return nil
}

// Round executes one control round against the backend. The reply is
// zeroed first (slice capacity kept), so a reused decode target never
// leaks a previous round's rows.
func (s *AggService) Round(args AggRoundArgs, reply *AggRoundReply) error {
	*reply = AggRoundReply{Jobs: reply.Jobs[:0]}
	return s.backend.Round(&args, reply)
}

// AggHandle is the controller's typed client for one aggregator,
// layered over a Transport exactly as StageHandle is for a stage.
type AggHandle struct {
	t Transport

	// mu guards the reusable round args across concurrent rounds.
	mu   sync.Mutex
	args AggRoundArgs
}

// DialAgg connects to an aggregator's control service over TCP on the
// binary frame codec. aggID names the aggregator on a multiplexed
// (ServeMux) endpoint; empty addresses the endpoint's default channel.
func DialAgg(addr, aggID string, opts ...DialOption) (*AggHandle, error) {
	cfg := defaultDialConfig()
	for _, o := range opts {
		o(&cfg)
	}
	cfg.stageID = aggID
	t := newFrameTransport(addr, cfg)
	if _, err := t.ensureConn(); err != nil {
		return nil, err
	}
	return &AggHandle{t: t}, nil
}

// EncodedLoopbackAgg returns a handle driving svc through the binary
// codec in process; see EncodedLoopback.
func EncodedLoopbackAgg(svc *AggService) *AggHandle {
	return &AggHandle{t: NewEncodedLoopbackAgg(svc)}
}

// WireStats reports the handle's cumulative traffic accounting.
func (h *AggHandle) WireStats() WireStats { return h.t.WireStats() }

// Attach probes the aggregator's identity and membership.
func (h *AggHandle) Attach(seq uint64) (AggInfo, error) {
	var info AggInfo
	err := Call(h.t, "Agg.Attach", &AggAttachArgs{Seq: seq}, &info)
	return info, err
}

// Round drives one control round: grants travel down, the merged delta
// lands in reply (fully overwritten, slice capacity reused). The grants
// slice is only read for the duration of the call.
func (h *AggHandle) Round(grants []JobGrant, collect bool, reply *AggRoundReply) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.args.Grants = grants
	h.args.Collect = collect
	err := Call(h.t, "Agg.Round", &h.args, reply)
	h.args.Grants = nil
	return err
}

// Close tears down the transport.
func (h *AggHandle) Close() error { return h.t.Close() }
