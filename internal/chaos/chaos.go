// Package chaos is a deterministic fault-injection harness for PADLL's
// control plane. It assembles a controller (Priority allocation, one
// round per Interval) and a set of stages entirely in-process on a
// simulated clock, then drives a scripted (and seed-randomized) schedule
// of failures — controller crashes mid-round, stage crashes mid-collect,
// network partitions that later heal — while recording every observable
// transition in an event log.
//
// Everything is single-threaded and clock-driven: two runs with the same
// seed produce byte-identical event logs, which is what lets the chaos
// tests assert exact recovery behaviour (frozen limits during an outage,
// reconciliation within one control interval of restart) instead of
// sleeping and hoping.
package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"padll/internal/clock"
	"padll/internal/control"
	"padll/internal/rpcio"
	"padll/internal/stage"
)

// ErrUnreachable is what injected network failures surface as.
var ErrUnreachable = errors.New("chaos: peer unreachable")

// ErrControllerDown marks calls that arrive while the simulated
// controller process is dead.
var ErrControllerDown = errors.New("chaos: controller is down")

// ErrReplyLost marks a batch exchange whose reply frame was dropped
// after the stage applied it — the applied-but-unacknowledged case the
// delta protocol must answer with a full-snapshot resync.
var ErrReplyLost = errors.New("chaos: reply frame lost")

// Interval is the control-loop period: the harness runs one control
// round, and one heartbeat, per Interval.
const Interval = time.Second

// clusterLimit is the cluster-wide rate limit of the harness's
// controller. The controller runs Priority (control.FixedRates), which
// grants each job its reservation verbatim, so expected rates are exact
// whatever the demand; the limit sets what a job is granted before its
// first round (an equal share) and what jobs without a reservation split.
const clusterLimit = 100_000

// Config sizes a harness.
type Config struct {
	// Seed drives every random choice a scenario makes.
	Seed int64
	// EvictAfter configures controller-side mark-sweep eviction
	// (0 = never evict).
	EvictAfter int
	// Reservations are per-job reserved rates, re-applied on restart.
	Reservations map[string]float64
}

// Event is one scheduled action in a scenario.
type Event struct {
	At   time.Duration
	Name string
	Do   func(h *Harness)
}

// StageNode is one simulated application stage plus its failure state.
type StageNode struct {
	ID  string
	Job string
	Stg *stage.Stage

	// handle is the controller's channel to the node, over a chaos
	// transport gating whole round trips.
	handle *rpcio.StageHandle
	// dropReply arms a one-shot loss of the next batch reply; see
	// DropNextBatchReply.
	dropReply   atomic.Bool
	partitioned atomic.Bool
	crashed     atomic.Bool
	// collectBudget < 0 disables the counter; otherwise the node crashes
	// permanently after that many further successful collects.
	collectBudget atomic.Int64
}

// Harness wires a controller and stages together under injected faults.
type Harness struct {
	cfg   Config
	clk   *clock.Sim
	start time.Time
	ctl   *control.Controller
	nodes map[string]*StageNode
	ids   []string // sorted; the deterministic iteration order

	events   []Event
	nextTick time.Duration

	controllerDown bool
	// pushBudget < 0 disarms the mid-round crash; otherwise the
	// controller dies after that many further successful rate pushes.
	pushBudget atomic.Int64

	rng    *rand.Rand
	logBuf bytes.Buffer

	// OutageStart/OutageEnd record the scheduled controller outage
	// window (when a scenario has one) so tests can place probes.
	OutageStart, OutageEnd time.Duration
}

// New builds an empty harness; add stages, schedule events, then Run.
func New(cfg Config) *Harness {
	// The harness owns its reservation table (SetReservation edits it).
	own := make(map[string]float64, len(cfg.Reservations))
	for job, rate := range cfg.Reservations {
		own[job] = rate
	}
	cfg.Reservations = own
	h := &Harness{
		cfg:      cfg,
		clk:      clock.NewSim(time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC)),
		nodes:    map[string]*StageNode{},
		nextTick: Interval,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
	}
	h.start = h.clk.Now()
	h.pushBudget.Store(-1)
	h.ctl = h.newController()
	return h
}

func (h *Harness) newController() *control.Controller {
	opts := []control.Option{
		control.WithClusterLimit(clusterLimit),
		control.WithAlgorithm(control.FixedRates{}),
		control.WithErrorHandler(func(id string, err error) {
			if errors.Is(err, control.ErrEvicted) {
				h.logf("stage %s evicted by controller", id)
				return
			}
			h.logf("stage %s control error: %v", id, err)
		}),
	}
	if h.cfg.EvictAfter > 0 {
		opts = append(opts, control.WithEvictAfter(h.cfg.EvictAfter))
	}
	ctl := control.New(h.clk, opts...)
	for job, rate := range h.cfg.Reservations {
		ctl.SetReservation(job, rate)
	}
	return ctl
}

// AddStage registers a fresh stage with the controller.
func (h *Harness) AddStage(id, job string) *StageNode {
	n := &StageNode{
		ID:  id,
		Job: job,
		Stg: stage.New(stage.Info{StageID: id, JobID: job}, h.clk),
	}
	n.collectBudget.Store(-1)
	// Every node speaks the real binary frame codec end to end
	// (EncodedLoopback): each chaos exchange encodes and decodes actual
	// frames, so codec bugs and frame-level faults are inside the
	// deterministic loop.
	frames := rpcio.NewEncodedLoopback(rpcio.NewStageService(n.Stg))
	n.handle = rpcio.NewStageHandle(&chaosTransport{EncodedLoopback: frames, h: h, node: n})
	h.nodes[id] = n
	h.ids = append(h.ids, id)
	sort.Strings(h.ids)
	if err := h.ctl.Register(n.Stg.Info(), n.handle); err != nil {
		h.logf("stage %s registration error: %v", id, err)
	}
	h.logf("stage %s registered (job %s)", id, job)
	return n
}

// Node returns a stage node by ID (nil when absent).
func (h *Harness) Node(id string) *StageNode { return h.nodes[id] }

// Controller exposes the live controller (it changes across restarts).
func (h *Harness) Controller() *control.Controller { return h.ctl }

// At schedules an event; call before Run.
func (h *Harness) At(at time.Duration, name string, do func(*Harness)) {
	h.events = append(h.events, Event{At: at, Name: name, Do: do})
}

// Log returns the event log so far.
func (h *Harness) Log() string { return h.logBuf.String() }

func (h *Harness) logf(format string, args ...any) {
	fmt.Fprintf(&h.logBuf, "t=+%-8v %s\n", h.clk.Now().Sub(h.start), fmt.Sprintf(format, args...))
}

// ---- fault primitives ----

// CrashController kills the controller process: the registry is lost and
// every stage-side probe fails until RestartController.
func (h *Harness) CrashController() {
	h.controllerDown = true
	h.logf("controller crashed")
}

// SetReservation changes a job's reserved rate, both on the live
// controller and in the configuration a restarted controller boots from.
func (h *Harness) SetReservation(job string, rate float64) {
	h.cfg.Reservations[job] = rate
	h.ctl.SetReservation(job, rate)
	h.logf("job %s reservation set to %.0f", job, rate)
}

// ArmMidRoundCrash makes the controller die after n more successful rate
// pushes — i.e. partway through a RunOnce push phase, so some stages have
// the new rates and others still enforce the old ones.
func (h *Harness) ArmMidRoundCrash(n int) {
	h.pushBudget.Store(int64(n))
	h.logf("controller armed to crash after %d pushes", n)
}

// RestartController boots a fresh controller process: empty registry,
// reservations restored from configuration. Stages re-register at their
// next heartbeat tick.
func (h *Harness) RestartController() {
	h.ctl = h.newController()
	h.controllerDown = false
	h.pushBudget.Store(-1)
	h.logf("controller restarted (empty registry)")
}

// Partition cuts a stage off from the controller in both directions.
func (h *Harness) Partition(id string) {
	h.nodes[id].partitioned.Store(true)
	h.logf("stage %s partitioned", id)
}

// Heal reconnects a partitioned stage.
func (h *Harness) Heal(id string) {
	h.nodes[id].partitioned.Store(false)
	h.logf("stage %s healed", id)
}

// ArmStageCrashAfterCollects makes a stage die permanently after n more
// successful collects — a crash in the middle of the controller's
// collect fan-out.
func (h *Harness) ArmStageCrashAfterCollects(id string, n int) {
	h.nodes[id].collectBudget.Store(int64(n))
	h.logf("stage %s armed to crash after %d collects", id, n)
}

// DropNextBatchReply arms a one-shot frame fault on a node: the next
// Stage.Batch reply frame is lost after the service applied the
// exchange. The node's state (rules, delta generation) advances but the
// controller never learns, so the delta protocol must detect the stale
// acknowledgement and resync with a full snapshot.
func (h *Harness) DropNextBatchReply(id string) {
	h.nodes[id].dropReply.Store(true)
	h.logf("stage %s armed to drop its next batch reply frame", id)
}

// ---- the run loop ----

// Run advances simulated time until the given offset, firing scheduled
// events and control/heartbeat ticks in timestamp order. Events that tie
// with a tick run first.
func (h *Harness) Run(until time.Duration) {
	sort.SliceStable(h.events, func(i, j int) bool { return h.events[i].At < h.events[j].At })
	ei := 0
	for {
		nextEvent := until + 1
		if ei < len(h.events) {
			nextEvent = h.events[ei].At
		}
		switch {
		case nextEvent <= h.nextTick && nextEvent <= until:
			h.advanceTo(nextEvent)
			ev := h.events[ei]
			ei++
			if ev.Name != "" {
				h.logf("event %s", ev.Name)
			}
			ev.Do(h)
		case h.nextTick <= until:
			h.advanceTo(h.nextTick)
			h.nextTick += Interval
			h.tick()
		default:
			h.advanceTo(until)
			return
		}
	}
}

func (h *Harness) advanceTo(at time.Duration) {
	target := h.start.Add(at)
	if target.After(h.clk.Now()) {
		h.clk.AdvanceTo(target)
	}
}

// tick models one control interval: first each stage's heartbeat (detect
// a lost controller, or re-register after recovery — which replays the
// controller's last-known rules), then the controller's feedback round.
func (h *Harness) tick() {
	for _, id := range h.ids {
		n := h.nodes[id]
		if n.crashed.Load() {
			continue
		}
		reachable := !h.controllerDown && !n.partitioned.Load()
		if !reachable {
			if n.Stg.SetDegraded(true) {
				h.logf("stage %s degraded: controller unreachable, limits frozen at %.0f",
					id, RuleRate(n.Stg, control.ControlRuleID))
			}
			continue
		}
		if n.Stg.Degraded() {
			if err := h.ctl.Register(n.Stg.Info(), n.handle); err != nil {
				h.logf("stage %s re-registration failed: %v", id, err)
				continue
			}
			n.Stg.SetDegraded(false)
			h.logf("stage %s re-registered after %v degraded", id, n.Stg.DegradedFor())
		}
	}
	if h.controllerDown {
		return
	}
	alloc := h.ctl.RunOnce()
	h.logf("control round: %s", fmtAlloc(alloc))
}

func fmtAlloc(alloc map[string]float64) string {
	if len(alloc) == 0 {
		return "(no allocation)"
	}
	keys := make([]string, 0, len(alloc))
	for k := range alloc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%.0f", k, alloc[k])
	}
	return b.String()
}

// RuleRate returns the rate of a stage's rule by ID (-1 when absent).
func RuleRate(s *stage.Stage, id string) float64 {
	for _, r := range s.Rules() {
		if r.ID == id {
			return r.Rate
		}
	}
	return -1
}

// ---- the faulty transport ----

// chaosTransport is the transport under the controller's handle to one
// node: the node's EncodedLoopback, with the harness's failure state
// gating whole round trips. A batch carrying ops consumes one
// push-budget unit and a collect one collect-budget unit — the crash
// granularity is a round trip, matching what a real controller would
// observe. The gates run in Start, which a round calls in StageID
// order, and the loopback completes the exchange there too, so what the
// fleet sees happens in the order exchanges are started; an armed lost
// reply (DropNextBatchReply) is dropped in Finish. The loopback's
// Retry never allows another attempt: a gated exchange is the fault the
// scenario injected, not one to paper over.
type chaosTransport struct {
	*rpcio.EncodedLoopback
	h    *Harness
	node *StageNode
	// gated is why the exchange in flight never reached the loopback (nil
	// when it did); only the goroutine between Start and Finish touches
	// it.
	gated error
}

// gate decides whether an exchange reaches the node.
func (c *chaosTransport) gate(push, collect bool) error {
	if push {
		if err := c.pushGate(); err != nil {
			return err
		}
	}
	if collect {
		if c.h.controllerDown {
			return ErrControllerDown
		}
		return c.collectGate()
	}
	return nil
}

func (c *chaosTransport) Start(method string, args, reply any) {
	ba := args.(*rpcio.BatchArgs) // a stage handle's only call is Stage.Batch
	if c.gated = c.gate(len(ba.Ops) > 0, ba.Collect); c.gated == nil {
		c.EncodedLoopback.Start(method, args, reply)
	}
}

// Finish hands over the exchange's outcome, or loses an armed reply:
// the stage has applied the exchange and the loopback counted its
// bytes, but the handle sees only ErrReplyLost and ignores the reply.
func (c *chaosTransport) Finish() error {
	if err := c.gated; err != nil {
		c.gated = nil
		return err
	}
	err := c.EncodedLoopback.Finish()
	if c.node.dropReply.CompareAndSwap(true, false) {
		return ErrReplyLost
	}
	return err
}

// Close keeps the loopback open: the harness re-registers the same
// handle after a heal or a controller restart.
func (c *chaosTransport) Close() error { return nil }

// collectGate applies the collect-side failure state: unreachable nodes
// fail, and an armed collect budget crashes the node when it hits zero.
func (c *chaosTransport) collectGate() error {
	if c.node.crashed.Load() || c.node.partitioned.Load() {
		return ErrUnreachable
	}
	if b := c.node.collectBudget.Load(); b >= 0 {
		if b == 0 {
			c.node.crashed.Store(true)
			return ErrUnreachable
		}
		c.node.collectBudget.Store(b - 1)
	}
	return nil
}

// pushGate gates every controller->stage push, and is where an armed
// mid-round crash fires: pushes run sequentially on the control loop's
// goroutine, so the budget decides deterministically which stages saw
// the new rates before the controller died.
func (c *chaosTransport) pushGate() error {
	if c.h.controllerDown {
		return ErrControllerDown
	}
	if c.node.crashed.Load() || c.node.partitioned.Load() {
		return ErrUnreachable
	}
	if b := c.h.pushBudget.Load(); b >= 0 {
		if b == 0 {
			c.h.CrashController()
			return ErrControllerDown
		}
		c.h.pushBudget.Store(b - 1)
	}
	return nil
}
