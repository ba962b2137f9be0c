// Package chaos is a deterministic fault-injection harness for PADLL's
// control plane. It assembles a controller and a set of stages entirely
// in-process on a simulated clock, then drives a scripted (and
// seed-randomized) schedule of failures — controller crashes mid-round,
// stage crashes mid-collect, network partitions that later heal — while
// recording every observable transition in an event log.
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

// Config sizes a harness.
type Config struct {
	// Seed drives every random choice a scenario makes.
	Seed int64
	// Interval is the control-loop period (default 1s).
	Interval time.Duration
	// Limit is the cluster-wide rate limit (default 300_000).
	Limit float64
	// EvictAfter configures controller-side mark-sweep eviction
	// (0 = never evict).
	EvictAfter int
	// Reservations are per-job reserved rates, re-applied on restart.
	Reservations map[string]float64
	// Algorithm defaults to control.StaticEqualShare{}.
	Algorithm control.Algorithm
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

	conn *chaosConn
	// frames is the binary-codec transport under the node's handle;
	// frame-granular faults hook here.
	frames      *rpcio.EncodedLoopback
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
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.Limit == 0 {
		cfg.Limit = 300_000
	}
	if cfg.Algorithm == nil {
		cfg.Algorithm = control.StaticEqualShare{}
	}
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
		nextTick: cfg.Interval,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
	}
	h.start = h.clk.Now()
	h.pushBudget.Store(-1)
	h.ctl = h.newController()
	return h
}

func (h *Harness) newController() *control.Controller {
	opts := []control.Option{
		control.WithClusterLimit(h.cfg.Limit),
		control.WithAlgorithm(h.cfg.Algorithm),
		// The mid-round crash budget (pushBudget) is a single global
		// counter: pushes must run sequentially so the same seed always
		// crashes the controller after the same stage.
		control.WithPushConcurrency(1),
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
	n.frames = rpcio.NewEncodedLoopback(rpcio.NewStageService(n.Stg))
	n.conn = &chaosConn{h: h, node: n, handle: rpcio.NewStageHandle(n.frames)}
	h.nodes[id] = n
	h.ids = append(h.ids, id)
	sort.Strings(h.ids)
	if err := h.ctl.Register(n.conn); err != nil {
		h.logf("stage %s registration error: %v", id, err)
	}
	h.logf("stage %s registered (job %s)", id, job)
	return n
}

// Node returns a stage node by ID (nil when absent).
func (h *Harness) Node(id string) *StageNode { return h.nodes[id] }

// Controller exposes the live controller (it changes across restarts).
func (h *Harness) Controller() *control.Controller { return h.ctl }

// Interval returns the control-loop period.
func (h *Harness) Interval() time.Duration { return h.cfg.Interval }

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
	n := h.nodes[id]
	armed := true
	n.frames.SetFault(func(dir rpcio.FrameDir, method string) error {
		// Single-threaded under the loopback's lock; armed needs no
		// atomicity.
		if armed && dir == rpcio.FrameReply && method == "Stage.Batch" {
			armed = false
			return ErrReplyLost
		}
		return nil
	})
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
			h.nextTick += h.cfg.Interval
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
			if err := h.ctl.Register(n.conn); err != nil {
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

// chaosConn is the controller's connection to one node: the batched
// delta protocol over the node's EncodedLoopback, with the harness's
// failure state gating whole round trips. A batch
// carrying ops consumes one push-budget unit and a collect one
// collect-budget unit — the crash granularity is a round trip, matching
// what a real controller would observe. The gates run in Start, which a
// round calls in StageID order, and the loopback completes the exchange
// there too, so what the fleet sees happens in the order exchanges are
// started.
type chaosConn struct {
	h      *Harness
	node   *StageNode
	handle *rpcio.StageHandle
	// gated is why the exchange in flight never reached the handle (nil
	// when it did); only the goroutine between Start and Finish touches
	// it.
	gated error
}

var _ control.StageConn = (*chaosConn)(nil)

func (c *chaosConn) Info() stage.Info { return c.node.Stg.Info() }

// gate decides whether an exchange reaches the node.
func (c *chaosConn) gate(push, collect bool) error {
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

func (c *chaosConn) Start(ops []rpcio.StageOp, dst *stage.Stats, held bool) {
	if c.gated = c.gate(len(ops) > 0, dst != nil); c.gated == nil {
		c.handle.Start(ops, dst, held)
	}
}

func (c *chaosConn) Finish() ([]rpcio.OpResult, bool, error) {
	if err := c.gated; err != nil {
		c.gated = nil
		return nil, false, err
	}
	return c.handle.Finish()
}

// Retry: a gated exchange is the fault the scenario injected, not one to
// paper over, and the loopback has no schedule of its own.
func (c *chaosConn) Retry(int) bool { return false }

func (c *chaosConn) WireStats() rpcio.WireStats { return c.handle.WireStats() }

// Close keeps the loopback open: the harness re-registers the same
// connection after a heal or a controller restart.
func (c *chaosConn) Close() error { return nil }

// collectGate applies the collect-side failure state: unreachable nodes
// fail, and an armed collect budget crashes the node when it hits zero.
func (c *chaosConn) collectGate() error {
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
func (c *chaosConn) pushGate() error {
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
