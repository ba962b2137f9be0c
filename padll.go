// Package padll is a storage middleware that enables QoS control over
// metadata (and data) workflows in HPC storage systems, reproducing
// "Protecting Metadata Servers From Harm Through Application-level I/O
// Control" (Macedo et al., IEEE CLUSTER 2022) in pure Go.
//
// PADLL follows a software-defined-storage design with two planes:
//
//   - the data plane (DataPlane) runs inside each application instance:
//     it transparently intercepts POSIX calls, classifies them by type,
//     class, path and job (request differentiation), and rate limits them
//     through per-queue token buckets before they reach the parallel file
//     system;
//   - the control plane (ControlPlane) is a logically centralized
//     coordinator that registers every stage, groups stages by job, and
//     runs feedback-loop control algorithms (static shares, fixed
//     priorities, proportional sharing, DRF) that continuously retune the
//     stages' rates.
//
// A minimal embedding looks like:
//
//	cp := padll.NewControlPlane(
//		padll.WithAlgorithm(padll.ProportionalShare()),
//		padll.WithClusterLimit(300_000))
//
//	dp, _ := padll.NewDataPlane(padll.JobInfo{JobID: "job1", User: "alice"},
//		padll.MountPFS("/lustre", backend),
//		padll.MountLocal("/", localBackend))
//	cp.AttachLocal(dp)
//
//	client := dp.Client() // a POSIX client; all calls are interposed
//	fd, _ := client.Open("/lustre/data.bin", padll.ORdOnly, 0)
//
// The repository also contains everything needed to regenerate the
// paper's evaluation: a Lustre-like PFS simulator, an ABCI-like trace
// generator and replayer, an IOR-like workload generator, a cluster
// simulator, and cmd/padll-experiments, which prints every figure and
// table (see DESIGN.md and EXPERIMENTS.md).
package padll

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"padll/internal/clock"
	"padll/internal/control"
	"padll/internal/interpose"
	"padll/internal/monitor"
	"padll/internal/mount"
	"padll/internal/osfs"
	"padll/internal/policy"
	"padll/internal/posix"
	"padll/internal/rpcio"
	"padll/internal/stage"
	"padll/internal/vfs"
)

// Re-exported building blocks. Aliases keep the internal packages as the
// single source of truth while giving users one import.
type (
	// Client is the typed POSIX client applications issue I/O through.
	Client = posix.Client
	// Request is one interposed POSIX call.
	Request = posix.Request
	// Reply is a call's result.
	Reply = posix.Reply
	// Op identifies one of the 42 interposed operations.
	Op = posix.Op
	// Class is the operation class (data/metadata/directory/ext-attr).
	Class = posix.Class
	// FileSystem is the boundary all backends implement.
	FileSystem = posix.FileSystem
	// FileInfo is the stat payload.
	FileInfo = posix.FileInfo
	// Rule is one QoS directive (matcher + rate + burst).
	Rule = policy.Rule
	// Matcher selects the requests a rule governs.
	Matcher = policy.Matcher
	// StageInfo identifies a data-plane stage to the control plane.
	StageInfo = stage.Info
	// StageStats is a stage's statistics snapshot.
	StageStats = stage.Stats
	// JobSnapshot is a job's aggregated state in a control round.
	JobSnapshot = control.JobSnapshot
	// Algorithm computes per-job allocations in the feedback loop.
	Algorithm = control.Algorithm
	// RoundStats is one feedback round's wire accounting (round trips,
	// skipped pushes, bytes, duration).
	RoundStats = control.RoundStats
	// ServiceStats counts what a stage's control service has served.
	ServiceStats = rpcio.ServiceStats
	// VFS bridges any FileSystem onto Go's io/fs contract (fs.FS,
	// fs.ReadDirFS, fs.StatFS, fs.ReadFileFS, fs.SubFS plus os-style
	// write extensions), so stock library code runs over the data plane.
	VFS = vfs.FS
	// VFSFile is an open write-capable file on a VFS.
	VFSFile = vfs.File
	// VFSOption configures a VFS (see VFSWithJob).
	VFSOption = vfs.Option
)

// Open flags and common constants, re-exported for call sites.
const (
	ORdOnly = posix.ORdOnly
	OWrOnly = posix.OWrOnly
	ORdWr   = posix.ORdWr
	OCreate = posix.OCreate
	OExcl   = posix.OExcl
	OTrunc  = posix.OTrunc
	OAppend = posix.OAppend

	// Unlimited as a rule rate means "do not throttle".
	Unlimited = policy.Unlimited

	// Operation classes for matchers.
	ClassData      = posix.ClassData
	ClassMetadata  = posix.ClassMetadata
	ClassDirectory = posix.ClassDirectory
	ClassExtAttr   = posix.ClassExtAttr

	// Enforcement mechanisms for rules: shaping queues requests until
	// tokens arrive (the paper's behaviour); policing rejects them with
	// ErrRateLimited.
	ActionShape = policy.ActionShape
	ActionDrop  = policy.ActionDrop
)

// ErrRateLimited is returned to callers whose request was rejected by a
// policing (ActionDrop) rule.
var ErrRateLimited = stage.ErrRateLimited

// WireVersion is the binary frame protocol version this build speaks —
// the control plane's only wire, registration included. Decoders reject
// frames from any other version rather than guessing at field layouts.
const WireVersion = rpcio.WireVersion

// NewVFS wraps any FileSystem — a raw backend, a DataPlane, or a full
// interposed stack — as an io/fs file system. Prefer DataPlane.FS when
// bridging a data plane: it stamps the stage's job context for request
// differentiation.
func NewVFS(target FileSystem, opts ...VFSOption) *VFS { return vfs.New(target, opts...) }

// VFSWithJob stamps job differentiation context onto every bridged
// request.
func VFSWithJob(jobID, user string, pid int) VFSOption { return vfs.WithJob(jobID, user, pid) }

// NewOSBackend returns a FileSystem executing requests against the real
// OS tree rooted at dir (which must exist): the "real-workload onramp"
// backend. Virtual paths are confined to the root; mount it with
// MountPFS to rate limit actual kernel I/O.
func NewOSBackend(dir string) (FileSystem, error) { return osfs.New(dir, clock.NewReal()) }

// ParseRule parses a rule in DSL form, e.g.
// "limit id:open-cap job:job1 op:open rate:10k burst:500".
func ParseRule(s string) (Rule, error) { return policy.Parse(s) }

// ParseRules parses a newline-separated rule list with '#' comments.
func ParseRules(text string) ([]Rule, error) { return policy.ParseAll(text) }

// ---- control algorithms ----

// StaticShare divides the cluster limit equally among active jobs; with
// perJob > 0 every job gets exactly perJob (the paper's Static setup).
func StaticShare(perJob float64) Algorithm {
	return control.StaticEqualShare{PerJob: perJob}
}

// Priority assigns each job its reserved rate verbatim (the paper's
// Priority setup); set reservations via ControlPlane.SetReservation.
func Priority() Algorithm { return control.FixedRates{} }

// ProportionalShare guarantees per-job reservations and redistributes
// leftover rate proportionally (the paper's Proportional Sharing
// algorithm).
func ProportionalShare() Algorithm { return control.ProportionalShare{} }

// JobInfo identifies the application instance a data plane serves.
type JobInfo struct {
	// JobID is the scheduler job identifier.
	JobID string
	// User is the submitting user.
	User string
	// PID is the application process (informational).
	PID int
	// Hostname is the compute node (informational).
	Hostname string
	// StageID names this stage; derived from JobID+Hostname+PID when
	// empty.
	StageID string
}

// MountSpec declares one mount in the data plane's routing table.
type MountSpec struct {
	// Prefix is the mount point.
	Prefix string
	// Backend serves paths under Prefix.
	Backend FileSystem
	// Controlled marks the shared PFS whose requests are rate limited;
	// other mounts are forwarded without throttling.
	Controlled bool
	// Name labels the mount.
	Name string
}

// MountPFS declares a controlled (rate-limited) mount.
func MountPFS(prefix string, backend FileSystem) MountSpec {
	return MountSpec{Prefix: prefix, Backend: backend, Controlled: true, Name: "pfs:" + prefix}
}

// MountLocal declares an uncontrolled mount (node-local xfs, NFS, ...).
func MountLocal(prefix string, backend FileSystem) MountSpec {
	return MountSpec{Prefix: prefix, Backend: backend, Name: "local:" + prefix}
}

// DataPlane is one PADLL stage embedded in an application: the
// interposition shim plus its rate-limiting queues.
type DataPlane struct {
	shim   *interpose.Shim
	stg    *stage.Stage
	router *mount.Router
	clk    clock.Clock
	// server state when exposed over the network
	svc        *rpcio.StageService
	stop       func()
	listenAddr string
	// link is the connection the stage last registered on, which the
	// controller's rounds run over.
	link atomic.Pointer[rpcio.ControllerConn]
	// loop closes to stop the goroutine that drives the stage's
	// lifecycle from Serve to Close (run); loopDone closes once it has.
	loop     chan struct{}
	loopDone chan struct{}
}

// NewDataPlane builds a data plane over the given mounts.
func NewDataPlane(info JobInfo, mounts ...MountSpec) (*DataPlane, error) {
	return newDataPlane(clock.NewReal(), info, mounts...)
}

// newDataPlane is NewDataPlane on clk: the seam that runs the public
// API on a simulated clock.
func newDataPlane(clk clock.Clock, info JobInfo, mounts ...MountSpec) (*DataPlane, error) {
	if len(mounts) == 0 {
		return nil, fmt.Errorf("padll: at least one mount is required")
	}
	ms := make([]mount.Mount, len(mounts))
	for i, m := range mounts {
		ms[i] = mount.Mount{Prefix: m.Prefix, FS: m.Backend, Controlled: m.Controlled, Name: m.Name}
	}
	router, err := mount.NewRouter(ms...)
	if err != nil {
		return nil, err
	}
	if info.StageID == "" {
		info.StageID = fmt.Sprintf("%s@%s#%d", info.JobID, info.Hostname, info.PID)
	}
	stg := stage.New(stage.Info{
		StageID:  info.StageID,
		JobID:    info.JobID,
		Hostname: info.Hostname,
		PID:      info.PID,
		User:     info.User,
	}, clk)
	shim := interpose.New(router, stg, clk)
	return &DataPlane{shim: shim, stg: stg, router: router, clk: clk}, nil
}

// Client returns a POSIX client whose calls are interposed by this data
// plane, stamped with the stage's job context.
func (dp *DataPlane) Client() *Client {
	info := dp.stg.Info()
	return posix.NewClient(dp.shim).WithJob(info.JobID, info.User, info.PID)
}

// FS returns an io/fs view of the data plane: every Open, ReadDir, Stat
// or WalkDir step issued through it is classified and rate limited like
// any other interposed call, stamped with the stage's job context.
func (dp *DataPlane) FS(opts ...VFSOption) *VFS {
	info := dp.stg.Info()
	merged := append([]VFSOption{VFSWithJob(info.JobID, info.User, info.PID)}, opts...)
	return vfs.New(dp.shim, merged...)
}

// RawClient returns a POSIX client that enters the mount router below
// the interposition shim: calls share the data plane's descriptor
// namespace but are neither classified nor throttled. Benchmark
// harnesses use it for housekeeping operations that must not count
// against QoS budgets (e.g. the open that precedes a replayed close).
func (dp *DataPlane) RawClient() *Client { return posix.NewClient(dp.router) }

// Apply implements FileSystem so a DataPlane can stand anywhere a backend
// does.
func (dp *DataPlane) Apply(req *Request, rep *Reply) error { return dp.shim.Apply(req, rep) }

// ApplyRule installs or updates a local rule.
func (dp *DataPlane) ApplyRule(r Rule) { dp.stg.ApplyRule(r) }

// Stats snapshots the stage's statistics.
func (dp *DataPlane) Stats() StageStats { return dp.stg.Collect() }

// InterceptionStats reports the shim's counters.
func (dp *DataPlane) InterceptionStats() interpose.Stats { return dp.shim.Stats() }

// Serve exposes the data plane's control service on addr (host:port, use
// ":0" for an ephemeral port) and, when controllerAddr is non-empty,
// registers with that control plane: the stage dials the registrar and
// serves its control service on that connection too, over which the
// controller installs the stage's rules before the registration returns
// and runs its rounds afterwards. The rounds are the controller's sign
// of life: should the connection die, or serve no round for two of the
// controller's loop periods plus a call's deadline (the registration's
// answer carries the period), the stage is Degraded — it keeps
// enforcing the last rates the controller pushed (fail-secure: an
// unreachable controller must not mean unlimited I/O), and Stats says
// so — until it has registered again over a fresh connection, which
// replays the controller's last-known rule set for it. It keeps trying
// on the retry schedule until it succeeds or Close. A data plane serves
// once until Close; a Serve that fails leaves it as it was.
func (dp *DataPlane) Serve(addr, controllerAddr string) error {
	if dp.stop != nil {
		return fmt.Errorf("padll: control service already running on %s", dp.listenAddr)
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("padll: listen %s: %w", addr, err)
	}
	svc := rpcio.NewStageService(dp.stg)
	stop := rpcio.ServeStageService(l, svc)
	if controllerAddr != "" {
		// Each registration replaces (and closes) the connection the
		// stage last registered on.
		register := func() (rpcio.Link, error) {
			link, err := rpcio.RegisterWithController(controllerAddr, svc)
			if err != nil {
				return rpcio.Link{}, err
			}
			if old := dp.link.Swap(link); old != nil {
				old.Close()
			}
			return link.Link(), nil
		}
		link, err := register()
		if err != nil {
			stop()
			return err
		}
		dp.loop, dp.loopDone = make(chan struct{}), make(chan struct{})
		go dp.run(rpcio.NewLifecycle(dp.stg, dp.clk.Now(), link, register), dp.loop, dp.loopDone)
	}
	dp.svc, dp.stop, dp.listenAddr = svc, stop, l.Addr().String()
	return nil
}

// run drives the stage's lifecycle until quit closes: it hands the
// machine each death of the link and each instant it asked to be woken
// at, on one timer on the data plane's clock.
func (dp *DataPlane) run(life *rpcio.Lifecycle, quit <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	wake := make(chan struct{}, 1)
	t := dp.clk.NewFuncTimer(func() {
		select {
		case wake <- struct{}{}:
		default: // a wake is already pending
		}
	})
	defer t.Stop()
	for {
		if next := life.Next(); !next.IsZero() {
			t.Reset(next.Sub(dp.clk.Now()))
		}
		select {
		case <-quit:
			return
		case <-life.Dead():
			life.Lost(dp.clk.Now())
		case <-wake:
			life.Wake(dp.clk.Now())
		}
	}
}

// Addr returns the served control address ("" before Serve).
func (dp *DataPlane) Addr() string { return dp.listenAddr }

// ControlServiceStats reports what the stage's control service has
// served — calls, batched ops, delta vs full collects; ok is false
// before Serve.
func (dp *DataPlane) ControlServiceStats() (stats ServiceStats, ok bool) {
	if dp.svc == nil {
		return ServiceStats{}, false
	}
	return dp.svc.Served(), true
}

// Degraded reports whether the stage has lost its controller.
func (dp *DataPlane) Degraded() bool { return dp.stg.Degraded() }

// DegradedFor returns the cumulative time spent degraded.
func (dp *DataPlane) DegradedFor() time.Duration { return dp.stg.DegradedFor() }

// Close stops re-registering, closes the connection the stage
// registered on — its departure: the controller drops it at its next
// round — and stops the control service.
func (dp *DataPlane) Close() error {
	if dp.loop != nil {
		close(dp.loop)
		<-dp.loopDone
		dp.loop = nil
	}
	if link := dp.link.Swap(nil); link != nil {
		link.Close()
	}
	if dp.stop != nil {
		dp.stop()
		dp.stop = nil
	}
	dp.stg.Close()
	return nil
}

// ControlPlane is the logically centralized coordinator.
type ControlPlane struct {
	ctl *control.Controller
	srv *control.Server
	mon *monitor.Server
}

// ControlOption configures a ControlPlane.
type ControlOption = control.Option

// WithClusterLimit caps the aggregate rate the algorithm hands out.
func WithClusterLimit(limit float64) ControlOption { return control.WithClusterLimit(limit) }

// WithAlgorithm installs the feedback-loop control algorithm.
func WithAlgorithm(a Algorithm) ControlOption { return control.WithAlgorithm(a) }

// NewControlPlane builds a control plane.
func NewControlPlane(opts ...ControlOption) *ControlPlane {
	return newControlPlane(clock.NewReal(), opts...)
}

// newControlPlane is NewControlPlane on clk.
func newControlPlane(clk clock.Clock, opts ...ControlOption) *ControlPlane {
	return &ControlPlane{ctl: control.New(clk, opts...)}
}

// AttachLocal registers a data plane of this process — the path tests,
// simulations and single-process deployments use. The controller
// reaches it through the same frame transport as a remote one, over an
// in-memory conn instead of a socket, which nothing can lose a reply on,
// so it keeps no deadline.
func (cp *ControlPlane) AttachLocal(dp *DataPlane) error {
	h := rpcio.LocalStage(rpcio.NewStageService(dp.stg), nil)
	return cp.ctl.Register(dp.stg.Info(), h)
}

// DetachLocal removes a locally attached data plane from the registry
// (job completion); it reports whether the stage was registered.
func (cp *ControlPlane) DetachLocal(dp *DataPlane) bool {
	return cp.ctl.Deregister(dp.stg.Info().StageID)
}

// Serve starts the registration endpoint remote data planes dial; one
// runs at a time until Stop.
func (cp *ControlPlane) Serve(addr string) (string, error) {
	if cp.srv != nil {
		return "", fmt.Errorf("padll: registrar already running on %s", cp.srv.Addr())
	}
	srv, err := cp.ctl.Serve(addr)
	if err != nil {
		return "", err
	}
	cp.srv = srv
	return srv.Addr(), nil
}

// SetReservation records a job's reserved/priority rate.
func (cp *ControlPlane) SetReservation(jobID string, rate float64) {
	cp.ctl.SetReservation(jobID, rate)
}

// ApplyRuleToJob installs a rule on every stage of a job, splitting the
// rate across the job's stages. The shares follow membership: a stage
// that joins or leaves the job re-splits the rule at the next round (at
// once without an algorithm).
func (cp *ControlPlane) ApplyRuleToJob(jobID string, r Rule) error {
	return cp.ctl.ApplyRuleToJob(jobID, r)
}

// ApplyRuleToJobs installs a rule across a group of jobs: each job holds
// an equal part of the rate, split across its stages, and the shares
// follow membership as ApplyRuleToJob's do.
func (cp *ControlPlane) ApplyRuleToJobs(jobIDs []string, r Rule) error {
	return cp.ctl.ApplyRuleToJobs(jobIDs, r)
}

// ApplyRuleCluster installs a rule on every registered stage, splitting
// the rate across them; the shares follow membership as ApplyRuleToJob's
// do.
func (cp *ControlPlane) ApplyRuleCluster(r Rule) error {
	return cp.ctl.ApplyRuleCluster(r)
}

// RunOnce executes one feedback-loop iteration and returns the per-job
// allocation (nil without an algorithm).
func (cp *ControlPlane) RunOnce() map[string]float64 { return cp.ctl.RunOnce() }

// Run starts the feedback loop at the given interval; Stop halts it.
// Start it before Serve: a stage learns the interval when it registers,
// and one that registered while no loop ran watches no silence.
func (cp *ControlPlane) Run(interval time.Duration) { cp.ctl.Run(interval) }

// ServeMonitor starts an HTTP observability endpoint (JSON under /api/*,
// a text dashboard at /) and returns its address; one runs at a time
// until Stop.
func (cp *ControlPlane) ServeMonitor(addr string) (string, error) {
	if cp.mon != nil {
		return "", fmt.Errorf("padll: monitor already running on %s", cp.mon.Addr())
	}
	mon, err := monitor.Serve(addr, cp.ctl)
	if err != nil {
		return "", err
	}
	cp.mon = mon
	return mon.Addr(), nil
}

// Stop halts the feedback loop and any served endpoints, and closes
// every stage's connection, as the controller process's exit would.
func (cp *ControlPlane) Stop() {
	// The registrar goes first: a stage that sees its connection close
	// must not register again with a controller that is stopping.
	if cp.srv != nil {
		cp.srv.Close()
		cp.srv = nil
	}
	cp.ctl.Stop()
	if cp.mon != nil {
		// Shutdown path: a monitor close error has no recovery.
		_ = cp.mon.Close()
		cp.mon = nil
	}
}

// Jobs lists the job IDs with registered stages.
func (cp *ControlPlane) Jobs() []string { return cp.ctl.Jobs() }

// Stages lists the registered stage identities.
func (cp *ControlPlane) Stages() []StageInfo { return cp.ctl.Stages() }

// Collect aggregates statistics per job (feedback-loop step 1).
func (cp *ControlPlane) Collect() []JobSnapshot { return cp.ctl.CollectAll() }

// LastAllocation returns the most recent per-job allocation.
func (cp *ControlPlane) LastAllocation() map[string]float64 { return cp.ctl.LastAllocation() }

// LastRound reports the most recent feedback round's wire accounting;
// ok is false before the first completed round.
func (cp *ControlPlane) LastRound() (rs RoundStats, ok bool) { return cp.ctl.LastRound() }
