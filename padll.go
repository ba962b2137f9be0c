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
// simulator, and one benchmark per figure/table (see bench_test.go,
// DESIGN.md and EXPERIMENTS.md).
package padll

import (
	"fmt"
	"net"
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

// AIMDLimit is the adaptive cluster-limit policy: additive increase while
// the probe reports a healthy backend, multiplicative decrease on
// saturation. Install with WithLimitAdapter.
type AIMDLimit = control.AIMDLimit

// WithLimitAdapter closes the control loop on backend health: the
// adapter retunes the cluster limit before every allocation round.
func WithLimitAdapter(a control.LimitAdapter) ControlOption {
	return control.WithLimitAdapter(a)
}

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
	controller string
	// heartbeat state (controller liveness probe)
	hbStop chan struct{}
	hbDone chan struct{}
}

// NewDataPlane builds a data plane over the given mounts.
func NewDataPlane(info JobInfo, mounts ...MountSpec) (*DataPlane, error) {
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
	clk := clock.NewReal()
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
// registers with that control plane. A data plane serves once until
// Close; a Serve that fails leaves it as it was.
func (dp *DataPlane) Serve(addr, controllerAddr string) error {
	if dp.stop != nil {
		return fmt.Errorf("padll: control service already running on %s", dp.listenAddr)
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("padll: listen %s: %w", addr, err)
	}
	svc := rpcio.NewStageService(dp.stg)
	fs := rpcio.NewFrameServer()
	fs.Add(svc)
	stop := rpcio.ServeMux(l, fs)
	listenAddr := l.Addr().String()
	if controllerAddr != "" {
		// The controller dials back while registering, so the service is
		// already up.
		if err := rpcio.RegisterWithController(controllerAddr, dp.stg.Info(), listenAddr); err != nil {
			stop()
			return err
		}
		dp.controller = controllerAddr
	}
	dp.svc, dp.stop, dp.listenAddr = svc, stop, listenAddr
	return nil
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

// StartHeartbeat begins probing the registered controller every interval
// (each probe bounded by timeout). When a probe fails the stage enters
// the Degraded state: it keeps enforcing the last rates the controller
// pushed (fail-secure — an unreachable controller must not mean
// unlimited I/O), and surfaces the condition through Stats. When the
// controller answers again, the stage re-registers — which replays the
// controller's last-known rule set for this stage — and leaves Degraded.
//
// Serve must have been called with a controller address first.
func (dp *DataPlane) StartHeartbeat(interval, timeout time.Duration) error {
	if dp.controller == "" {
		return fmt.Errorf("padll: no controller to monitor; Serve with a controller address first")
	}
	if dp.hbStop != nil {
		return fmt.Errorf("padll: heartbeat already running")
	}
	if interval <= 0 {
		return fmt.Errorf("padll: heartbeat interval must be positive, got %v", interval)
	}
	if timeout <= 0 {
		timeout = rpcio.DefaultCallTimeout
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	dp.hbStop, dp.hbDone = stop, done
	controller := dp.controller
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			case <-dp.clk.After(interval):
			}
			if err := rpcio.ProbeController(controller, timeout); err != nil {
				dp.stg.SetDegraded(true)
				continue
			}
			if dp.stg.Degraded() {
				// The controller is back. Re-register so it replays the
				// last-known rules and folds this stage into the next
				// allocation round; only then clear the degraded flag.
				if rerr := rpcio.RegisterWithController(controller, dp.stg.Info(), dp.listenAddr); rerr == nil {
					dp.stg.SetDegraded(false)
				}
			}
		}
	}()
	return nil
}

// Degraded reports whether the stage has lost its controller.
func (dp *DataPlane) Degraded() bool { return dp.stg.Degraded() }

// DegradedFor returns the cumulative time spent degraded.
func (dp *DataPlane) DegradedFor() time.Duration { return dp.stg.DegradedFor() }

func (dp *DataPlane) stopHeartbeat() {
	if dp.hbStop == nil {
		return
	}
	close(dp.hbStop)
	<-dp.hbDone
	dp.hbStop, dp.hbDone = nil, nil
}

// Close deregisters from the control plane (if registered) and stops the
// control service.
func (dp *DataPlane) Close() error {
	var err error
	dp.stopHeartbeat()
	if dp.controller != "" {
		err = rpcio.DeregisterFromController(dp.controller, dp.stg.Info().StageID)
		dp.controller = ""
	}
	if dp.stop != nil {
		dp.stop()
		dp.stop = nil
	}
	dp.stg.Close()
	return err
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

// WithControlledMatcher overrides which requests the managed queue
// throttles (default: all metadata-like classes).
func WithControlledMatcher(m Matcher) ControlOption { return control.WithControlledMatcher(m) }

// WithEvictAfter enables mark-sweep eviction: a stage whose collects or
// pushes fail for n consecutive control rounds is deregistered and its
// share redistributed (0 disables eviction, the default).
func WithEvictAfter(n int) ControlOption { return control.WithEvictAfter(n) }

// WithPushConcurrency sets how many goroutines drive a control round,
// collecting and pushing alike. A round has every stage's request on
// the wire before it waits for the first reply whatever the count, so
// this is about spare controller cores, not overlap (default 1: every
// exchange started in stage-ID order on the loop's goroutine).
func WithPushConcurrency(n int) ControlOption { return control.WithPushConcurrency(n) }

// WithGroupBy overrides the feedback loop's orchestration granularity:
// the default groups stages per job; GroupByUser shares one allocation
// among all of a user's jobs (the paper's "group of jobs" level).
func WithGroupBy(f func(StageInfo) string) ControlOption { return control.WithGroupBy(f) }

// GroupByUser groups stages by submitting user.
func GroupByUser(info StageInfo) string { return control.GroupByUser(info) }

// NewControlPlane builds a control plane.
func NewControlPlane(opts ...ControlOption) *ControlPlane {
	return &ControlPlane{ctl: control.New(clock.NewReal(), opts...)}
}

// AttachLocal registers a data plane of this process (in process,
// through the frame codec; no socket) — the path tests, simulations,
// and single-process deployments use.
func (cp *ControlPlane) AttachLocal(dp *DataPlane) error {
	h := rpcio.EncodedLoopbackStage(rpcio.NewStageService(dp.stg))
	return cp.ctl.Register(control.NewRemoteConn(dp.stg.Info(), h))
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
// rate across the job's stages.
func (cp *ControlPlane) ApplyRuleToJob(jobID string, r Rule) error {
	return cp.ctl.ApplyRuleToJob(jobID, r)
}

// ApplyRuleToJobs installs a rule across a group of jobs.
func (cp *ControlPlane) ApplyRuleToJobs(jobIDs []string, r Rule) error {
	return cp.ctl.ApplyRuleToJobs(jobIDs, r)
}

// ApplyRuleCluster installs a rule on every registered stage.
func (cp *ControlPlane) ApplyRuleCluster(r Rule) error {
	return cp.ctl.ApplyRuleCluster(r)
}

// RunOnce executes one feedback-loop iteration and returns the per-job
// allocation (nil without an algorithm).
func (cp *ControlPlane) RunOnce() map[string]float64 { return cp.ctl.RunOnce() }

// Run starts the feedback loop at the given interval; Stop halts it.
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

// Stop halts the feedback loop and any served endpoints.
func (cp *ControlPlane) Stop() {
	cp.ctl.Stop()
	if cp.srv != nil {
		cp.srv.Close()
		cp.srv = nil
	}
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
