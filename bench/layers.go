package main

// layers.go is the benchmark's only door into the internal packages:
// everything the traced run calls below the public padll API goes
// through this file, and only through entry points the ROADMAP keeps
// (README.md lists them). Each layer is measured from outside, by timing
// calls into its public functions.

import (
	"errors"
	"fmt"
	"io/fs"
	"net"
	"path"
	"sync"

	"padll/internal/clock"
	"padll/internal/control"
	"padll/internal/interpose"
	"padll/internal/localfs"
	"padll/internal/mount"
	"padll/internal/osfs"
	"padll/internal/policy"
	"padll/internal/posix"
	"padll/internal/rpcio"
	"padll/internal/stage"
	"padll/internal/tokenbucket"
	"padll/internal/vfs"
)

// opKind is the traced stream's vocabulary: what the four workloads ask
// of a file system.
type opKind uint8

const (
	opStat opKind = iota
	opReaddir
	opCreat
	opClose // closes the descriptor the previous creat/open returned
	opGetAttr
	opOpen
	opRename
	opUnlink
)

// streamOp is one request of a workload's seeded stream. Paths are
// virtual (rooted at the data plane's mount); host and newHost are the
// NUL-terminated host paths the raw-syscall rung uses.
type streamOp struct {
	kind          opKind
	path, newPath string
	host, newHost []byte
}

// withHost fills the host paths of ops for a tree rooted at root.
func withHost(root string, ops []streamOp) {
	z := func(p string) []byte {
		if p == "/" {
			p = ""
		}
		return append([]byte(root+p), 0)
	}
	for i := range ops {
		ops[i].host = z(ops[i].path)
		if ops[i].newPath != "" {
			ops[i].newHost = z(ops[i].newPath)
		}
	}
}

// stack is one data plane assembled from its parts, the way
// padll.NewDataPlane assembles it, so that every boundary can be called
// directly.
type stack struct {
	hostRoot string           // real directory under osfs; "" over localfs
	floor    posix.FileSystem // osfs or localfs
	router   *mount.Router
	stg      *stage.Stage
	shim     *interpose.Shim
	client   *posix.Client
	vfs      *vfs.FS
	rules    *policy.RuleSet
	job      string
}

const benchUser = "bench"

// managedRule mirrors the rule the controller installs on a job's
// stages: metadata-like classes scoped to the job, at a finite rate
// (here one that never binds: the ladder prices the layers, not the
// pacing).
func managedRule(job string) policy.Rule {
	return policy.Rule{
		ID:    "managed",
		Match: policy.Matcher{Classes: []posix.Class{posix.ClassMetadata, posix.ClassDirectory, posix.ClassExtAttr}, JobID: job},
		Rate:  unbinding,
	}
}

func parseRules(job string, extra []string) ([]policy.Rule, error) {
	rules := []policy.Rule{managedRule(job)}
	for _, text := range extra {
		r, err := policy.Parse(text)
		if err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
	return rules, nil
}

func newStage(job string, rules []policy.Rule) *stage.Stage {
	stg := stage.New(stage.Info{StageID: job + "@ladder", JobID: job, User: benchUser, PID: 1}, clock.NewReal())
	for _, r := range rules {
		stg.ApplyRule(r)
	}
	return stg
}

// newStack builds the layers over a real directory (hostRoot != "") or
// over a fresh in-memory localfs. The stage carries the managed rule at
// a rate that never binds plus the workload's own rules, so the ladder
// prices the layers, not the pacing.
func newStack(hostRoot, job string, extraRules []string) (*stack, error) {
	clk := clock.NewReal()
	st := &stack{hostRoot: hostRoot, job: job}
	if hostRoot != "" {
		o, err := osfs.New(hostRoot, clk)
		if err != nil {
			return nil, err
		}
		st.floor = o
	} else {
		st.floor = localfs.New(clk)
	}
	var err error
	if st.router, err = mount.NewRouter(mount.Mount{Prefix: "/", FS: st.floor, Controlled: true, Name: "pfs:/"}); err != nil {
		return nil, err
	}
	rules, err := parseRules(job, extraRules)
	if err != nil {
		return nil, err
	}
	st.rules = policy.NewRuleSet(rules...)
	st.stg = newStage(job, rules)
	st.shim = interpose.New(st.router, st.stg, clk)
	st.client = posix.NewClient(st.shim).WithJob(job, benchUser, 1)
	st.vfs = vfs.New(st.shim, vfs.WithJob(job, benchUser, 1))
	return st, nil
}

func (st *stack) close() { st.stg.Close() }

// ---- replaying a stream at one boundary ----

// stepper issues one streamOp at one boundary.
type stepper func(op *streamOp) error

// allocsPerCall counts heap allocations per call of step over ops.
func allocsPerCall(ops []streamOp, step stepper) float64 {
	m0, _ := heap()
	for i := range ops {
		_ = step(&ops[i]) // failures are counted on the timed rungs
	}
	m1, _ := heap()
	return float64(m1-m0) / float64(len(ops))
}

// fill turns a streamOp into the request the typed client would build.
func (st *stack) fill(req *posix.Request, op *streamOp, fd int) {
	req.Path, req.NewPath = op.path, op.newPath
	req.JobID, req.User, req.PID = st.job, benchUser, 1
	switch op.kind {
	case opStat:
		req.Op = posix.OpStat
	case opReaddir:
		req.Op = posix.OpReaddir
	case opCreat:
		req.Op, req.Flags, req.Mode = posix.OpCreat, posix.OCreate|posix.OWrOnly|posix.OTrunc, 0o644
	case opClose:
		req.Op, req.FD = posix.OpClose, fd
	case opGetAttr:
		req.Op = posix.OpGetAttr
	case opOpen:
		req.Op, req.Flags = posix.OpOpen, posix.ORdOnly
	case opRename:
		req.Op = posix.OpRename
	case opUnlink:
		req.Op = posix.OpUnlink
	}
}

// applyStep replays at a posix.FileSystem boundary (backend, router or
// shim) on pooled request/reply scratch, exactly as posix.Client does,
// so the client rung above differs only by the client's own work.
func (st *stack) applyStep(target posix.FileSystem) stepper {
	fd := -1
	return func(op *streamOp) error {
		req, rep := posix.GetRequest(), posix.GetReply()
		st.fill(req, op, fd)
		err := target.Apply(req, rep)
		if err == nil && (op.kind == opCreat || op.kind == opOpen) {
			fd = rep.FD
		}
		posix.PutRequest(req)
		posix.PutReply(rep)
		return err
	}
}

// clientStep replays through the typed client's methods.
func (st *stack) clientStep() stepper {
	c := st.client
	fd := -1
	var entries []posix.DirEntry
	return func(op *streamOp) (err error) {
		switch op.kind {
		case opStat:
			_, err = c.Stat(op.path)
		case opReaddir:
			entries, err = c.ReaddirInto(op.path, entries[:0])
		case opCreat:
			fd, err = c.Creat(op.path, 0o644)
		case opClose:
			err = c.Close(fd)
		case opGetAttr:
			_, err = c.GetAttr(op.path)
		case opOpen:
			fd, err = c.Open(op.path, posix.ORdOnly, 0)
		case opRename:
			err = c.Rename(op.path, op.newPath)
		case opUnlink:
			err = c.Unlink(op.path)
		}
		return err
	}
}

// enforceStep calls stage.Enforce alone on the stream's requests.
func (st *stack) enforceStep() stepper {
	var req posix.Request
	return func(op *streamOp) error {
		req = posix.Request{}
		st.fill(&req, op, 3)
		return st.stg.Enforce(&req)
	}
}

// selectStep classifies the stream's requests with an uncached
// RuleSet.Select over the stage's rules.
func (st *stack) selectStep() stepper {
	var req posix.Request
	return func(op *streamOp) error {
		req = posix.Request{}
		st.fill(&req, op, 3)
		if st.rules.Select(&req) == nil {
			return fmt.Errorf("no rule selects %s", req.String())
		}
		return nil
	}
}

// parallel runs step-makers on w goroutines, each over the whole stream,
// and returns the per-call cost each goroutine saw. Against the serial
// rung the difference is cross-core contention.
func parallel(w int, ops []streamOp, mk func() stepper) (nsPerOp float64, failed int64) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	steps := make([]stepper, w)
	for i := range steps {
		steps[i] = mk()
	}
	t0 := now()
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(step stepper) {
			defer wg.Done()
			var bad int64
			for j := range ops {
				if step(&ops[j]) != nil {
					bad++
				}
			}
			mu.Lock()
			failed += bad
			mu.Unlock()
		}(steps[i])
	}
	wg.Wait()
	return float64(now().Sub(t0).Nanoseconds()) / float64(len(ops)), failed
}

// walkTop is the walk's top rung: the stock fs.WalkDir+Info pass over
// fsys, ticking once per request it causes.
func walkTop(fsys fs.FS, walks int, tick func()) (failed int64) {
	for i := 0; i < walks; i++ {
		tick() // fs.WalkDir stats the root before the first callback
		err := fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				if _, err := d.Info(); err != nil {
					return err
				}
			}
			tick()
			return nil
		})
		if err != nil {
			failed++
		}
	}
	return failed
}

// ladder replays ops at every boundary of st and records each layer's
// self time. The stream goes through in batches of spanCalls requests:
// each batch is issued once untimed at the floor, so that no rung pays
// for pulling it into the CPU's caches, and then visits every rung back
// to back, bottom up, so the rungs of one batch share the host's state
// of that moment. The top rung drives the batches. Without walks it is
// the typed client; walks > 0 puts vfs on top: that many whole
// fs.WalkDir passes, which must cause exactly the requests in ops.
func (st *stack) ladder(e *env, o *outcome, ops []streamOp, walks int) {
	v := o.vals
	type level struct {
		r    rung
		step stepper
	}
	var lower []*level
	add := func(layer, parent string, step stepper) *level {
		l := &level{r: rung{layer: layer, parent: parent}, step: step}
		lower = append(lower, l)
		return l
	}
	var kernel *level
	floorName := "localfs"
	if st.hostRoot != "" {
		kernel = add("kernel", "osfs", kernelStep())
		floorName = "osfs"
	}
	floor := add(floorName, "mount", st.applyStep(st.floor))
	router := add("mount", "interpose", st.applyStep(st.router))
	// The rule set, a bucket and the stage alone, on the same requests.
	bucket := tokenbucket.New(clock.NewReal(), unbinding, unbinding/10)
	wait := func() stepper { return func(*streamOp) error { return bucket.Wait(1) } }
	sel := add("policy", "stage", st.selectStep())
	tb := add("tokenbucket", "stage", wait())
	enforce := add("stage", "interpose", st.enforceStep())
	shim := add("interpose", "posix", st.applyStep(st.shim))

	// drive issues the whole stream at the top rung, ticking per request.
	topLayer := "posix"
	drive := func(tick func()) (failed int64) {
		step := st.clientStep()
		for i := range ops {
			if step(&ops[i]) != nil {
				failed++
			}
			tick()
		}
		return failed
	}
	var client *level
	if walks > 0 {
		client = add("posix", "vfs", st.clientStep())
		topLayer = "vfs"
		drive = func(tick func()) int64 { return walkTop(st.vfs, walks, tick) }
	}

	batches := (len(ops) + spanCalls - 1) / spanCalls
	chunk := func(b int) []streamOp {
		return ops[b*spanCalls : min((b+1)*spanCalls, len(ops))]
	}
	warm := st.applyStep(st.floor)
	visit := func(b int) {
		batch := chunk(b)
		for i := range batch {
			_ = warm(&batch[i]) // failures show on the timed rungs
		}
		for _, l := range lower {
			var failed int64
			t0 := now()
			for i := range batch {
				if l.step(&batch[i]) != nil {
					failed++
				}
			}
			l.r.add(e.rec, t0, now(), len(batch))
			if failed > 0 {
				o.fail(failed, "ladder rung %s: %d calls failed in batch %d", l.r.layer, failed, b)
			}
		}
	}
	// timeTop drives the stream once through the top rung, one span per
	// batch; before each batch it runs between, untimed.
	timeTop := func(rec *recorder, between func(b int), each func()) *rung {
		r := &rung{layer: topLayer, parent: "app"}
		if between != nil {
			between(0)
		}
		n, b, mark := 0, 0, now()
		failed := drive(func() {
			if each != nil {
				each()
			}
			if n++; n%spanCalls != 0 && n != len(ops) {
				return
			}
			r.add(rec, mark, now(), len(chunk(b)))
			if b++; b < batches && between != nil {
				between(b)
			}
			mark = now()
		})
		if failed > 0 || n != len(ops) {
			o.fail(failed+1, "top rung %s: %d calls failed; it caused %d requests, the stream has %d", topLayer, failed, n, len(ops))
		}
		return r
	}
	top := timeTop(e.rec, visit, nil)
	o.attempted += int64(len(ops) * (len(lower) + 1))

	if kernel != nil {
		v["kernel.ns_per_op"] = kernel.r.ns()
		v["osfs.self_ns_per_op"] = above(floor.r.ns(), kernel.r.ns())
	} else {
		v["localfs.ns_per_op"] = floor.r.ns()
	}
	v["mount.self_ns_per_op"] = above(router.r.ns(), floor.r.ns())
	v["policy.select_ns_per_op"] = sel.r.ns()
	v["tokenbucket.wait_ns_per_op"] = tb.r.ns()
	v["stage.enforce_ns_per_op"] = enforce.r.ns()
	// The shim rung contains the stage: what it spends beyond router and
	// stage is its own. If the stage ran cheaper alone than inside the
	// shim, the shim absorbs the difference, so the rungs still add up.
	v["interpose.self_ns_per_op"] = above(shim.r.ns(), router.r.ns()+enforce.r.ns())
	if walks > 0 {
		v["posix.self_ns_per_op"] = above(client.r.ns(), shim.r.ns())
		v["vfs.self_ns_per_op"] = above(top.ns(), client.r.ns())
	} else {
		v["posix.self_ns_per_op"] = above(top.ns(), shim.r.ns())
	}
	v["ladder.top_ns_per_op"] = top.ns()

	// Contention: the same calls from W goroutines at once.
	var bad int64
	v["tokenbucket.wait_parallel_ns_per_op"], bad = parallel(e.workers, ops, wait)
	o.failed += bad
	v["stage.enforce_parallel_ns_per_op"], bad = parallel(e.workers, ops, st.enforceStep)
	o.failed += bad

	// Allocations per call, on the stream's first whole pass.
	few := ops[:min(len(ops), 4096)]
	if walks > 0 {
		few = ops[:len(ops)/walks]
	}
	floorAllocs := allocsPerCall(few, st.applyStep(st.floor))
	clientAllocs := allocsPerCall(few, st.clientStep())
	v["stage.enforce_allocs_per_op"] = allocsPerCall(few, st.enforceStep())
	if kernel != nil {
		v["osfs.allocs_per_op"] = above(floorAllocs, allocsPerCall(few, kernelStep()))
	}
	v["posix.allocs_per_op"] = above(clientAllocs, allocsPerCall(few, st.applyStep(st.shim)))
	if walks > 0 {
		m0, _ := heap()
		walkTop(st.vfs, 1, func() {})
		m1, _ := heap()
		v["vfs.allocs_per_op"] = above(float64(m1-m0)/float64(len(few)), clientAllocs)
	}

	// The top rung alone: with spans kept and without (the difference is
	// what tracing costs), then with every call timed for the tail.
	traced := timeTop(&recorder{workload: e.rec.workload, origin: e.rec.origin}, nil, nil)
	untraced := timeTop(nil, nil, nil)
	v["trace.overhead_pct"] = 100 * (traced.mean() - untraced.mean()) / untraced.mean()
	lat := make([]float64, 0, len(ops))
	last := now()
	timeTop(nil, nil, func() {
		t := now()
		lat = append(lat, float64(t.Sub(last).Nanoseconds())/1e3)
		last = t
	})
	v[topLayer+".op_p99_us"] = quantile(lat, 0.99)
}

// ---- control-side probes ----

// probeStage times stage.CollectInto and one serial collect exchange
// over TCP against an idle stage carrying the workload's rules.
func probeStage(e *env, o *outcome, job string, extraRules []string) error {
	rules, err := parseRules(job, extraRules)
	if err != nil {
		return err
	}
	stg := newStage(job, rules)
	defer stg.Close()
	n := e.size.probeCalls

	var stats stage.Stats
	perCall := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := now()
		stg.CollectInto(&stats)
		perCall = append(perCall, float64(now().Sub(t0).Nanoseconds()))
	}
	collectNs := median(perCall)
	o.vals["stage.collect_ns"] = collectNs

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	stop := rpcio.ServeStage(l, stg)
	defer stop()
	h, err := rpcio.DialStage(l.Addr().String())
	if err != nil {
		return err
	}
	if err := h.CollectDeltaInto(&stats); err != nil { // first exchange is the full snapshot
		_ = h.Close() // the collect error is the one to report
		return err
	}
	w0 := h.WireStats()
	perCall = perCall[:0]
	for i := 0; i < n; i++ {
		t0 := now()
		if err := h.CollectDeltaInto(&stats); err != nil {
			o.fail(1, "rpcio exchange %d: %v", i, err)
		}
		perCall = append(perCall, float64(now().Sub(t0).Nanoseconds())/1e3)
	}
	w1 := h.WireStats()
	o.attempted += int64(n)
	o.vals["rpcio.exchange_us"] = median(perCall)
	o.vals["rpcio.self_us"] = median(perCall) - collectNs/1e3
	o.vals["rpcio.bytes_per_exchange"] = float64(w1.BytesRead+w1.BytesWritten-w0.BytesRead-w0.BytesWritten) / float64(n)
	return h.Close()
}

// probeControl prices the parts of a control round of f while its
// stages are idle: ControlPlane.Collect alone, Algorithm.Allocate on the
// collected jobs, and the heap allocations of whole rounds.
func probeControl(e *env, o *outcome, f *fleet, clusterLimit float64) {
	n := e.size.probeCalls / 20
	if n < 5 {
		n = 5
	}
	var collect, allocate []float64
	alg := control.ProportionalShare{}
	for i := 0; i < n; i++ {
		t0 := now()
		snaps := f.cp.Collect()
		collect = append(collect, float64(now().Sub(t0).Nanoseconds())/1e6)
		jobs := make([]control.JobState, len(snaps))
		for j, s := range snaps {
			jobs[j] = control.JobState{JobID: s.JobID, Demand: s.Demand, Reservation: s.Reservation, Stages: s.Stages}
		}
		t0 = now()
		alg.Allocate(clusterLimit, jobs)
		allocate = append(allocate, float64(now().Sub(t0).Nanoseconds())/1e3)
	}
	o.vals["control.collect_ms"] = median(collect)
	o.vals["control.allocate_us"] = median(allocate)
	m0, b0 := heap()
	for i := 0; i < n; i++ {
		f.cp.RunOnce()
	}
	m1, b1 := heap()
	o.vals["control.allocs_per_round"] = float64(m1-m0) / float64(n)
	o.vals["control.alloc_bytes_per_round"] = float64(b1-b0) / float64(n)
}

// priceLayers is the traced run's second half, the same for every
// workload: assemble the layers over hostRoot (or over a localfs holding
// files when hostRoot is empty), replay ops up the ladder, and probe the
// stage's collect path.
func priceLayers(e *env, o *outcome, hostRoot, job string, rules, files []string, ops []streamOp, walks int) error {
	st, err := newStack(hostRoot, job, rules)
	if err != nil {
		return err
	}
	defer st.close()
	if hostRoot != "" {
		withHost(hostRoot, ops)
	} else if err := populate(st.floor, files); err != nil {
		return err
	}
	st.ladder(e, o, ops, walks)
	return probeStage(e, o, job, rules)
}

// getattrStream is n GetAttr requests cycling over paths.
func getattrStream(n int, paths []string) []streamOp {
	ops := make([]streamOp, n)
	for i := range ops {
		ops[i] = streamOp{kind: opGetAttr, path: paths[i%len(paths)]}
	}
	return ops
}

// newLocalBackend returns an in-memory localfs holding empty files at
// paths (one directory level deep).
func newLocalBackend(paths []string) (posix.FileSystem, error) {
	fsys := localfs.New(clock.NewReal())
	return fsys, populate(fsys, paths)
}

// bareClient is the direct twin of DataPlane.Client on an in-memory
// backend: the typed client straight on the file system.
func bareClient(fsys posix.FileSystem) *posix.Client { return posix.NewClient(fsys) }

// populate creates empty files at paths, and their parent directories.
func populate(fsys posix.FileSystem, paths []string) error {
	c := posix.NewClient(fsys)
	for _, p := range paths {
		if err := c.Mkdir(path.Dir(p), 0o755); err != nil && !errors.Is(err, posix.ErrExist) {
			return err
		}
		fd, err := c.Creat(p, 0o644)
		if err != nil {
			return err
		}
		if err := c.Close(fd); err != nil {
			return err
		}
	}
	return nil
}
