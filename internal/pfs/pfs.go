package pfs

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"padll/internal/clock"
	"padll/internal/localfs"
	"padll/internal/posix"
)

// PFS is the simulated parallel file system: one active MDS (with
// hot-standby replicas, as in PFS_A's 2-MDS configuration) in front of
// NumMDT namespace shards, and NumOST bandwidth-limited object targets.
// Every metadata operation pays its weighted cost at the MDS before the
// namespace mutation executes ("the main I/O path always flows through
// the metadata service", §II); data operations stripe across OSTs.
//
// It is a cost and capacity model, not a file system of its own: names,
// descriptors, attributes and file bytes are localfs's. PFS adds what
// Lustre adds in front of one — MDS admission, a stripe layout per file,
// and per-OST bandwidth and space for the objects the layout names.
//
// PFS implements posix.FileSystem and is safe for concurrent use.
type PFS struct {
	cfg Config
	ns  *localfs.FS

	// mdsMu guards the active/standby MDS set; the active server handles
	// all metadata operations (the PFS_A configuration, §II).
	mdsMu     sync.RWMutex
	mdsPool   []*mds
	activeMDS int
	failovers int

	// mu orders the operations that create, destroy or resize OST objects
	// and guards layouts and every ost's object table. It is taken before
	// the namespace's own lock (around ns.Apply), never after it;
	// bandwidth waits happen outside both.
	mu sync.Mutex
	// layouts maps a regular file's inode to its stripe map: the OST
	// indices the MDS assigned, capacity-balanced, at create time (§II).
	// A layout is immutable once assigned.
	layouts map[uint64][]int
	osts    []*ost
}

var _ posix.FileSystem = (*PFS)(nil)

// New returns a PFS with the given configuration (zero fields take
// PFS_A-like defaults).
func New(clk clock.Clock, cfg Config) *PFS {
	cfg = cfg.sanitized()
	p := &PFS{
		cfg:     cfg,
		ns:      localfs.New(clk),
		layouts: make(map[uint64][]int),
		osts:    make([]*ost, cfg.NumOST),
	}
	for i := 0; i < cfg.NumMDS; i++ {
		p.mdsPool = append(p.mdsPool, newMDS(clk, cfg))
	}
	for i := range p.osts {
		p.osts[i] = newOST(clk, cfg)
	}
	return p
}

// Config returns the file system's effective configuration.
func (p *PFS) Config() Config { return p.cfg }

// mds returns the active metadata server.
func (p *PFS) mds() *mds {
	p.mdsMu.RLock()
	defer p.mdsMu.RUnlock()
	return p.mdsPool[p.activeMDS]
}

// FailoverMDS promotes the next hot-standby replica to active, modelling
// an MDS failure (§II: "having additional MDS nodes as standby
// replicas"). The namespace survives — it is persisted on the MDTs — but
// in-flight admission capacity restarts on the fresh server. It returns
// the new active index, or an error when no standby exists.
func (p *PFS) FailoverMDS() (int, error) {
	p.mdsMu.Lock()
	defer p.mdsMu.Unlock()
	if len(p.mdsPool) < 2 {
		return p.activeMDS, fmt.Errorf("pfs: no standby MDS configured")
	}
	p.mdsPool[p.activeMDS].capacity.Close()
	p.activeMDS = (p.activeMDS + 1) % len(p.mdsPool)
	p.failovers++
	return p.activeMDS, nil
}

// SetMDSCapacity retunes the active MDS's service capacity in place —
// modelling hardware degradation, a failover to a weaker standby, or an
// administrator re-rating the server.
func (p *PFS) SetMDSCapacity(capacity float64) {
	if capacity <= 0 {
		capacity = 1
	}
	p.mds().capacity.Set(capacity, capacity/10)
}

// OfferMetadataLoad is the fluid-admission entry the discrete-tick
// simulator uses: demand cost-units arriving over dt are served up to MDS
// capacity; the served amount is returned.
func (p *PFS) OfferMetadataLoad(demand float64, dt time.Duration) float64 {
	return p.mds().offer(demand, dt)
}

// Stats snapshots file-system health. Counters aggregate across the MDS
// pool (work done before a failover still counts).
func (p *PFS) Stats() Stats {
	p.mdsMu.RLock()
	pool := append([]*mds(nil), p.mdsPool...)
	active := p.mdsPool[p.activeMDS]
	failovers := p.failovers
	p.mdsMu.RUnlock()

	per := make([]int64, p.cfg.NumMDT)
	st := Stats{Failovers: failovers}
	for _, m := range pool {
		st.MetadataOps += m.ops.Load()
		st.MetadataUnits += m.unitsServed()
		st.Rejected += m.rejected.Load()
		for i := range m.perMDT {
			per[i] += m.perMDT[i].Load()
		}
	}
	st.QueueDepth = active.queueDepth()
	st.Saturated = active.saturated()
	st.MeanMetadataLatency = time.Duration(active.latency.Mean() * float64(time.Second))
	st.PerMDTOps = per
	for _, o := range p.osts {
		st.BytesRead += o.bytesRead.Load()
		st.BytesWritten += o.bytesWritten.Load()
	}
	return st
}

// pickOSTs assigns stripe targets in a capacity-balanced manner: the
// least-utilized OSTs first, as the MDS does at file creation (§II).
func (p *PFS) pickOSTs(count int) []int {
	if count > len(p.osts) {
		count = len(p.osts)
	}
	idx := make([]int, len(p.osts))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ua, ub := p.osts[idx[a]].usedBytes.Load(), p.osts[idx[b]].usedBytes.Load()
		if ua == ub {
			return idx[a] < idx[b]
		}
		return ua < ub
	})
	return append([]int(nil), idx[:count]...)
}

// stripeSegment is one contiguous extent within a single OST object.
type stripeSegment struct {
	stripe    int   // index into the file's layout
	objOffset int64 // offset within that OST object
	length    int64
}

// stripeExtent splits a file extent [offset, offset+size) into per-stripe
// segments using RAID-0 round-robin striping with unit Config.StripeSize.
func (p *PFS) stripeExtent(layout []int, offset, size int64) []stripeSegment {
	if len(layout) == 0 || size <= 0 {
		return nil
	}
	unit := p.cfg.StripeSize
	width := unit * int64(len(layout))
	var segs []stripeSegment
	for size > 0 {
		stripeRow := offset / width
		within := offset % width
		stripe := int(within / unit)
		inUnit := within % unit
		run := unit - inUnit
		if run > size {
			run = size
		}
		segs = append(segs, stripeSegment{
			stripe:    stripe,
			objOffset: stripeRow*unit + inUnit,
			length:    run,
		})
		offset += run
		size -= run
	}
	return segs
}

// Apply implements posix.FileSystem.
func (p *PFS) Apply(req *posix.Request, rep *posix.Reply) error {
	// All metadata-like operations pay the MDS before touching the
	// namespace; pure data operations bypass it (their open already did).
	if req.Op.IsMetadataLike() {
		if err := p.mds().serve(req.Op, req.Path); err != nil {
			return err
		}
	}
	// Only what creates, destroys or moves bytes of OST objects needs the
	// model's attention; everything else is the namespace's alone.
	switch req.Op {
	case posix.OpOpen, posix.OpOpen64, posix.OpCreat, posix.OpMknod:
		return p.create(req, rep)
	case posix.OpUnlink, posix.OpRename:
		return p.removeName(req, rep)
	case posix.OpLink:
		// A new name changes what the next unlink or rename-over must
		// free, so it is ordered with them.
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.ns.Apply(req, rep)
	case posix.OpTruncate, posix.OpFTruncate:
		return p.truncate(req, rep)
	case posix.OpRead, posix.OpPRead, posix.OpWrite, posix.OpPWrite:
		return p.transfer(req, rep)
	case posix.OpStatFS, posix.OpFStatFS:
		return p.statfs(req, rep)
	}
	return p.ns.Apply(req, rep)
}

// query asks the namespace a side question (stat, fstat, lseek) on the
// model's own behalf: no MDS charge, the caller's reply untouched.
func (p *PFS) query(req posix.Request) (posix.FileInfo, int64, error) {
	var rep posix.Reply
	err := p.ns.Apply(&req, &rep)
	return rep.Info, rep.N, err
}

// create forwards an open, creat or mknod and gives a regular file its
// stripe layout the first time its inode is seen; O_TRUNC returns the
// objects an existing file had.
func (p *PFS) create(req *posix.Request, rep *posix.Reply) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.ns.Apply(req, rep); err != nil {
		return err
	}
	who := posix.Request{Op: posix.OpFStat, FD: rep.FD}
	if req.Op == posix.OpMknod {
		who = posix.Request{Op: posix.OpStat, Path: req.Path}
	}
	info, _, err := p.query(who)
	if err != nil || info.Mode.IsDir() {
		return nil
	}
	if layout, ok := p.layouts[info.Inode]; !ok {
		p.layouts[info.Inode] = p.pickOSTs(p.cfg.DefaultStripeCount)
	} else if req.Flags&posix.OTrunc != 0 {
		p.removeObjects(info.Inode, layout)
	}
	return nil
}

// removeName forwards an unlink or rename and frees the objects of the file
// whose last name it took away: the unlinked one, or the one renamed
// over — unless that is the very inode being moved.
func (p *PFS) removeName(req *posix.Request, rep *posix.Reply) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	victimPath, moved := req.Path, uint64(0) // no inode is 0
	if req.Op == posix.OpRename {
		src, _, _ := p.query(posix.Request{Op: posix.OpStat, Path: req.Path})
		victimPath, moved = req.NewPath, src.Inode
	}
	victim, _, verr := p.query(posix.Request{Op: posix.OpStat, Path: victimPath})
	if err := p.ns.Apply(req, rep); err != nil {
		return err
	}
	if verr == nil && victim.Nlink <= 1 && victim.Inode != moved {
		p.removeObjects(victim.Inode, p.layouts[victim.Inode])
		delete(p.layouts, victim.Inode)
	}
	return nil
}

// removeObjects frees every stripe object of a file.
func (p *PFS) removeObjects(inode uint64, layout []int) {
	for stripe, target := range layout {
		p.osts[target].remove(objectKey{inode, stripe})
	}
}

// truncate forwards the resize and cuts each stripe object to its share
// of the new length. Growing allocates nothing: the new tail is a hole.
func (p *PFS) truncate(req *posix.Request, rep *posix.Reply) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.ns.Apply(req, rep); err != nil {
		return err
	}
	who := posix.Request{Op: posix.OpStat, Path: req.Path}
	if req.Op == posix.OpFTruncate {
		who = posix.Request{Op: posix.OpFStat, FD: req.FD}
	}
	info, _, err := p.query(who)
	if err != nil {
		return nil
	}
	layout := p.layouts[info.Inode]
	unit := p.cfg.StripeSize
	width := unit * int64(len(layout))
	for stripe, target := range layout {
		// Whole stripe rows below the cut, plus this stripe's part of the
		// row the cut falls in.
		partial := min(unit, max(0, req.Size%width-int64(stripe)*unit))
		p.osts[target].truncate(objectKey{info.Inode, stripe}, req.Size/width*unit+partial)
	}
	return nil
}

// transfer forwards a read or write, then charges the extent that
// actually moved to the OSTs it stripes over. The transfers wait outside
// every lock, as in a real PFS where data RPCs flow client<->OSS without
// MDS involvement.
func (p *PFS) transfer(req *posix.Request, rep *posix.Reply) error {
	if err := p.ns.Apply(req, rep); err != nil || rep.N <= 0 {
		return err
	}
	info, _, err := p.query(posix.Request{Op: posix.OpFStat, FD: req.FD})
	if err != nil {
		return nil // closed under us; nothing left to charge it to
	}
	pos := req.Offset
	if pos < 0 || req.Op == posix.OpRead || req.Op == posix.OpWrite {
		// A sequential op ended at the descriptor's offset.
		_, end, err := p.query(posix.Request{Op: posix.OpLSeek, FD: req.FD, Flags: 1})
		if err != nil {
			return nil
		}
		pos = end - rep.N
	}
	write := req.Op == posix.OpWrite || req.Op == posix.OpPWrite

	p.mu.Lock()
	// No layout: the file lost its last name while open, and its bytes
	// are the namespace's until the descriptor closes.
	layout := p.layouts[info.Inode]
	segs := p.stripeExtent(layout, pos, rep.N)
	for i := range segs {
		seg := &segs[i]
		o, key := p.osts[layout[seg.stripe]], objectKey{info.Inode, seg.stripe}
		if write {
			o.extend(key, seg.objOffset+seg.length)
		} else {
			// Sparse regions read back as zeros and cost nothing.
			seg.length = o.stored(key, seg.objOffset, seg.length)
		}
	}
	p.mu.Unlock()

	for _, seg := range segs {
		if err := p.osts[layout[seg.stripe]].move(seg.length, write); err != nil {
			return err
		}
	}
	return nil
}

// statfs reports the PFS's capacity, not the namespace's: total from the
// configuration, used from the OSTs.
func (p *PFS) statfs(req *posix.Request, rep *posix.Reply) error {
	if err := p.ns.Apply(req, rep); err != nil {
		return err
	}
	var used int64
	for _, o := range p.osts {
		used += o.usedBytes.Load()
	}
	rep.Stat = posix.FSStat{
		TotalBytes: p.cfg.TotalCapacityBytes,
		FreeBytes:  p.cfg.TotalCapacityBytes - used,
		TotalFiles: 1 << 32,
		FreeFiles:  1<<32 - (rep.Stat.TotalFiles - rep.Stat.FreeFiles),
	}
	return nil
}

// LayoutOf returns the OST indices a file is striped across (for tests
// and tooling).
func (p *PFS) LayoutOf(pth string) ([]int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	info, _, err := p.query(posix.Request{Op: posix.OpStat, Path: pth})
	if err != nil {
		return nil, err
	}
	return append([]int(nil), p.layouts[info.Inode]...), nil
}
