package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"padll"
)

// churnUnthrottled is the write-heavy twin of the walk: every worker
// cycles creat+close, getattr, open+close, rename, getattr, unlink (the
// paper's top-4 operation mix) on ever-changing names in its own
// directory, alternately with os.* calls and through DataPlane.Client.
// It uses the stage, the router's descriptor table and osfs differently
// from the walk, and does not touch vfs.
type churnUnthrottled struct {
	root string
	f    *fleet
	dp   *padll.DataPlane
	// Per worker and name index: the virtual path a cycle creates (p),
	// the one it renames to (q), and their host twins.
	p, q, hostP, hostQ [][]string
	next               []int // per worker: name index of its next cycle
}

// churnCycle is one cycle's operations, in order.
var churnCycle = [...]opKind{opCreat, opClose, opGetAttr, opOpen, opClose, opRename, opGetAttr, opUnlink}

// churnRules ride beside the controller's managed rule: four per-op
// rules, so classification has several candidates to weigh.
var churnRules = []string{
	"limit id:op-open op:open rate:unlimited",
	"limit id:op-close op:close rate:unlimited",
	"limit id:op-getattr op:getattr rate:unlimited",
	"limit id:op-rename op:rename rate:unlimited",
}

func (c *churnUnthrottled) setUp(e *env) error {
	root, err := scratchDir(e, "churn")
	if err != nil {
		return err
	}
	c.root = root
	// A block group of its own for every worker directory: ext4 hands
	// out and takes back inodes under a per-group lock, and two workers
	// sharing one would measure that lock.
	spreadSubdirs(root)
	rng := rand.New(rand.NewSource(e.seed))
	n := e.size.churnNames
	c.p, c.q, c.hostP, c.hostQ = nil, nil, nil, nil
	c.next = make([]int, e.workers)
	for w := 0; w < e.workers; w++ {
		dir := fmt.Sprintf("w%d", w)
		if err := os.Mkdir(filepath.Join(root, dir), 0o755); err != nil {
			return err
		}
		p, q := make([]string, n), make([]string, n)
		hp, hq := make([]string, n), make([]string, n)
		for i, k := range rng.Perm(n) {
			p[i] = fmt.Sprintf("/%s/c%06x", dir, k)
			q[i] = fmt.Sprintf("/%s/r%06x", dir, k)
			hp[i] = filepath.Join(root, filepath.FromSlash(p[i]))
			hq[i] = filepath.Join(root, filepath.FromSlash(q[i]))
		}
		c.p, c.q = append(c.p, p), append(c.q, q)
		c.hostP, c.hostQ = append(c.hostP, hp), append(c.hostQ, hq)
	}
	backend, err := padll.NewOSBackend(root)
	if err != nil {
		return err
	}
	if c.f, err = newFleet(unbinding, e.size.period); err != nil {
		return err
	}
	c.dp, err = c.f.add(padll.JobInfo{JobID: "churn", User: "bench", PID: 1, Hostname: "n0"},
		backend, unbinding, churnRules...)
	if err != nil {
		return err
	}
	c.f.warmUp()
	return nil
}

func (c *churnUnthrottled) tearDown() error {
	err := c.f.close()
	if rerr := os.RemoveAll(c.root); err == nil {
		err = rerr
	}
	return err
}

func (c *churnUnthrottled) measure(e *env, o *outcome) {
	c.f.startLoop()
	c0, _ := c.f.controlled()
	bridgedOps := paired(e, o, c.worker(c.direct), c.worker(c.bridged))
	c.f.stopLoop()
	c1, _ := c.f.controlled()
	if c1-c0 != bridgedOps {
		o.fail(1, "shim controlled %d requests, workers issued %d", c1-c0, bridgedOps)
	}
	for w := range c.p {
		left, err := os.ReadDir(filepath.Join(c.root, fmt.Sprintf("w%d", w)))
		if err != nil || len(left) != 0 {
			o.fail(1, "worker directory w%d not empty after the run: %d entries, err %v", w, len(left), err)
		}
	}
}

// cycleStep issues step j of worker id's cycle on name index i.
type cycleStep func(i, j int) error

// worker returns the closed-loop worker: whole cycles until the
// deadline. Every 4th cycle is timed whole and sampled as its mean per
// operation: the eight operations cost from one to several microseconds
// each, and the median of single calls sits in a gap between their
// clusters, where it flips from run to run.
func (c *churnUnthrottled) worker(mk func(id int) cycleStep) worker {
	return func(id int, deadline time.Time, lat []time.Duration) (ops, failed int64, _ []time.Duration) {
		step := mk(id)
		names := len(c.p[id])
		i := c.next[id]
		for n := 0; now().Before(deadline); i, n = (i+1)%names, n+1 {
			timed := n&3 == 0
			var t0 time.Time
			if timed {
				t0 = now()
			}
			for j := range churnCycle {
				if step(i, j) != nil {
					failed++
				}
			}
			if timed {
				lat = sample(lat, now().Sub(t0)/time.Duration(len(churnCycle)))
			}
			ops += int64(len(churnCycle))
		}
		c.next[id] = i
		return ops, failed, lat
	}
}

// bridged issues the cycle through the data plane's typed client.
func (c *churnUnthrottled) bridged(id int) cycleStep {
	cl := c.dp.Client()
	p, q := c.p[id], c.q[id]
	fd := -1
	return func(i, j int) (err error) {
		switch j {
		case 0:
			fd, err = cl.Creat(p[i], 0o644)
		case 1, 4:
			err = cl.Close(fd)
		case 2:
			_, err = cl.GetAttr(p[i])
		case 3:
			fd, err = cl.Open(p[i], padll.ORdOnly, 0)
		case 5:
			err = cl.Rename(p[i], q[i])
		case 6:
			_, err = cl.GetAttr(q[i])
		case 7:
			err = cl.Unlink(q[i])
		}
		return err
	}
}

// direct issues the same cycle as a Go program would without PADLL.
func (c *churnUnthrottled) direct(id int) cycleStep {
	p, q := c.hostP[id], c.hostQ[id]
	var f *os.File
	return func(i, j int) (err error) {
		switch j {
		case 0:
			f, err = os.OpenFile(p[i], os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		case 1, 4:
			err = f.Close()
		case 2:
			_, err = os.Stat(p[i])
		case 3:
			f, err = os.Open(p[i])
		case 5:
			err = os.Rename(p[i], q[i])
		case 6:
			_, err = os.Stat(q[i])
		case 7:
			err = os.Remove(q[i])
		}
		return err
	}
}

// stream is the first n requests (whole cycles) the workers' seeded
// schedule issues, interleaved worker by worker as a serial replay sees
// them.
func (c *churnUnthrottled) stream(n int) []streamOp {
	var ops []streamOp
	for i := 0; len(ops)+len(churnCycle) <= n; i++ {
		w := i % len(c.p)
		k := (i / len(c.p)) % len(c.p[w])
		p, q := c.p[w][k], c.q[w][k]
		for j, kind := range churnCycle {
			op := streamOp{kind: kind, path: p}
			switch {
			case kind == opClose:
				op.path = ""
			case kind == opRename:
				op.newPath = q
			case j > 5:
				op.path = q
			}
			ops = append(ops, op)
		}
	}
	return ops
}

func (c *churnUnthrottled) layers(e *env, o *outcome) error {
	probeControl(e, o, c.f, unbinding)
	body := *e
	body.seconds = e.seconds / 4
	c.measure(&body, o)
	c.f.layerMetrics(o.vals)
	return priceLayers(e, o, c.root, "churn", churnRules, nil, c.stream(e.size.streamOps), 0)
}
