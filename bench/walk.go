package main

import (
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path"
	"path/filepath"
	"sort"
	"time"

	"padll"
)

// walkUnthrottled is the read-side metadata storm: W unmodified
// fs.WalkDir+Info walkers over a seeded tree on a real directory,
// alternately on os.DirFS and through DataPlane.FS. The controller hands
// the job a finite rate that never binds, so the managed bucket is on
// the path without pacing it.
type walkUnthrottled struct {
	root string
	tree *tree
	f    *fleet
	dp   *padll.DataPlane
}

const unbinding = 1e9 // ops/s: a finite rate no worker reaches

func (w *walkUnthrottled) setUp(e *env) error {
	root, err := scratchDir(e, "walk")
	if err != nil {
		return err
	}
	w.root = root
	if w.tree, err = buildTree(root, e.seed, e.size); err != nil {
		return err
	}
	backend, err := padll.NewOSBackend(root)
	if err != nil {
		return err
	}
	if w.f, err = newFleet(unbinding, e.size.period); err != nil {
		return err
	}
	w.dp, err = w.f.add(padll.JobInfo{JobID: "walk", User: "bench", PID: 1, Hostname: "n0"},
		backend, unbinding, walkRules...)
	if err != nil {
		return err
	}
	w.f.warmUp()
	return nil
}

// walkRules ride beside the controller's managed rule.
var walkRules = []string{"limit id:meta class:metadata rate:unlimited"}

func (w *walkUnthrottled) tearDown() error {
	err := w.f.close()
	if rerr := os.RemoveAll(w.root); err == nil {
		err = rerr
	}
	return err
}

func (w *walkUnthrottled) measure(e *env, o *outcome) {
	w.f.startLoop()
	c0, _ := w.f.controlled()
	bridgedOps := paired(e, o, w.walker(os.DirFS(w.root)), w.walker(w.dp.FS()))
	w.f.stopLoop()
	c1, _ := w.f.controlled()
	if c1-c0 != bridgedOps {
		o.fail(1, "shim controlled %d requests, walkers issued %d", c1-c0, bridgedOps)
	}
}

// walker returns a closed-loop worker that walks fsys whole, checking
// each walk against the seeded manifest. One operation is one request
// the walk causes: the root stat, a readdir per directory, a stat per
// file. Every 16th Info call is timed.
func (w *walkUnthrottled) walker(fsys fs.FS) worker {
	perWalk := w.tree.requestsPerWalk()
	return func(id int, deadline time.Time, lat []time.Duration) (ops, failed int64, _ []time.Duration) {
		var n int
		for now().Before(deadline) {
			var files int
			var bytes int64
			err := fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if d.IsDir() {
					return nil
				}
				n++
				var t0 time.Time
				if n&15 == 0 {
					t0 = now()
				}
				info, err := d.Info()
				if n&15 == 0 {
					lat = sample(lat, now().Sub(t0))
				}
				if err != nil {
					return err
				}
				files++
				bytes += info.Size()
				return nil
			})
			ops += perWalk
			if err != nil || files != w.tree.files || bytes != w.tree.bytes {
				failed++
			}
		}
		return ops, failed, lat
	}
}

// ---- seeded tree ----

// tree is the manifest of a built directory tree.
type tree struct {
	dirs  []string // io/fs names in fs.WalkDir (lexical) order, "." first
	kids  map[string][]string
	sizes map[string]int64 // file name -> size
	files int
	bytes int64
}

// requestsPerWalk is what one fs.WalkDir+Info pass asks of the file
// system: the root stat, one readdir per directory, one stat per file.
func (t *tree) requestsPerWalk() int64 { return int64(1 + len(t.dirs) + t.files) }

// buildTree creates top x leaves leaf directories of files each under
// root. The shape is fixed so that every seed costs the same work; the
// seed picks the names (fixed length), the creation order and the file
// sizes.
func buildTree(root string, seed int64, sz sizes) (*tree, error) {
	rng := rand.New(rand.NewSource(seed))
	used := map[string]bool{}
	name := func(prefix string) string {
		for {
			n := fmt.Sprintf("%s%06x", prefix, rng.Intn(1<<24))
			if !used[n] {
				used[n] = true
				return n
			}
		}
	}
	t := &tree{kids: map[string][]string{}, sizes: map[string]int64{}}
	var leaves []string
	for i := 0; i < sz.treeTop; i++ {
		top := name("t")
		t.kids["."] = append(t.kids["."], top)
		for j := 0; j < sz.treeLeaves; j++ {
			leaf := path.Join(top, name("l"))
			t.kids[top] = append(t.kids[top], leaf)
			leaves = append(leaves, leaf)
		}
	}
	rng.Shuffle(len(leaves), func(i, j int) { leaves[i], leaves[j] = leaves[j], leaves[i] })
	var files []string
	for _, leaf := range leaves {
		if err := os.MkdirAll(filepath.Join(root, filepath.FromSlash(leaf)), 0o755); err != nil {
			return nil, err
		}
		for k := 0; k < sz.treeFiles; k++ {
			f := path.Join(leaf, name("f"))
			t.kids[leaf] = append(t.kids[leaf], f)
			files = append(files, f)
		}
	}
	rng.Shuffle(len(files), func(i, j int) { files[i], files[j] = files[j], files[i] })
	for _, f := range files {
		// Sparse files: a size to check, no data blocks to allocate or trim.
		size := 1 + rng.Intn(4096)
		if err := sparseFile(filepath.Join(root, filepath.FromSlash(f)), int64(size)); err != nil {
			return nil, err
		}
		t.sizes[f] = int64(size)
		t.files++
		t.bytes += int64(size)
	}
	for _, kids := range t.kids {
		sort.Strings(kids)
	}
	var visit func(dir string)
	visit = func(dir string) {
		t.dirs = append(t.dirs, dir)
		for _, k := range t.kids[dir] {
			if _, isFile := t.sizes[k]; !isFile {
				visit(k)
			}
		}
	}
	visit(".")
	return t, nil
}

// stream is the request sequence of whole fs.WalkDir+Info passes, as
// many as fit in n requests: the root stat, then depth first a readdir
// per directory and a stat per file, in lexical order.
func (t *tree) stream(n int) (ops []streamOp, walks int) {
	virtual := func(name string) string {
		if name == "." {
			return "/"
		}
		return "/" + name
	}
	var one []streamOp
	one = append(one, streamOp{kind: opStat, path: "/"})
	var visit func(dir string)
	visit = func(dir string) {
		one = append(one, streamOp{kind: opReaddir, path: virtual(dir)})
		for _, k := range t.kids[dir] {
			if _, isFile := t.sizes[k]; isFile {
				one = append(one, streamOp{kind: opStat, path: virtual(k)})
			} else {
				visit(k)
			}
		}
	}
	visit(".")
	walks = n / len(one)
	if walks < 1 {
		walks = 1
	}
	for i := 0; i < walks; i++ {
		ops = append(ops, one...)
	}
	return ops, walks
}

func (w *walkUnthrottled) layers(e *env, o *outcome) error {
	probeControl(e, o, w.f, unbinding)
	body := *e
	body.seconds = e.seconds / 4
	w.measure(&body, o)
	w.f.layerMetrics(o.vals)
	ops, walks := w.tree.stream(e.size.streamOps)
	return priceLayers(e, o, w.root, "walk", walkRules, nil, ops, walks)
}

func sparseFile(name string, size int64) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := f.Truncate(size); err != nil {
		_ = f.Close() // the truncate error is the one to report
		return err
	}
	return f.Close()
}
