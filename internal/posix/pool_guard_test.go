package posix_test

import (
	"testing"
	"time"

	"padll/internal/clock"
	"padll/internal/interpose"
	"padll/internal/localfs"
	"padll/internal/mount"
	"padll/internal/policy"
	"padll/internal/posix"
	"padll/internal/stage"
)

// TestForwardingLayersTakeNoPooledRequest: the shim and the router
// forward the caller's own request — a path op, a two-path op and
// descriptor ops, on a rewriting mount — without asking the request pool
// for a copy. (Not parallel: it swaps the package's pool.)
func TestForwardingLayersTakeNoPooledRequest(t *testing.T) {
	clk := clock.NewSim(time.Unix(0, 0))
	router, err := mount.NewRouter(mount.Mount{Prefix: "/pfs", FS: localfs.New(clk), Controlled: true})
	if err != nil {
		t.Fatal(err)
	}
	stg := stage.New(stage.Info{StageID: "s"}, clk)
	stg.ApplyRule(policy.Rule{ID: "all", Rate: 1e9})
	shim := interpose.New(router, stg, clk)

	var rep posix.Reply
	do := func(req posix.Request) {
		t.Helper()
		rep.Reset()
		if err := shim.Apply(&req, &rep); err != nil {
			t.Fatalf("%v: %v", &req, err)
		}
	}
	misses := posix.CountRequestPoolMisses(func() {
		do(posix.Request{Op: posix.OpCreat, Path: "/pfs/f", Flags: posix.OCreate | posix.OWrOnly})
		fd := rep.FD
		do(posix.Request{Op: posix.OpFStat, FD: fd})
		do(posix.Request{Op: posix.OpClose, FD: fd})
		do(posix.Request{Op: posix.OpRename, Path: "/pfs/f", NewPath: "/pfs/g"})
		do(posix.Request{Op: posix.OpGetAttr, Path: "/pfs/g"})
	})
	if misses != 0 {
		t.Errorf("shim + router took %d requests from the pool, want 0", misses)
	}
	if got := shim.Stats().Controlled; got != 5 {
		t.Errorf("controlled = %d, want 5", got)
	}
	// The counter does count: the typed client pools its requests.
	if misses := posix.CountRequestPoolMisses(func() { posix.NewClient(shim).GetAttr("/pfs/g") }); misses != 1 {
		t.Errorf("client call on an empty pool: %d misses, want 1", misses)
	}
}
