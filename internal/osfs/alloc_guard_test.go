//go:build linux && !race

package osfs_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"padll/internal/clock"
	"padll/internal/interpose"
	"padll/internal/mount"
	"padll/internal/osfs"
	"padll/internal/policy"
	"padll/internal/posix"
	"padll/internal/stage"
)

// TestStackZeroAllocs guards the zero-alloc request path on a real
// directory, on two rungs: the raw osfs client, and a data-plane client
// whose unlimited rule sends every call through shim, stage and
// Router.Forward before it reaches osfs. Each op group leaves the tree as
// it found it. The paths are built before measuring: a concatenation
// inside the loop would allocate by itself.
func TestStackZeroAllocs(t *testing.T) {
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "f"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	clk := clock.NewReal()
	backend, err := osfs.New(root, clk)
	if errors.Is(err, posix.ErrNotSupported) {
		t.Skip("osfs has no backend on this platform")
	}
	if err != nil {
		t.Fatal(err)
	}
	router, err := mount.NewRouter(mount.Mount{Prefix: "/", FS: backend, Controlled: true, Name: "os:/"})
	if err != nil {
		t.Fatal(err)
	}
	stg := stage.New(stage.Info{StageID: "alloc", JobID: "job1", User: "u1"}, clk)
	stg.ApplyRule(policy.Rule{ID: "meta", Match: policy.Matcher{
		Classes: []posix.Class{posix.ClassMetadata, posix.ClassDirectory},
	}, Rate: policy.Unlimited})
	shim := interpose.New(router, stg, clk)

	const file, renamed, dir, created = "/f", "/r", "/d", "/c"
	rungs := []struct {
		name string
		c    *posix.Client
	}{
		{"osfs", posix.NewClient(backend).WithJob("job1", "u1", 1)},
		{"dataplane", posix.NewClient(shim).WithJob("job1", "u1", 1)},
	}
	for _, rung := range rungs {
		c := rung.c
		groups := []struct {
			name string
			run  func() error
		}{
			{"open+close", func() error {
				fd, err := c.Open(file, posix.ORdOnly, 0)
				if err != nil {
					return err
				}
				return c.Close(fd)
			}},
			{"stat", func() error { _, err := c.Stat(file); return err }},
			{"getattr", func() error { _, err := c.GetAttr(file); return err }},
			{"rename there and back", func() error {
				if err := c.Rename(file, renamed); err != nil {
					return err
				}
				return c.Rename(renamed, file)
			}},
			{"mkdir+rmdir", func() error {
				if err := c.Mkdir(dir, 0o755); err != nil {
					return err
				}
				return c.Rmdir(dir)
			}},
			{"creat+close+unlink", func() error {
				fd, err := c.Creat(created, 0o644)
				if err != nil {
					return err
				}
				if err := c.Close(fd); err != nil {
					return err
				}
				return c.Unlink(created)
			}},
		}
		for _, g := range groups {
			t.Run(rung.name+"/"+g.name, func(t *testing.T) {
				if err := g.run(); err != nil { // warm the pools and the handle table
					t.Fatal(err)
				}
				if avg := testing.AllocsPerRun(200, func() {
					if err := g.run(); err != nil {
						t.Fatal(err)
					}
				}); avg != 0 {
					t.Errorf("%s allocates %.3f allocs/op, want 0", g.name, avg)
				}
			})
		}
	}

	if st := shim.Stats(); st.Controlled == 0 || st.Bypassed != 0 {
		t.Errorf("shim controlled %d calls and bypassed %d: the data-plane rung did not go through the stage",
			st.Controlled, st.Bypassed)
	}
	if st := stg.Collect(); st.Passthrough != 0 {
		t.Errorf("%d calls matched no rule: the data-plane rung skipped the queue", st.Passthrough)
	}
}
