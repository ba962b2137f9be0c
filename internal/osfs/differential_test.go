package osfs

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"padll/internal/clock"
	"padll/internal/posix"
)

// A seeded differential test of the namespace operations: one generated
// sequence runs against osfs and, call for call, against plain
// syscall.* on a sibling directory. Every step must land in the same
// error class and the two trees must end up identical. A failure prints
// its seed; pin it in pinnedSeeds.

var pinnedSeeds = []int64{}

// diffNames is the namespace the generator draws from: few enough names
// that sequences collide (rename onto a directory, rmdir of a non-empty
// one, unlink of a directory, opens through symlinks), with ".." forms
// that try to climb out.
var (
	diffDirs  = []string{"/d1", "/d2", "/d1/s"}
	diffLeafs = []string{"a", "b", "c", "ln"}
	// Relative targets stay below the link's directory: the two roots
	// are siblings, and a target that climbed out of one would land in
	// the other's parent.
	diffTargets = []string{"a", "b", "nope", "s", "s/a", "/a", "/d1", "/d1/s/b", "/gone", "/"}
)

func diffPath(rng *rand.Rand) string {
	p := diffLeafs[rng.Intn(len(diffLeafs))]
	if rng.Intn(3) > 0 {
		p = diffDirs[rng.Intn(len(diffDirs))] + "/" + p
	} else if rng.Intn(3) == 0 {
		return diffDirs[rng.Intn(len(diffDirs))] // a directory where a file is expected
	}
	switch rng.Intn(8) {
	case 0:
		return "/../" + p // climbing past the root is clamped to it
	case 1:
		return "/d1/../../.." + path.Join("/", p)
	case 2:
		return strings.TrimPrefix(p, "/") // relative paths are rooted
	}
	return path.Join("/", p)
}

// class names an error's boundary class; both sides are reduced to it.
func class(err error) string {
	var errno syscall.Errno
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, posix.ErrNotDir) || errors.Is(err, syscall.ENOTDIR):
		return "not-dir"
	case errors.Is(err, posix.ErrIsDir) || errors.Is(err, syscall.EISDIR):
		return "is-dir"
	case errors.Is(err, posix.ErrNotEmpty) || errors.Is(err, syscall.ENOTEMPTY):
		return "not-empty"
	case errors.Is(err, fs.ErrNotExist):
		return "not-exist"
	case errors.Is(err, fs.ErrExist):
		return "exist"
	case errors.Is(err, posix.ErrInvalid):
		return "invalid"
	case errors.As(err, &errno):
		return "errno " + errno.Error()
	}
	return "other " + err.Error()
}

// oracle is the same namespace on plain system calls.
type oracle struct{ root string }

func (r oracle) host(p string) string { return filepath.Join(r.root, clean(p)) }

func (r oracle) stat(p string, follow bool) (string, error) {
	var st syscall.Stat_t
	statf := syscall.Lstat
	if follow {
		statf = syscall.Stat
	}
	if err := statf(r.host(p), &st); err != nil {
		return "", err
	}
	return statLine(st.Mode&syscall.S_IFMT == syscall.S_IFDIR, st.Size, st.Mode&0o777, int(st.Nlink)), nil
}

func statLine(isDir bool, size int64, perm uint32, nlink int) string {
	if isDir {
		return fmt.Sprintf("dir %o", perm) // a directory's size and link count are the file system's business
	}
	return fmt.Sprintf("size %d perm %o nlink %d", size, perm, nlink)
}

// step runs one generated operation on both sides and returns what each
// answered: an error class, plus the payload of the reads.
func diffStep(rng *rand.Rand, c *posix.Client, r oracle) (op, got, want string) {
	p, q := diffPath(rng), diffPath(rng)
	answer := func(payload string, err error) string {
		if err != nil {
			return class(err)
		}
		return "ok " + payload
	}
	switch k := rng.Intn(13); k {
	case 0, 1: // create or open, then close
		flags, sys := posix.ORdOnly, syscall.O_RDONLY
		switch rng.Intn(4) {
		case 0:
			flags, sys = posix.OCreate|posix.OWrOnly, syscall.O_CREAT|syscall.O_WRONLY
		case 1:
			flags, sys = posix.OCreate|posix.OExcl|posix.OWrOnly, syscall.O_CREAT|syscall.O_EXCL|syscall.O_WRONLY
		case 2:
			flags, sys = posix.OWrOnly|posix.OTrunc, syscall.O_WRONLY|syscall.O_TRUNC
		}
		fd, err := c.Open(p, flags, 0o644)
		if err == nil {
			err = c.Close(fd)
		}
		hfd, herr := syscall.Open(r.host(p), sys|syscall.O_CLOEXEC, 0o644)
		if herr == nil {
			herr = syscall.Close(hfd)
		}
		return fmt.Sprintf("open(%s, %#x)", p, flags), answer("", err), answer("", herr)
	case 2:
		return fmt.Sprintf("rename(%s, %s)", p, q), answer("", c.Rename(p, q)), answer("", syscall.Rename(r.host(p), r.host(q)))
	case 3:
		return fmt.Sprintf("unlink(%s)", p), answer("", c.Unlink(p)), answer("", syscall.Unlink(r.host(p)))
	case 4:
		return fmt.Sprintf("mkdir(%s)", p), answer("", c.Mkdir(p, 0o755)), answer("", syscall.Mkdir(r.host(p), 0o755))
	case 5:
		return fmt.Sprintf("rmdir(%s)", p), answer("", c.Rmdir(p)), answer("", syscall.Rmdir(r.host(p)))
	case 6:
		return fmt.Sprintf("link(%s, %s)", p, q), answer("", c.Link(p, q)), answer("", syscall.Link(r.host(p), r.host(q)))
	case 7:
		target := diffTargets[rng.Intn(len(diffTargets))]
		pinned := target
		if strings.HasPrefix(target, "/") {
			pinned = r.host(target)
		}
		return fmt.Sprintf("symlink(%s, %s)", target, p), answer("", c.Symlink(target, p)), answer("", syscall.Symlink(pinned, r.host(p)))
	case 8:
		target, err := c.Readlink(p)
		htarget, herr := os.Readlink(r.host(p))
		if rest, ok := strings.CutPrefix(htarget, r.root); ok && (rest == "" || rest[0] == '/') {
			htarget = path.Join("/", rest)
		}
		return fmt.Sprintf("readlink(%s)", p), answer(target, err), answer(htarget, herr)
	case 9, 10:
		follow := k == 9
		req := &posix.Request{Op: posix.OpLStat, Path: p}
		if follow {
			req.Op = posix.OpStat
		}
		var line string
		rep, err := c.Do(req)
		if err == nil {
			line = statLine(rep.Info.Mode.IsDir(), rep.Info.Size, uint32(rep.Info.Mode.Perm()), rep.Info.Nlink)
		}
		hline, herr := r.stat(p, follow)
		return fmt.Sprintf("stat(%s, follow=%v)", p, follow), answer(line, err), answer(hline, herr)
	case 11:
		size := int64(rng.Intn(64))
		return fmt.Sprintf("truncate(%s, %d)", p, size), answer("", c.Truncate(p, size)), answer("", syscall.Truncate(r.host(p), size))
	default:
		mode := posix.FileMode(0o700 | rng.Intn(0o100)) // owner bits stay, so the run also works unprivileged
		return fmt.Sprintf("chmod(%s, %o)", p, mode), answer("", c.Chmod(p, mode)), answer("", syscall.Chmod(r.host(p), uint32(mode)))
	}
}

// tree renders everything below root, one line per entry.
func tree(t *testing.T, root string) []string {
	t.Helper()
	var lines []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		line := fmt.Sprintf("%s %v", strings.TrimPrefix(p, root), info.Mode())
		switch {
		case info.Mode()&fs.ModeSymlink != 0:
			target, _ := os.Readlink(p)
			line += " -> " + strings.TrimPrefix(target, root)
		case info.Mode().IsRegular():
			line += fmt.Sprintf(" %d bytes, %d links", info.Size(), info.Sys().(*syscall.Stat_t).Nlink)
		}
		lines = append(lines, line)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return lines
}

func runDifferential(t *testing.T, seed int64, steps int) {
	base := t.TempDir()
	// Names of one length: lstat reports a pinned link's host target size.
	r := oracle{root: filepath.Join(base, "sysc")}
	mine := filepath.Join(base, "osfs")
	for _, root := range []string{r.root, mine} {
		for _, d := range append([]string{"/"}, diffDirs...) {
			if err := os.Mkdir(filepath.Join(root, d), 0o755); err != nil {
				t.Fatal(err)
			}
		}
	}
	o, err := New(mine, clock.NewReal())
	if err != nil {
		t.Fatal(err)
	}
	c := posix.NewClient(o)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < steps; i++ {
		if op, got, want := diffStep(rng, c, r); got != want {
			t.Fatalf("seed %d, step %d: %s answered %q, plain system calls answered %q", seed, i, op, got, want)
		}
	}
	if n := o.OpenFDs(); n != 0 {
		t.Errorf("seed %d: %d handles left open", seed, n)
	}
	got, want := tree(t, mine), tree(t, r.root)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("seed %d: trees differ\nosfs:\n  %s\nplain system calls:\n  %s", seed,
			strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

func TestDifferentialAgainstPlainSyscalls(t *testing.T) {
	seeds := append([]int64{}, pinnedSeeds...)
	for s := int64(1); s <= 40; s++ {
		seeds = append(seeds, s)
	}
	for _, seed := range seeds {
		runDifferential(t, seed, 400)
	}
}
