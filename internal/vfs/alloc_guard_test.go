package vfs

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"padll/internal/clock"
	"padll/internal/osfs"
)

func guardBridge(t *testing.T) *FS {
	t.Helper()
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "f"), []byte("payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	backend, err := osfs.New(root, clock.NewReal())
	if err != nil {
		t.Fatal(err)
	}
	return New(backend)
}

// TestBridgedStatAllocBudget pins the interposition tax on the
// metadata-hottest call: a bridged Stat may spend exactly two
// allocations — the resolved path string and the fs.FileInfo box — on
// top of a raw-syscall backend that spends none.
func TestBridgedStatAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	v := guardBridge(t)
	if _, err := v.Stat("f"); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(500, func() {
		if _, err := v.Stat("f"); err != nil {
			t.Fatal(err)
		}
	}); avg > 2 {
		t.Errorf("bridged Stat allocates %.3f allocs/op, budget is 2 (resolve + info box)", avg)
	}
}

// TestBridgedReadAtZeroAllocs guards the full streaming chain — vfs
// file → client → osfs — with a caller-owned buffer: reply
// scratch is pooled and the backend reads straight into the caller's
// array, so a steady-state positioned read allocates nothing.
func TestBridgedReadAtZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	v := guardBridge(t)
	f, err := v.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ra, ok := f.(io.ReaderAt)
	if !ok {
		t.Fatal("bridged file does not implement io.ReaderAt")
	}
	buf := make([]byte, 4)
	if _, err := ra.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(500, func() {
		if _, err := ra.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("bridged ReadAt allocates %.3f allocs/op, want 0", avg)
	}
	if string(buf) != "payl" {
		t.Errorf("ReadAt buf = %q, want %q", buf, "payl")
	}
}
