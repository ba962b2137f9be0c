package osfs

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"padll/internal/clock"
	"padll/internal/posix"
)

// BenchmarkOSReaddirPath measures the path readdir of an 8-entry
// directory — the shape of the repository benchmark's walk — on pooled
// request/reply scratch, as the layers above issue it.
func BenchmarkOSReaddirPath(b *testing.B) {
	root := b.TempDir()
	for i := 0; i < 8; i++ {
		if err := os.WriteFile(filepath.Join(root, fmt.Sprintf("f%d", i)), nil, 0o644); err != nil {
			b.Fatal(err)
		}
	}
	o, err := New(root, clock.NewReal())
	if err != nil {
		b.Fatal(err)
	}
	req, rep := posix.GetRequest(), posix.GetReply()
	defer posix.PutRequest(req)
	defer posix.PutReply(rep)
	req.Op, req.Path = posix.OpReaddir, "/"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := o.Apply(req, rep); err != nil || len(rep.Entries) != 8 {
			b.Fatalf("readdir: %d entries, %v", len(rep.Entries), err)
		}
	}
}
