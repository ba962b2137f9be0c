package posix

import "testing"

// guardPayload is package-level so the backend double can refill reply
// scratch without allocating inside the measured loop.
var guardPayload = []byte("xyzw")

// guardFS is a FileSystem double that exercises every reply field the
// typed client methods read, reusing reply scratch per the Apply
// ownership contract.
var guardFS = FileSystemFunc(func(req *Request, rep *Reply) error {
	switch req.Op {
	case OpOpen, OpOpendir:
		rep.FD = 3
	case OpStat, OpFStat, OpGetAttr:
		rep.Info = zeroInfo
		rep.Info.Size = int64(len(guardPayload))
	case OpRead, OpPRead:
		rep.Data = append(rep.Data[:0], guardPayload...)
		rep.N = int64(len(rep.Data))
	case OpWrite, OpPWrite:
		rep.N = req.Size
	case OpLSeek:
		rep.N = req.Offset
	case OpReaddir:
		rep.Entries = append(rep.Entries[:0],
			DirEntry{Name: "a"}, DirEntry{Name: "b", IsDir: true})
	}
	return nil
})

// TestClientHotPathZeroAllocs guards the zero-alloc contract of the
// client's typed fast-path methods: with pooled request/reply scratch
// and caller-provided buffers, a steady-state metadata or data call must
// not allocate at all.
func TestClientHotPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	c := NewClient(guardFS).WithJob("job1", "alice", 42)
	buf := make([]byte, len(guardPayload))
	entries := make([]DirEntry, 0, 4)

	ops := []struct {
		name string
		run  func() error
	}{
		{"Open+Close", func() error {
			fd, err := c.Open("/f", ORdOnly, 0)
			if err != nil {
				return err
			}
			return c.Close(fd)
		}},
		{"Stat", func() error { _, err := c.Stat("/f"); return err }},
		{"FStat", func() error { _, err := c.FStat(3); return err }},
		{"ReadInto", func() error { _, err := c.ReadInto(3, buf); return err }},
		{"PReadInto", func() error { _, err := c.PReadInto(3, buf, 0); return err }},
		{"Write", func() error { _, err := c.Write(3, guardPayload); return err }},
		{"PWrite", func() error { _, err := c.PWrite(3, guardPayload, 0); return err }},
		{"LSeek", func() error { _, err := c.LSeek(3, 0, 0); return err }},
		{"ReaddirInto", func() error {
			var err error
			entries, err = c.ReaddirInto("/d", entries[:0])
			return err
		}},
		{"Opendir+ReaddirFD+Closedir", func() error {
			fd, err := c.Opendir("/d")
			if err != nil {
				return err
			}
			if _, _, err := c.ReaddirFD(fd); err != nil {
				return err
			}
			return c.Closedir(fd)
		}},
	}
	for _, op := range ops {
		if err := op.run(); err != nil { // warm the pools
			t.Fatalf("%s: %v", op.name, err)
		}
		if avg := testing.AllocsPerRun(1000, func() {
			if err := op.run(); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("%s allocates %.3f allocs/op, want 0 — the pooled request/reply lifecycle is leaking", op.name, avg)
		}
	}
}

// TestReplyResetKeepsCapacity pins the pooling invariant the zero-alloc
// guards rely on: recycling a reply must truncate, not release, its
// slice scratch.
func TestReplyResetKeepsCapacity(t *testing.T) {
	rep := GetReply()
	rep.Data = append(rep.Data[:0], guardPayload...)
	rep.Entries = append(rep.Entries[:0], DirEntry{Name: "a"})
	rep.Names = append(rep.Names[:0], "user.k")
	dataCap, entCap, nameCap := cap(rep.Data), cap(rep.Entries), cap(rep.Names)
	rep.Reset()
	if len(rep.Data) != 0 || len(rep.Entries) != 0 || len(rep.Names) != 0 {
		t.Errorf("Reset left lengths %d/%d/%d, want 0", len(rep.Data), len(rep.Entries), len(rep.Names))
	}
	if cap(rep.Data) != dataCap || cap(rep.Entries) != entCap || cap(rep.Names) != nameCap {
		t.Errorf("Reset dropped capacity: %d/%d/%d, want %d/%d/%d",
			cap(rep.Data), cap(rep.Entries), cap(rep.Names), dataCap, entCap, nameCap)
	}
	PutReply(rep)
}
