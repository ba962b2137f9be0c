//go:build linux && (amd64 || arm64)

package osfs

import (
	"sync"
	"sync/atomic"
	"syscall"

	"padll/internal/posix"
)

// The handle table is a slab indexed by the kernel descriptor itself:
// the kernel already hands out small dense integers and never the same
// one twice at a time, so there is nothing to allocate or map. A slot is
// non-empty only for descriptors this FS opened, which is what makes
// 0/1/2, the root fd or a socket of the host process ErrBadFD here.
//
// A slot's state word is what poll.FD's fdmutex was under *os.File:
//
//	0                    empty
//	slotBusy             owned by the opener filling it or the closer emptying it
//	slotOpen | n*slotRef open, n operations in flight
//	slotBusy | n*slotRef close was called; the last operation out closes
//
// An operation holds a reference from lookup to return, and the kernel
// close happens only when the last reference is gone, so a read racing a
// close finishes on its own file and never on one that inherited the
// number. The slot is emptied before the kernel close: the kernel may
// reissue the number the instant it is closed, and the opener that gets
// it must find the slot free.
const (
	slotOpen = 1 << iota
	slotBusy
	slotRef

	chunkShift = 7
	chunkSize  = 1 << chunkShift
)

// handle is one slot: what the FS remembers about an open descriptor.
type handle struct {
	state atomic.Uint32
	isDir bool
	name  string // display name for fstat (base of the virtual path)
	// entries is the listing captured at opendir time and pos the next
	// one an fd-based readdir streams.
	entries []posix.DirEntry
	pos     atomic.Int64
}

// table is a directory of chunks, allocated as descriptors first land in
// them and never moved, so a slot's address is good for the FS's life.
// The directory itself is replaced, never edited, when a chunk is added.
type table struct {
	chunks atomic.Pointer[[]*[chunkSize]handle]
	grow   sync.Mutex
}

// slot returns fd's slot, or nil when no descriptor has yet landed in
// its chunk.
func (t *table) slot(fd int) *handle {
	chunks := t.chunks.Load()
	if chunks == nil || fd < 0 || fd>>chunkShift >= len(*chunks) {
		return nil
	}
	c := (*chunks)[fd>>chunkShift]
	if c == nil {
		return nil
	}
	return &c[fd&(chunkSize-1)]
}

// extend adds the chunk fd falls in.
//
//lint:coldpath runs once per 128 descriptor numbers for the lifetime of the FS
func (t *table) extend(fd int) *handle {
	t.grow.Lock()
	defer t.grow.Unlock()
	if h := t.slot(fd); h != nil {
		return h
	}
	var old []*[chunkSize]handle
	if p := t.chunks.Load(); p != nil {
		old = *p
	}
	chunks := make([]*[chunkSize]handle, max(len(old), fd>>chunkShift+1))
	copy(chunks, old)
	chunks[fd>>chunkShift] = new([chunkSize]handle)
	t.chunks.Store(&chunks)
	return t.slot(fd)
}

// install records a descriptor the kernel just returned.
//
//lint:hotpath
func (t *table) install(fd int, name string, isDir bool, entries []posix.DirEntry) {
	h := t.slot(fd)
	if h == nil {
		h = t.extend(fd)
	}
	// The swap is also the ordering edge to the closer that emptied the
	// slot. It fails only if something outside this package closed a
	// descriptor the table still holds.
	if !h.state.CompareAndSwap(0, slotBusy) {
		panic("osfs: kernel reissued a descriptor that is still in the handle table")
	}
	h.name, h.isDir, h.entries = name, isDir, entries
	h.state.Store(slotOpen)
}

// acquire takes a reference on fd's handle; every acquire is paired with
// a release.
func (t *table) acquire(fd int) (*handle, error) {
	h := t.slot(fd)
	if h == nil {
		return nil, posix.ErrBadFD
	}
	for {
		s := h.state.Load()
		if s&slotOpen == 0 {
			return nil, posix.ErrBadFD
		}
		if h.state.CompareAndSwap(s, s+slotRef) {
			return h, nil
		}
	}
}

// release drops a reference, closing the descriptor if close was called
// meanwhile and this was the last operation in flight. That close's
// error has no caller left to go to, as under *os.File.
func (h *handle) release(fd int) {
	if h.state.Add(^uint32(slotRef-1)) == slotBusy {
		_ = h.vacate(fd)
	}
}

// close makes fd unknown to every later lookup and closes it once no
// operation is in flight on it.
//
//lint:hotpath
func (t *table) close(fd int) error {
	h := t.slot(fd)
	if h == nil {
		return posix.ErrBadFD
	}
	for {
		s := h.state.Load()
		if s&slotOpen == 0 {
			return posix.ErrBadFD
		}
		if !h.state.CompareAndSwap(s, s&^slotOpen|slotBusy) {
			continue
		}
		if s != slotOpen {
			return nil // operations in flight: the last one out closes
		}
		return h.vacate(fd)
	}
}

// vacate empties the slot and only then closes the kernel descriptor.
func (h *handle) vacate(fd int) error {
	h.name, h.isDir, h.entries = "", false, nil
	h.pos.Store(0)
	h.state.Store(0)
	if err := syscall.Close(fd); err != nil {
		return mapErr(err)
	}
	return nil
}

// each calls fn with every open descriptor.
func (t *table) each(fn func(fd int)) {
	chunks := t.chunks.Load()
	if chunks == nil {
		return
	}
	for i, c := range *chunks {
		if c == nil {
			continue
		}
		for j := range c {
			if c[j].state.Load()&slotOpen != 0 {
				fn(i<<chunkShift | j)
			}
		}
	}
}
