//go:build !linux || (!amd64 && !arm64)

// Package osfs implements the interposed POSIX boundary against a real
// operating-system directory tree. The implementation is the Linux
// amd64/arm64 one (osfs.go); on this platform the backend is absent and
// New says so.
package osfs

import (
	"padll/internal/clock"
	"padll/internal/posix"
)

// FS is the OS backend; it cannot be constructed on this platform.
type FS struct{}

var _ posix.FileSystem = (*FS)(nil)

// New reports posix.ErrNotSupported.
func New(string, clock.Clock) (*FS, error) { return nil, posix.ErrNotSupported }

// OpenFDs reports the number of live descriptors.
func (o *FS) OpenFDs() int { return 0 }

// Apply implements posix.FileSystem.
func (o *FS) Apply(*posix.Request, *posix.Reply) error { return posix.ErrNotSupported }
