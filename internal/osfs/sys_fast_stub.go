//go:build !linux || (!amd64 && !arm64)

package osfs

import (
	"os"

	"padll/internal/posix"
)

// Portable fallbacks where the raw-syscall fast paths are gated off:
// stat goes through os.Stat/os.Lstat and directory listings through
// os.File.ReadDir, at the usual per-call allocation cost.

// hasFastStat gates the raw fstatat path in FS.stat.
const hasFastStat = false

func statInto([]byte, bool, *posix.FileInfo) error { return posix.ErrNotSupported }

// appendDirentsAt appends the entries of the directory at the cleaned
// virtual path p (unsorted), through a short-lived *os.File.
func (o *FS) appendDirentsAt(entries []posix.DirEntry, p string) ([]posix.DirEntry, error) {
	f, err := os.Open(o.resolve(p))
	if err != nil {
		return entries, err
	}
	entries, err = appendDirents(entries, f)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	return entries, err
}

// appendDirents appends f's directory entries (unsorted) via the
// portable ReadDir, paying one Info stat per entry for the inode.
func appendDirents(entries []posix.DirEntry, f *os.File) ([]posix.DirEntry, error) {
	des, err := f.ReadDir(-1)
	if err != nil {
		return entries, err
	}
	for _, de := range des {
		e := posix.DirEntryFromFS(de)
		if info, ierr := de.Info(); ierr == nil {
			if ino, _, _, _, ok := sysFields(info); ok {
				e.Inode = ino
			}
		}
		entries = append(entries, e)
	}
	return entries, nil
}
