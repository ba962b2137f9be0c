//go:build !(linux && (amd64 || arm64))

package main

import "os"

// kernelStep is the portable stand-in for the raw-syscall floor: the os
// package's calls, which cost a path copy and a FileInfo more than the
// kernel alone.
func kernelStep() stepper {
	var f *os.File
	return func(op *streamOp) (err error) {
		host := string(op.host[:len(op.host)-1])
		switch op.kind {
		case opStat, opGetAttr:
			_, err = os.Stat(host)
		case opReaddir:
			_, err = os.ReadDir(host)
		case opCreat:
			f, err = os.OpenFile(host, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		case opOpen:
			f, err = os.Open(host)
		case opClose:
			err = f.Close()
		case opRename:
			err = os.Rename(host, string(op.newHost[:len(op.newHost)-1]))
		case opUnlink:
			err = os.Remove(host)
		}
		return err
	}
}

// fsType names the file system holding dir.
func fsType(string) string { return "unknown" }

// spreadSubdirs is an ext4 placement hint; there is nothing to do here.
func spreadSubdirs(string) {}
