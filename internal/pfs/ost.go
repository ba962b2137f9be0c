package pfs

import (
	"sync/atomic"

	"padll/internal/clock"
	"padll/internal/tokenbucket"
)

// ost models one object storage target: a bandwidth-limited object store.
// Files are striped across several OSTs (§II); each stripe's bytes consume
// that OST's bandwidth bucket, so wide-striped transfers parallelize
// across targets exactly as in a Lustre OSS farm.
type ost struct {
	bandwidth *tokenbucket.Bucket

	// objects holds each object's length, keyed by (inode, stripe). The
	// file's bytes live in the namespace; a length is all that space
	// accounting, capacity-balanced placement and a read's cost (a hole
	// past the object's end moves nothing) need. Guarded by PFS.mu.
	objects map[objectKey]int64

	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
	usedBytes    atomic.Int64
}

type objectKey struct {
	inode  uint64
	stripe int
}

func newOST(clk clock.Clock, cfg Config) *ost {
	return &ost{
		bandwidth: tokenbucket.New(clk, cfg.OSTBandwidth, cfg.OSTBurst),
		objects:   make(map[objectKey]int64),
	}
}

// resize sets an object's length, creating it on first growth, and keeps
// the target's space accounting in step.
func (o *ost) resize(key objectKey, length int64) {
	o.usedBytes.Add(length - o.objects[key])
	o.objects[key] = length
}

// extend grows an object to cover a write ending at end.
func (o *ost) extend(key objectKey, end int64) {
	if end > o.objects[key] {
		o.resize(key, end)
	}
}

// truncate cuts an object to length; it never grows one.
func (o *ost) truncate(key objectKey, length int64) {
	if length < o.objects[key] {
		o.resize(key, length)
	}
}

// remove deletes an object and returns its space.
func (o *ost) remove(key objectKey) {
	o.usedBytes.Add(-o.objects[key])
	delete(o.objects, key)
}

// stored returns how many of the size bytes at offset the object holds.
func (o *ost) stored(key objectKey, offset, size int64) int64 {
	return max(0, min(size, o.objects[key]-offset))
}

// move charges n bytes against the target's bandwidth, blocking until it
// has them, and counts the transfer.
func (o *ost) move(n int64, write bool) error {
	if err := o.bandwidth.Wait(float64(n)); err != nil {
		return err
	}
	if write {
		o.bytesWritten.Add(n)
	} else {
		o.bytesRead.Add(n)
	}
	return nil
}
