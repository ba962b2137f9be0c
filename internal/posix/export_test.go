package posix

import "sync"

// CountRequestPoolMisses runs fn against an empty request pool and
// returns how many requests the pool had to make for it. The first
// GetRequest on an empty pool is a miss, so zero means fn never asked
// the pool for a request at all.
func CountRequestPoolMisses(fn func()) int {
	saved := requestPool.New
	misses := 0
	requestPool = sync.Pool{New: func() any { misses++; return new(Request) }}
	fn()
	requestPool = sync.Pool{New: saved}
	return misses
}
