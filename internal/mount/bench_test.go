package mount

import (
	"testing"

	"padll/internal/posix"
)

// routerApply issues path requests (no descriptor-table traffic) through
// a two-mount router over a backend that does nothing, each on fresh
// pooled scratch the way posix.Client issues them: a request reused
// across iterations would hide whatever routing does once per request.
func routerApply(b *testing.B, r *Router, next func() bool) {
	for next() {
		req, rep := posix.GetRequest(), posix.GetReply()
		req.Op, req.Path = posix.OpGetAttr, "/lustre/job1/f"
		err := r.Apply(req, rep)
		posix.PutRequest(req)
		posix.PutReply(rep)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func benchRouter(b *testing.B) *Router {
	nop := posix.FileSystemFunc(func(*posix.Request, *posix.Reply) error { return nil })
	r, err := NewRouter(
		Mount{Prefix: "/lustre", FS: nop, Controlled: true, Name: "pfs"},
		Mount{Prefix: "/", FS: nop, Name: "local"},
	)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkRouterApplySerial and BenchmarkRouterApplyParallel price path
// routing: the mount table is immutable and read without a lock, so
// GOMAXPROCS callers pay no more per call than one.
func BenchmarkRouterApplySerial(b *testing.B) {
	r := benchRouter(b)
	b.ReportAllocs()
	b.ResetTimer()
	i := 0
	routerApply(b, r, func() bool { i++; return i <= b.N })
}

func BenchmarkRouterApplyParallel(b *testing.B) {
	r := benchRouter(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) { routerApply(b, r, pb.Next) })
}
