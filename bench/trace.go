package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// spanCalls is how many calls one span covers: batching keeps the cost
// of the clock read under a nanosecond per call.
const spanCalls = 64

// span is one timed batch of calls into a layer. Parent names the layer
// whose calls cause this layer's calls; the rungs of a ladder are
// replayed one after another, so spans nest by parent, not by time.
type span struct {
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	N        int    `json:"n"`
	Parent   string `json:"parent"`
}

// recorder keeps a traced run's spans in memory until the run ends.
type recorder struct {
	workload string
	origin   time.Time
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, origin: now(), spans: make([]span, 0, 1<<14)}
}

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			_ = f.Close() // the encode error is the one to report
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}

// rung is one layer boundary's replay: the cost per call of every
// batch it was given. Its figure is the median over batches, so a
// scheduler or GC hiccup inside one batch does not move it.
type rung struct {
	layer, parent string
	perOp         []float64 // ns per call, one entry per batch
	calls         int
	total         time.Duration
}

// add records one timed batch of n calls, as a span when rec is set.
func (r *rung) add(rec *recorder, t0, t1 time.Time, n int) {
	if n == 0 {
		return
	}
	d := t1.Sub(t0)
	r.perOp = append(r.perOp, float64(d.Nanoseconds())/float64(n))
	r.calls += n
	r.total += d
	if rec != nil {
		rec.spans = append(rec.spans, span{
			Layer: r.layer, Workload: rec.workload, Parent: r.parent, N: n,
			StartNs: t0.Sub(rec.origin).Nanoseconds(), EndNs: t1.Sub(rec.origin).Nanoseconds(),
		})
	}
}

// ns is the rung's cost per call.
func (r *rung) ns() float64 { return median(r.perOp) }

// mean is the rung's cost per call over everything it was given.
func (r *rung) mean() float64 {
	if r.calls == 0 {
		return 0
	}
	return float64(r.total.Nanoseconds()) / float64(r.calls)
}

// above is a layer's own cost: its rung minus the rung below. Both saw
// the same batches back to back, so host drift cancels. Noise can push a
// thin layer's difference below zero; it is reported as zero.
func above(upper, lower float64) float64 {
	if d := upper - lower; d > 0 {
		return d
	}
	return 0
}
