// Package trace models the metadata-operation traces PADLL's evaluation
// is built on. The paper analyzes 30 days of per-minute LustrePerfMon
// samples from PFS_A, the DDN ExaScaler Lustre file system behind ABCI's
// /group area (§II-A), and replays them against the file system (§IV).
// Those logs are proprietary; this package provides (a) a trace container
// with the same shape — per-operation rate samples on a fixed interval —
// (b) a synthetic generator statistically matched to every figure the
// paper reports about PFS_A, (c) analysis helpers that reproduce the §II-A
// study, and (d) the multi-threaded trace replayer used by the evaluation.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"padll/internal/posix"
)

// Trace is a per-operation rate log: Rates[op][i] is the average rate in
// ops/second over the i-th sample window.
type Trace struct {
	// SampleInterval is the window each sample covers (1 minute at ABCI).
	SampleInterval time.Duration
	// Ops lists the operation types present, in a stable order.
	Ops []posix.Op
	// Rates holds one rate series per op; all series have equal length.
	Rates map[posix.Op][]float64
}

// NewTrace returns an empty trace for the given ops.
func NewTrace(interval time.Duration, ops ...posix.Op) *Trace {
	t := &Trace{
		SampleInterval: interval,
		Ops:            append([]posix.Op(nil), ops...),
		Rates:          make(map[posix.Op][]float64, len(ops)),
	}
	for _, op := range ops {
		t.Rates[op] = nil
	}
	return t
}

// Len returns the number of samples.
func (t *Trace) Len() int {
	for _, op := range t.Ops {
		return len(t.Rates[op])
	}
	return 0
}

// Duration returns the wall time the trace covers.
func (t *Trace) Duration() time.Duration {
	return time.Duration(t.Len()) * t.SampleInterval
}

// RateAt returns op's rate during the sample containing offset d from the
// trace start (0 outside the trace or for unknown ops).
func (t *Trace) RateAt(op posix.Op, d time.Duration) float64 {
	series, ok := t.Rates[op]
	if !ok || d < 0 {
		return 0
	}
	i := int(d / t.SampleInterval)
	if i >= len(series) {
		return 0
	}
	return series[i]
}

// Slice returns the sub-trace covering samples [from, to).
func (t *Trace) Slice(from, to int) *Trace {
	if from < 0 {
		from = 0
	}
	if to > t.Len() {
		to = t.Len()
	}
	if to < from {
		to = from
	}
	out := NewTrace(t.SampleInterval, t.Ops...)
	for _, op := range t.Ops {
		out.Rates[op] = append([]float64(nil), t.Rates[op][from:to]...)
	}
	return out
}

// Scale returns a copy with every rate multiplied by f. The paper's
// replayer scales rates to half so the test file system is not the
// bottleneck (§IV).
func (t *Trace) Scale(f float64) *Trace {
	out := NewTrace(t.SampleInterval, t.Ops...)
	for _, op := range t.Ops {
		scaled := make([]float64, len(t.Rates[op]))
		for i, v := range t.Rates[op] {
			scaled[i] = v * f
		}
		out.Rates[op] = scaled
	}
	return out
}

// Filter returns a copy containing only the listed ops.
func (t *Trace) Filter(ops ...posix.Op) *Trace {
	out := NewTrace(t.SampleInterval, ops...)
	n := t.Len()
	for _, op := range ops {
		if src, ok := t.Rates[op]; ok {
			out.Rates[op] = append([]float64(nil), src...)
		} else {
			out.Rates[op] = make([]float64, n)
		}
	}
	return out
}

// Append adds one sample across all ops; rates lists values in the same
// order as t.Ops.
func (t *Trace) Append(rates ...float64) error {
	if len(rates) != len(t.Ops) {
		return fmt.Errorf("trace: got %d rates for %d ops", len(rates), len(t.Ops))
	}
	for i, op := range t.Ops {
		t.Rates[op] = append(t.Rates[op], rates[i])
	}
	return nil
}

// Stats summarizes a trace the way §II-A summarizes PFS_A.
type Stats struct {
	// Samples is the number of sample windows.
	Samples int
	// MeanTotal is the mean aggregate rate (ops/s).
	MeanTotal float64
	// PeakTotal is the maximum aggregate rate.
	PeakTotal float64
	// MinTotal is the minimum aggregate rate.
	MinTotal float64
	// PerOpMean maps each op to its mean rate.
	PerOpMean map[posix.Op]float64
	// PerOpTotal maps each op to its total operation count.
	PerOpTotal map[posix.Op]float64
	// TotalOps is the total operation count over the trace.
	TotalOps float64
	// TopShare(n) fractions are derived from PerOpTotal; Top4Share is
	// precomputed because the paper reports it (98%).
	Top4Share float64
	// SustainedOver400K is the longest run, in samples, with aggregate
	// rate above 400 KOps/s.
	SustainedOver400K int
	// FracOver400K is the fraction of samples above 400 KOps/s.
	FracOver400K float64
}

// Analyze computes summary statistics.
func Analyze(t *Trace) Stats {
	n := t.Len()
	st := Stats{
		Samples:    n,
		PerOpMean:  make(map[posix.Op]float64, len(t.Ops)),
		PerOpTotal: make(map[posix.Op]float64, len(t.Ops)),
		MinTotal:   0,
	}
	if n == 0 {
		return st
	}
	secs := t.SampleInterval.Seconds()
	totals := make([]float64, n)
	for _, op := range t.Ops {
		var sum float64
		for i, v := range t.Rates[op] {
			totals[i] += v
			sum += v
		}
		st.PerOpMean[op] = sum / float64(n)
		st.PerOpTotal[op] = sum * secs
		st.TotalOps += sum * secs
	}
	st.MinTotal = totals[0]
	var sumTotal float64
	var run int
	for _, v := range totals {
		sumTotal += v
		if v > st.PeakTotal {
			st.PeakTotal = v
		}
		if v < st.MinTotal {
			st.MinTotal = v
		}
		if v > 400_000 {
			run++
			if run > st.SustainedOver400K {
				st.SustainedOver400K = run
			}
			st.FracOver400K++
		} else {
			run = 0
		}
	}
	st.MeanTotal = sumTotal / float64(n)
	st.FracOver400K /= float64(n)

	// Top-4 share by total count.
	counts := make([]float64, 0, len(t.Ops))
	for _, op := range t.Ops {
		counts = append(counts, st.PerOpTotal[op])
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(counts)))
	var top4 float64
	for i := 0; i < len(counts) && i < 4; i++ {
		top4 += counts[i]
	}
	if st.TotalOps > 0 {
		st.Top4Share = top4 / st.TotalOps
	}
	return st
}

// ---- CSV (de)serialization ----

// WriteCSV writes the trace as CSV: header "interval_seconds,op1,op2,...",
// then one row of rates per sample.
func (t *Trace) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%g", t.SampleInterval.Seconds())
	for _, op := range t.Ops {
		fmt.Fprintf(bw, ",%s", op)
	}
	fmt.Fprintln(bw)
	for i := 0; i < t.Len(); i++ {
		for j, op := range t.Ops {
			if j > 0 {
				bw.WriteByte(',')
			}
			fmt.Fprintf(bw, "%.3f", t.Rates[op][i])
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// ReadCSV parses a trace written by WriteCSV.
func ReadCSV(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("trace: empty input")
	}
	header := strings.Split(strings.TrimSpace(sc.Text()), ",")
	if len(header) < 2 {
		return nil, fmt.Errorf("trace: malformed header %q", sc.Text())
	}
	secs, err := strconv.ParseFloat(header[0], 64)
	// Guard against ParseFloat's NaN/Inf spellings: NaN compares false
	// with everything, so `secs <= 0` alone would let it through.
	if err != nil || secs <= 0 || math.IsNaN(secs) || math.IsInf(secs, 0) {
		return nil, fmt.Errorf("trace: bad interval %q", header[0])
	}
	interval := time.Duration(secs * float64(time.Second))
	// Sub-nanosecond intervals truncate to zero; intervals beyond the
	// Duration range overflow negative. Both are unusable.
	if interval <= 0 {
		return nil, fmt.Errorf("trace: interval %q out of range", header[0])
	}
	ops := make([]posix.Op, 0, len(header)-1)
	seen := make(map[posix.Op]bool, len(header)-1)
	for _, name := range header[1:] {
		op, err := posix.ParseOp(name)
		if err != nil {
			return nil, err
		}
		// A repeated column would alias one rate series from two
		// columns and silently corrupt Append/Len bookkeeping.
		if seen[op] {
			return nil, fmt.Errorf("trace: duplicate op column %q", name)
		}
		seen[op] = true
		ops = append(ops, op)
	}
	t := NewTrace(interval, ops...)
	line := 1
	for sc.Scan() {
		line++
		row := strings.TrimSpace(sc.Text())
		if row == "" {
			continue
		}
		fields := strings.Split(row, ",")
		if len(fields) != len(ops) {
			return nil, fmt.Errorf("trace: line %d has %d fields, want %d", line, len(fields), len(ops))
		}
		rates := make([]float64, len(fields))
		for i, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil || v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("trace: line %d: bad rate %q", line, f)
			}
			rates[i] = v
		}
		if err := t.Append(rates...); err != nil {
			return nil, err
		}
	}
	return t, sc.Err()
}
