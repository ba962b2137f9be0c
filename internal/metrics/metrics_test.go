package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"padll/internal/clock"
)

var epoch = time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC)

func TestSeriesStats(t *testing.T) {
	s := NewSeries("x")
	for i, v := range []float64{1, 2, 3, 4, 5} {
		s.Append(epoch.Add(time.Duration(i)*time.Second), v)
	}
	if got := s.Mean(); got != 3 {
		t.Errorf("Mean = %v, want 3", got)
	}
	if got := s.Max(); got != 5 {
		t.Errorf("Max = %v, want 5", got)
	}
	if got := s.Min(); got != 1 {
		t.Errorf("Min = %v, want 1", got)
	}
}

func TestSeriesEmptyStats(t *testing.T) {
	s := NewSeries("empty")
	if s.Mean() != 0 || s.Max() != 0 || s.Min() != 0 || s.Percentile(50) != 0 {
		t.Error("empty series statistics must all be zero")
	}
}

func TestSeriesPercentile(t *testing.T) {
	s := NewSeries("p")
	for i := 1; i <= 100; i++ {
		s.Append(epoch, float64(i))
	}
	cases := []struct{ p, want float64 }{{0, 1}, {50, 50}, {95, 95}, {100, 100}}
	for _, c := range cases {
		if got := s.Percentile(c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestSeriesFractionAbove(t *testing.T) {
	s := NewSeries("r")
	for _, v := range []float64{1, 5, 5, 5, 1, 5, 5, 1} {
		s.Append(epoch, v)
	}
	if got := s.FractionAbove(4); math.Abs(got-5.0/8) > 1e-12 {
		t.Errorf("FractionAbove = %v, want 0.625", got)
	}
}

func TestSeriesCSV(t *testing.T) {
	s := NewSeries("ops")
	s.Append(epoch, 10)
	s.Append(epoch.Add(time.Minute), 20)
	csv := s.CSV()
	if !strings.HasPrefix(csv, "t_seconds,ops\n0,10.000\n60,20.000\n") {
		t.Errorf("unexpected CSV:\n%s", csv)
	}
}

func TestMergeCSV(t *testing.T) {
	a := NewSeries("a")
	b := NewSeries("b")
	a.Append(epoch, 1)
	a.Append(epoch.Add(time.Second), 2)
	b.Append(epoch, 3)
	csv := MergeCSV(a, b)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if lines[0] != "t_seconds,a,b" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3: %v", len(lines), lines)
	}
	if lines[2] != "1,2.000," {
		t.Errorf("row with missing cell = %q, want %q", lines[2], "1,2.000,")
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(vals []float64, pa, pb uint8) bool {
		s := NewSeries("q")
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			s.Append(epoch, v)
		}
		a, b := float64(pa%101), float64(pb%101)
		if a > b {
			a, b = b, a
		}
		return s.Percentile(a) <= s.Percentile(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRateCounterWindows(t *testing.T) {
	clk := clock.NewSim(epoch)
	rc := NewRateCounter("meta", clk, time.Second)
	rc.Add(100)
	clk.Advance(time.Second)
	rc.Add(200)
	clk.Advance(time.Second)
	rc.Add(0) // force roll
	s := rc.Flush()
	if s.Len() != 2 {
		t.Fatalf("got %d windows, want 2", s.Len())
	}
	if s.Points[0].Value != 100 || s.Points[1].Value != 200 {
		t.Errorf("window rates = %v,%v; want 100,200", s.Points[0].Value, s.Points[1].Value)
	}
}

func TestRateCounterIdleWindowsAreSampled(t *testing.T) {
	clk := clock.NewSim(epoch)
	rc := NewRateCounter("meta", clk, time.Second)
	rc.Add(10)
	clk.Advance(3 * time.Second)
	s := rc.Flush()
	if s.Len() != 3 {
		t.Fatalf("got %d windows, want 3 (idle windows must appear)", s.Len())
	}
	if s.Points[1].Value != 0 || s.Points[2].Value != 0 {
		t.Errorf("idle windows = %v,%v; want 0,0", s.Points[1].Value, s.Points[2].Value)
	}
}

func TestRateCounterTotal(t *testing.T) {
	clk := clock.NewSim(epoch)
	rc := NewRateCounter("x", clk, time.Second)
	rc.Add(50)
	clk.Advance(1500 * time.Millisecond)
	rc.Add(25)
	if got := rc.Total(); got != 75 {
		t.Errorf("Total = %d, want 75 (a closed window's 50 plus the open window's 25)", got)
	}
}

func TestRateCounterFlushIncludesPartialWindow(t *testing.T) {
	clk := clock.NewSim(epoch)
	rc := NewRateCounter("x", clk, time.Minute)
	rc.Add(60)
	clk.Advance(30 * time.Second)
	s := rc.Flush()
	if s.Len() != 1 {
		t.Fatalf("got %d samples after flush, want 1", s.Len())
	}
	if got := s.Points[0].Value; math.Abs(got-2) > 1e-9 {
		t.Errorf("flushed rate = %v, want 2 ops/s", got)
	}
}

func TestRateCounterMaxSamples(t *testing.T) {
	clk := clock.NewSim(epoch)
	rc := NewRateCounter("x", clk, time.Second)
	rc.SetMaxSamples(5)
	for i := 0; i < 1000; i++ {
		rc.Add(int64(i))
		clk.Advance(time.Second)
	}
	s := rc.Flush()
	if s.Len() != 5 || s.Points[4].Value != 999 {
		t.Errorf("series = %v, want the last 5 windows ending in 999", s.Values())
	}
	// The trim copies down, so the series settles in the first backing
	// array that holds bound+1 points instead of sliding through arrays.
	if c := cap(rc.series.Points); c > 8 {
		t.Errorf("bounded series sits in a %d-point backing array, want <= 8", c)
	}
}

func TestRateCounterLastWindowRate(t *testing.T) {
	clk := clock.NewSim(epoch)
	rc := NewRateCounter("x", clk, time.Second)
	if _, rate, _ := rc.CollectAt(clk.Now()); rate != 0 {
		t.Errorf("last window rate on a fresh counter = %v, want 0", rate)
	}
	rc.Add(42)
	clk.Advance(time.Second)
	if _, rate, _ := rc.CollectAt(clk.Now()); rate != 42 {
		t.Errorf("last window rate = %v, want 42", rate)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewLatencyHistogram()
	for _, d := range []time.Duration{time.Microsecond, 10 * time.Microsecond, time.Millisecond} {
		h.Observe(d)
	}
	if h.Count() != 3 {
		t.Errorf("Count = %d, want 3", h.Count())
	}
	if h.Min() != time.Microsecond.Seconds() {
		t.Errorf("Min = %v", h.Min())
	}
	if h.Max() != time.Millisecond.Seconds() {
		t.Errorf("Max = %v", h.Max())
	}
	wantMean := (1e-6 + 10e-6 + 1e-3) / 3
	if math.Abs(h.Mean()-wantMean) > 1e-12 {
		t.Errorf("Mean = %v, want %v", h.Mean(), wantMean)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewLatencyHistogram()
	if h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Error("empty histogram statistics must be zero")
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	h := NewLatencyHistogram()
	for i := 0; i < 1000; i++ {
		h.Observe(time.Millisecond)
	}
	q := h.Quantile(0.99)
	// 1ms falls in bucket with upper bound >= 1ms and < 2x the next bound.
	if q < 1e-3 || q > 4e-3 {
		t.Errorf("Quantile(0.99) = %v, want within [1ms, 4ms]", q)
	}
	if h.Quantile(0) != h.Min() || h.Quantile(1) != h.Max() {
		t.Error("Quantile(0)/Quantile(1) should return min/max")
	}
}

func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	h := NewLatencyHistogram()
	for i := 1; i <= 200; i++ {
		h.ObserveSeconds(float64(i) * 1e-5)
	}
	f := func(qa, qb uint16) bool {
		a := float64(qa%1001) / 1000
		b := float64(qb%1001) / 1000
		if a > b {
			a, b = b, a
		}
		return h.Quantile(a) <= h.Quantile(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
