// Package metrics provides the measurement substrate for PADLL: windowed
// throughput counters (the statistics data-plane stages report to the
// control plane), time series with summary statistics (the material the
// paper's figures are drawn from), and latency histograms.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Point is one sample of a time series: a value observed over the sample
// window ending at T.
type Point struct {
	T     time.Time
	Value float64
}

// Series is an append-only time series, e.g. "ops/s sampled every minute".
type Series struct {
	Name   string
	Points []Point
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Append adds a sample to the series.
func (s *Series) Append(t time.Time, v float64) {
	s.Points = append(s.Points, Point{T: t, Value: v})
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Points) }

// Values returns the sample values in order.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.Value
	}
	return out
}

// Mean returns the arithmetic mean of the sample values (0 when empty).
func (s *Series) Mean() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	var sum float64
	for _, p := range s.Points {
		sum += p.Value
	}
	return sum / float64(len(s.Points))
}

// Max returns the maximum sample value (0 when empty).
func (s *Series) Max() float64 {
	var m float64
	for _, p := range s.Points {
		if p.Value > m {
			m = p.Value
		}
	}
	return m
}

// Min returns the minimum sample value (0 when empty).
func (s *Series) Min() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	m := s.Points[0].Value
	for _, p := range s.Points[1:] {
		if p.Value < m {
			m = p.Value
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) of the sample
// values using nearest-rank on the sorted values.
func (s *Series) Percentile(p float64) float64 {
	n := len(s.Points)
	if n == 0 {
		return 0
	}
	vals := s.Values()
	sort.Float64s(vals)
	if p <= 0 {
		return vals[0]
	}
	if p >= 100 {
		return vals[n-1]
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return vals[rank-1]
}

// FractionAbove returns the fraction of samples strictly above threshold.
func (s *Series) FractionAbove(threshold float64) float64 {
	if len(s.Points) == 0 {
		return 0
	}
	var n int
	for _, p := range s.Points {
		if p.Value > threshold {
			n++
		}
	}
	return float64(n) / float64(len(s.Points))
}

// CSV renders the series as "t_seconds,value" rows relative to the first
// sample's timestamp. The header row names the series.
func (s *Series) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t_seconds,%s\n", s.Name)
	if len(s.Points) == 0 {
		return b.String()
	}
	t0 := s.Points[0].T
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%.0f,%.3f\n", p.T.Sub(t0).Seconds(), p.Value)
	}
	return b.String()
}

// MergeCSV renders several series that share a sampling grid as one CSV
// table. Series may have different lengths; missing cells are empty.
func MergeCSV(series ...*Series) string {
	var b strings.Builder
	b.WriteString("t_seconds")
	maxLen := 0
	for _, s := range series {
		fmt.Fprintf(&b, ",%s", s.Name)
		if s.Len() > maxLen {
			maxLen = s.Len()
		}
	}
	b.WriteByte('\n')
	if maxLen == 0 {
		return b.String()
	}
	var t0 time.Time
	for _, s := range series {
		if s.Len() > 0 {
			t0 = s.Points[0].T
			break
		}
	}
	for i := 0; i < maxLen; i++ {
		wrote := false
		for _, s := range series {
			if i < s.Len() {
				if !wrote {
					fmt.Fprintf(&b, "%.0f", s.Points[i].T.Sub(t0).Seconds())
					wrote = true
				}
				break
			}
		}
		if !wrote {
			fmt.Fprintf(&b, "%d", i)
		}
		for _, s := range series {
			if i < s.Len() {
				fmt.Fprintf(&b, ",%.3f", s.Points[i].Value)
			} else {
				b.WriteByte(',')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
