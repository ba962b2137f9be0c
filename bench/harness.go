package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// The benchmark measures the program from outside, on the wall clock;
// these two helpers are its only clock reads.

func now() time.Time { return time.Now() } //lint:allow clockcheck the benchmark times the program from outside on the wall clock

func sleep(d time.Duration) { time.Sleep(d) } //lint:allow clockcheck the benchmark paces its own samplers on the wall clock

// sizes scales a workload. fullSize is what the driver measures;
// bench_test.go runs a reduced copy to check structure only.
type sizes struct {
	treeTop, treeLeaves, treeFiles int // walk: top dirs x leaf dirs x files
	churnNames                     int // churn: names cycled per worker
	jobFiles                       int // throttled: files each job stats
	fleetJobs, fleetStagesPerJob   int
	streamOps                      int           // requests replayed per ladder rung
	slice                          time.Duration // walk, churn: length of one direct or bridged slice
	setups                         int           // set-ups per run; setup_s is their median
	probeCalls                     int           // calls per control-plane probe
	tick                           time.Duration // throttled: counter sampling period
	period                         time.Duration // control period of every workload's round loop
}

var fullSize = sizes{
	treeTop: 32, treeLeaves: 32, treeFiles: 8,
	churnNames: 4096,
	jobFiles:   1024,
	fleetJobs:  16, fleetStagesPerJob: 16,
	streamOps:  65536,
	slice:      100 * time.Millisecond,
	setups:     5,
	probeCalls: 2000,
	tick:       200 * time.Millisecond,
	period:     100 * time.Millisecond,
}

// env is one run's configuration.
type env struct {
	seed    int64
	seconds float64
	trace   bool
	workers int    // W: closed-loop worker goroutines, nproc
	outDir  string // result.json and trace_*.jsonl
	dataDir string // scratch for real-directory workloads, under outDir
	size    sizes
	rec     *recorder // span sink, traced runs only
}

// outcome is what one workload run produced.
type outcome struct {
	attempted int64
	failed    int64
	problems  []string // output-correctness violations
	vals      values
}

// fail records a correctness violation worth n failed operations.
func (o *outcome) fail(n int64, format string, args ...any) {
	o.failed += n
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// ---- statistics ----

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spread is the distance between the first and third quartile as a
// share of the median, with the quartiles of Python's
// statistics.quantiles(values, n=4): the driver's repeatability figure.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sorted(xs)
	m := len(s) + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / med)
}

func durationsUs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e3
	}
	return out
}

// heap reads the process-wide allocation counters.
func heap() (mallocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

type fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	DataDirFS  string `json:"data_dir_fs"`
	Seed       int64  `json:"seed"`
}

func hostFingerprint(dataDir string, seed int64) fingerprint {
	fp := fingerprint{
		CPU:        "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		DataDirFS:  fsType(dataDir),
		Seed:       seed,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				fp.Commit = s.Value
			}
		}
	}
	return fp
}

// scratchDir makes a fresh directory for one set-up's real files.
func scratchDir(e *env, name string) (string, error) {
	if err := os.MkdirAll(e.dataDir, 0o755); err != nil {
		return "", err
	}
	spreadSubdirs(e.dataDir)
	return os.MkdirTemp(e.dataDir, name+"-")
}
