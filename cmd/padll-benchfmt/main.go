// Command padll-benchfmt renders a `go test -json` benchmark event
// stream back into human-readable text. `make bench` pipes through it so
// the terminal still shows the familiar benchmark table while -raw keeps
// a summary of the run (BENCH_stage.json, BENCH_control.json) for machine
// diffing: one record per benchmark, keyed by package and name, holding
// the fastest and the slowest ns/op of its -count samples and the fastest
// sample's other units (allocs/op, B/op, wireB/round, ...).
//
// With -diff it also compares the fresh stream against a committed
// baseline summary and exits non-zero when ns/op, allocs/op or
// wireB/round regress beyond the tolerance (-ns-tolerance loosens the
// wall-clock unit independently of the deterministic ones), and -ratio
// additionally gates same-run ns/op quotients — e.g. bridged vs direct
// walk cost — which host-speed drift cancels out of. This is how
// `make ci` locks in the wire-protocol and alloc-free hot-path wins.
//
// Usage:
//
//	go test -run='^$' -bench=. -json ./... | padll-benchfmt
//	go test -run='^$' -bench=. -json ./... | padll-benchfmt -raw BENCH_control.json
//	go test -run='^$' -bench=. -json ./... | padll-benchfmt -diff BENCH_control.json
//	go test -run='^$' -bench=. -json ./... | padll-benchfmt -diff BENCH_stage.json \
//	    -ns-tolerance 0.5 -ratio 'BenchmarkOSBridgeStat-4/BenchmarkOSDirectStat-4<=1.6'
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// event is the subset of test2json's record that matters here.
type event struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Output  string `json:"Output"`
}

// benchKey names one benchmark: the same function name in two packages is
// two benchmarks.
type benchKey struct{ pkg, name string }

// results holds one summary per benchmark: the fastest sample's
// measurements by unit, plus the slowest sample's ns/op under nsMaxKey.
type results map[benchKey]map[string]float64

// byName finds the one benchmark called name, whatever its package.
func (r results) byName(name string) (map[string]float64, bool) {
	var found map[string]float64
	for k, m := range r {
		if k.name != name {
			continue
		}
		if found != nil {
			return nil, false // ambiguous: a gate must name one benchmark
		}
		found = m
	}
	return found, found != nil
}

// record is one benchmark of a summary file.
type record struct {
	Pkg   string             `json:"pkg"`
	Name  string             `json:"name"`
	Units map[string]float64 `json:"units"`
}

// writeSummary stores r at path, one record per line in package and name
// order, so two captures of the same suite diff line against line.
func writeSummary(path string, r results) error {
	keys := make([]benchKey, 0, len(r))
	for k := range r {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pkg != keys[j].pkg {
			return keys[i].pkg < keys[j].pkg
		}
		return keys[i].name < keys[j].name
	})
	var b bytes.Buffer
	b.WriteString("[\n")
	for i, k := range keys {
		line, err := json.Marshal(record{k.pkg, k.name, r[k]})
		if err != nil {
			return err
		}
		b.Write(line)
		if i < len(keys)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// readSummary loads a summary writeSummary stored.
func readSummary(path string) (results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: not a benchmark summary: %w", path, err)
	}
	r := make(results, len(recs))
	for _, rec := range recs {
		r[benchKey{rec.Pkg, rec.Name}] = rec.Units
	}
	return r, nil
}

// diffUnits are the measurements -diff guards. ns/op is the round
// latency win; wireB/round is the codec's bytes-on-the-wire win;
// allocs/op locks in the alloc-free request path (it is deterministic,
// so even a one-allocation regression on a small count trips the
// gate). The rest (B/op, rpcs/round) stay informational: they are
// covered transitively or legitimately change shape.
var diffUnits = []string{"ns/op", "wireB/round", "allocs/op"}

// nsNoiseFloor widens the ns/op tolerance to an absolute slack of this
// many nanoseconds: on single-digit-ns benchmarks, timer granularity
// and frequency scaling routinely move the minimum-of-N estimate by
// 1-3 ns, which is far past 15% relative but meaningless. Any real
// regression on those paths (an allocation, a lock) costs tens of ns
// and still trips the gate; benchmarks slower than ~67 ns are
// unaffected because 15% of them already exceeds the floor.
const nsNoiseFloor = 10.0

// nsMaxKey is the synthetic unit under which render records the
// SLOWEST ns/op sample of a -count=N repetition, alongside the fastest
// one the gate compares. The in-window spread between them is the
// benchmark's own measured run-to-run variance, and diff refuses to
// gate ns/op tighter than that: the fleet benchmarks measure
// wall-clock rounds over live sockets, where scheduler steal on a
// shared box moves even a minimum-of-three by more than 15% — a fixed
// relative gate there is noise, not signal. CPU-bound hot-path
// benchmarks have near-zero spread and stay tightly gated, as do the
// deterministic allocs/op and wireB/round units.
const nsMaxKey = "ns/op.max"

// nsSpread is a measurement's observed in-window variance: the
// fractional gap between its slowest and fastest -count=N samples.
func nsSpread(m map[string]float64) float64 {
	mx, ok := m[nsMaxKey]
	if !ok || m["ns/op"] == 0 {
		return 0
	}
	return (mx - m["ns/op"]) / m["ns/op"]
}

// ratioSpec is one same-run ratio gate: the fresh run's ns/op for num
// divided by its ns/op for den must stay at or below limit. Both sides
// come from the same capture window, so the gate is immune to the
// cross-window host-speed drift that makes absolute ns/op comparisons
// loose — it pins relative claims like "the bridged walk costs at most
// K× the direct one" tightly even on a noisy box. A limit of "inf"
// reports the quotient without gating it: the number stays in front of
// whoever reads the gate's output until someone can put a bound on it.
type ratioSpec struct {
	num, den string
	limit    float64
}

// parseRatios parses a comma-separated list of "num/den<=limit" specs.
func parseRatios(s string) ([]ratioSpec, error) {
	if s == "" {
		return nil, nil
	}
	var specs []ratioSpec
	for _, part := range strings.Split(s, ",") {
		names, limitStr, ok := strings.Cut(part, "<=")
		if !ok {
			return nil, fmt.Errorf("ratio %q: want num/den<=limit", part)
		}
		num, den, ok := strings.Cut(names, "/")
		if !ok || strings.TrimSpace(num) == "" || strings.TrimSpace(den) == "" {
			return nil, fmt.Errorf("ratio %q: want num/den<=limit", part)
		}
		limit, err := strconv.ParseFloat(strings.TrimSpace(limitStr), 64)
		if err != nil || limit <= 0 {
			return nil, fmt.Errorf("ratio %q: bad limit %q", part, limitStr)
		}
		specs = append(specs, ratioSpec{strings.TrimSpace(num), strings.TrimSpace(den), limit})
	}
	return specs, nil
}

// gateRatios checks each spec against the fresh results and returns
// the number of exceeded limits. A missing benchmark is an error, not
// a silent pass: a renamed benchmark must not dissolve its gate.
func gateRatios(specs []ratioSpec, fresh results) (int, error) {
	exceeded := 0
	for _, sp := range specs {
		num, okN := fresh.byName(sp.num)
		den, okD := fresh.byName(sp.den)
		if !okN || !okD || den["ns/op"] == 0 {
			return 0, fmt.Errorf("ratio %s/%s: benchmark missing from this run (or in two packages)", sp.num, sp.den)
		}
		r := num["ns/op"] / den["ns/op"]
		if math.IsInf(sp.limit, 1) {
			fmt.Printf("  ratio %s / %s = %.2fx (reported, not gated)\n", sp.num, sp.den, r)
			continue
		}
		verdict := "ok"
		if r > sp.limit {
			verdict = "EXCEEDED"
			exceeded++
		}
		fmt.Printf("  ratio %s / %s = %.2fx (limit %.2fx)  %s\n", sp.num, sp.den, r, sp.limit, verdict)
	}
	return exceeded, nil
}

// parseBenchLine splits a complete benchmark result line into its name
// and unit measurements: "BenchmarkX  1065  3607304 ns/op  5376 wireB/round ..."
func parseBenchLine(line string) (string, map[string]float64, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", nil, false
	}
	metrics := map[string]float64{}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", nil, false
		}
		metrics[fields[i+1]] = v
	}
	if _, ok := metrics["ns/op"]; !ok {
		return "", nil, false
	}
	return fields[0], metrics, true
}

// render consumes a test2json stream, writing the human-readable
// benchmark table to out and summarizing the parsed results into sum
// (nil to skip). Returns the number of benchmark results seen.
func render(in io.Reader, out io.Writer, sum results) (int, error) {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	benches := 0
	pending := "" // benchmark name emitted without its result line yet
	record := func(pkg, line string) {
		benches++
		if sum == nil {
			return
		}
		name, metrics, ok := parseBenchLine(line)
		if !ok {
			return
		}
		key := benchKey{pkg, name}
		// With -count=N each benchmark reports N times; keep the fastest
		// run. Scheduler contention only ever inflates ns/op, so the
		// minimum is the best estimate of true cost — and what makes
		// -diff stable enough to gate CI on a busy machine. The slowest
		// sample rides along under nsMaxKey so diff can see the
		// in-window spread.
		slowest := metrics["ns/op"]
		if prev, seen := sum[key]; seen {
			if prev[nsMaxKey] > slowest {
				slowest = prev[nsMaxKey]
			}
			if prev["ns/op"] <= metrics["ns/op"] {
				prev[nsMaxKey] = slowest
				return
			}
		}
		metrics[nsMaxKey] = slowest
		sum[key] = metrics
	}
	for sc.Scan() {
		line := sc.Bytes()
		var ev event
		if err := json.Unmarshal(line, &ev); err != nil {
			// Pass non-JSON lines through untouched so plain-text input
			// (or interleaved tool noise) is never swallowed.
			fmt.Fprintln(out, string(line))
			continue
		}
		if ev.Action != "output" {
			continue
		}
		// test2json splits a benchmark result into two events: the name
		// (no trailing newline) and then the measurements. Stitch them.
		if pending != "" {
			whole := pending + strings.TrimRight(ev.Output, "\n")
			fmt.Fprintln(out, whole)
			pending = ""
			record(ev.Package, whole)
			continue
		}
		outLine := strings.TrimRight(ev.Output, "\n")
		switch {
		case strings.HasPrefix(outLine, "Benchmark") && !strings.HasSuffix(ev.Output, "\n"):
			pending = outLine
		case strings.HasPrefix(outLine, "Benchmark") && strings.Contains(outLine, "ns/op"):
			record(ev.Package, outLine)
			fmt.Fprintln(out, outLine)
		case strings.HasPrefix(outLine, "Benchmark"):
			// Bare RUN line (no measurements attached) — skip.
		case strings.HasPrefix(outLine, "goos:"),
			strings.HasPrefix(outLine, "goarch:"),
			strings.HasPrefix(outLine, "pkg:"),
			strings.HasPrefix(outLine, "cpu:"),
			strings.HasPrefix(outLine, "ok "),
			strings.HasPrefix(outLine, "FAIL"),
			strings.HasPrefix(outLine, "--- FAIL"),
			strings.HasPrefix(outLine, "panic:"):
			fmt.Fprintln(out, outLine)
		}
	}
	return benches, sc.Err()
}

// diff compares fresh results against a baseline summary and reports
// per-benchmark deltas on the guarded units. Returns the number of
// regressions beyond tolerance; nsTolerance applies to ns/op only, so
// wall-clock suites can run a loose timing tripwire while allocs/op
// and wireB/round stay strictly gated.
func diff(basePath string, fresh results, tolerance, nsTolerance float64) (int, error) {
	base, err := readSummary(basePath)
	if err != nil {
		return 0, err
	}

	fmt.Printf("\ndiff vs %s (tolerance %.0f%%, ns/op %.0f%%):\n", basePath, tolerance*100, nsTolerance*100)
	regressions, compared := 0, 0
	for key, baseM := range base {
		freshM, ok := fresh[key]
		if !ok {
			continue // baseline benchmark not in this run (different package set)
		}
		name := key.name
		for _, unit := range diffUnits {
			b, okB := baseM[unit]
			fr, okF := freshM[unit]
			if !okB || !okF {
				continue
			}
			if b == 0 {
				// No ratio against zero. A deterministic unit that was
				// zero is a contract (an allocation-free path): any
				// count at all breaks it. A zero ns/op is no measurement.
				if unit != "ns/op" && fr > 0 {
					compared++
					regressions++
					fmt.Printf("  %-44s %-12s %14.0f -> %-14.0f %8s  REGRESSED\n", name, unit, b, fr, "")
				}
				continue
			}
			compared++
			delta := (fr - b) / b
			allowed := tolerance
			if unit == "ns/op" {
				allowed = nsTolerance
				if nsNoiseFloor/b > allowed {
					allowed = nsNoiseFloor / b
				}
				// A benchmark cannot be gated tighter than its own
				// run-to-run variance in either capture window.
				if s := nsSpread(baseM); s > allowed {
					allowed = s
				}
				if s := nsSpread(freshM); s > allowed {
					allowed = s
				}
			}
			verdict := "ok"
			if delta > allowed {
				verdict = "REGRESSED"
				regressions++
			}
			fmt.Printf("  %-44s %-12s %14.0f -> %-14.0f %+7.1f%%  %s\n",
				name, unit, b, fr, delta*100, verdict)
		}
	}
	if compared == 0 {
		return 0, fmt.Errorf("no comparable benchmarks between this run and %s", basePath)
	}
	fmt.Printf("%d measurements compared, %d regressed\n", compared, regressions)
	return regressions, nil
}

func main() {
	os.Exit(run())
}

func run() int {
	rawPath := flag.String("raw", "", "also write the run's per-benchmark summary to this `file` (the baseline -diff reads)")
	diffPath := flag.String("diff", "", "compare against this baseline summary `file`; exit non-zero on regression")
	tolerance := flag.Float64("tolerance", 0.15, "allowed fractional regression per measurement in -diff mode")
	nsTolerance := flag.Float64("ns-tolerance", 0, "allowed fractional ns/op regression in -diff mode (0 = same as -tolerance); loosen for wall-clock suites without loosening the deterministic units")
	ratios := flag.String("ratio", "", "comma-separated same-run ratio gates `numBench/denBench<=limit` on ns/op, checked against the fresh results in -diff mode")
	flag.Parse()
	if *nsTolerance == 0 {
		*nsTolerance = *tolerance
	}
	ratioSpecs, err := parseRatios(*ratios)
	if err != nil {
		fmt.Fprintln(os.Stderr, "padll-benchfmt:", err)
		return 2
	}

	var fresh results
	if *rawPath != "" || *diffPath != "" {
		fresh = results{}
	}
	benches, err := render(os.Stdin, os.Stdout, fresh)
	if err != nil {
		fmt.Fprintln(os.Stderr, "padll-benchfmt:", err)
		return 1
	}
	fmt.Printf("\n%d benchmark results\n", benches)
	if *rawPath != "" {
		if err := writeSummary(*rawPath, fresh); err != nil {
			fmt.Fprintln(os.Stderr, "padll-benchfmt:", err)
			return 1
		}
	}

	if *diffPath != "" {
		regressions, err := diff(*diffPath, fresh, *tolerance, *nsTolerance)
		if err != nil {
			fmt.Fprintln(os.Stderr, "padll-benchfmt:", err)
			return 1
		}
		if len(ratioSpecs) > 0 {
			fmt.Printf("\nsame-run ratio gates:\n")
			exceeded, err := gateRatios(ratioSpecs, fresh)
			if err != nil {
				fmt.Fprintln(os.Stderr, "padll-benchfmt:", err)
				return 1
			}
			regressions += exceeded
		}
		if regressions > 0 {
			fmt.Fprintf(os.Stderr, "padll-benchfmt: %d benchmark measurements regressed beyond their gates\n", regressions)
			return 1
		}
	}
	return 0
}
