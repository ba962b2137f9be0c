// Command padll-benchfmt renders a `go test -json` benchmark event
// stream back into human-readable text. `make bench` pipes through it so
// the raw JSON can be captured (BENCH_stage.json, BENCH_control.json)
// for machine diffing while the terminal still shows the familiar
// benchmark table.
//
// With -diff it also compares the fresh stream against a committed
// baseline capture and exits non-zero when ns/op, allocs/op or
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
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// event is the subset of test2json's record that matters here.
type event struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Output  string `json:"Output"`
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
func gateRatios(specs []ratioSpec, fresh map[string]map[string]float64) (int, error) {
	exceeded := 0
	for _, sp := range specs {
		num, okN := fresh[sp.num]
		den, okD := fresh[sp.den]
		if !okN || !okD || den["ns/op"] == 0 {
			return 0, fmt.Errorf("ratio %s/%s: benchmark missing from this run", sp.num, sp.den)
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
// benchmark table to out, copying the raw stream to raw (nil to skip),
// and recording parsed results into results (nil to skip). Returns the
// number of benchmark results seen.
func render(in io.Reader, out, raw io.Writer, results map[string]map[string]float64) (int, error) {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	benches := 0
	pending := "" // benchmark name emitted without its result line yet
	record := func(line string) {
		benches++
		if results == nil {
			return
		}
		name, metrics, ok := parseBenchLine(line)
		if !ok {
			return
		}
		// With -count=N each benchmark reports N times; keep the fastest
		// run. Scheduler contention only ever inflates ns/op, so the
		// minimum is the best estimate of true cost — and what makes
		// -diff stable enough to gate CI on a busy machine. The slowest
		// sample rides along under nsMaxKey so diff can see the
		// in-window spread.
		slowest := metrics["ns/op"]
		if prev, seen := results[name]; seen {
			if prev[nsMaxKey] > slowest {
				slowest = prev[nsMaxKey]
			}
			if prev["ns/op"] <= metrics["ns/op"] {
				prev[nsMaxKey] = slowest
				return
			}
		}
		metrics[nsMaxKey] = slowest
		results[name] = metrics
	}
	for sc.Scan() {
		line := sc.Bytes()
		if raw != nil {
			// Stream copy errors (disk full) surface at Close.
			_, _ = raw.Write(line)
			_, _ = raw.Write([]byte{'\n'})
		}
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
			record(whole)
			continue
		}
		outLine := strings.TrimRight(ev.Output, "\n")
		switch {
		case strings.HasPrefix(outLine, "Benchmark") && !strings.HasSuffix(ev.Output, "\n"):
			pending = outLine
		case strings.HasPrefix(outLine, "Benchmark") && strings.Contains(outLine, "ns/op"):
			record(outLine)
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

// diff compares fresh results against a baseline capture and reports
// per-benchmark deltas on the guarded units. Returns the number of
// regressions beyond tolerance; nsTolerance applies to ns/op only, so
// wall-clock suites can run a loose timing tripwire while allocs/op
// and wireB/round stay strictly gated.
func diff(basePath string, fresh map[string]map[string]float64, tolerance, nsTolerance float64) (int, error) {
	f, err := os.Open(basePath)
	if err != nil {
		return 0, err
	}
	// Read-only baseline: a close error has nothing to report.
	defer func() { _ = f.Close() }()
	base := map[string]map[string]float64{}
	if _, err := render(f, io.Discard, nil, base); err != nil {
		return 0, err
	}

	fmt.Printf("\ndiff vs %s (tolerance %.0f%%, ns/op %.0f%%):\n", basePath, tolerance*100, nsTolerance*100)
	regressions, compared := 0, 0
	for name, baseM := range base {
		freshM, ok := fresh[name]
		if !ok {
			continue // baseline benchmark not in this run (different package set)
		}
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

func run() (code int) {
	rawPath := flag.String("raw", "", "also copy the raw input stream to this file (replaces `| tee`)")
	diffPath := flag.String("diff", "", "compare against this baseline `go test -json` capture; exit non-zero on regression")
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

	var raw io.Writer
	if *rawPath != "" {
		f, err := os.Create(*rawPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "padll-benchfmt:", err)
			return 1
		}
		w := bufio.NewWriter(f)
		defer func() {
			// Flush-then-close: a full disk surfaces here, not silently.
			err := w.Flush()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "padll-benchfmt:", err)
				code = 1
			}
		}()
		raw = w
	}

	var fresh map[string]map[string]float64
	if *diffPath != "" {
		fresh = map[string]map[string]float64{}
	}
	benches, err := render(os.Stdin, os.Stdout, raw, fresh)
	if err != nil {
		fmt.Fprintln(os.Stderr, "padll-benchfmt:", err)
		return 1
	}
	fmt.Printf("\n%d benchmark results\n", benches)

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
