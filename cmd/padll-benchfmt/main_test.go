package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	name, m, ok := parseBenchLine("BenchmarkControllerRunOnce64         \t    1065\t   3607304 ns/op\t        64.00 rpcs/round\t      5376 wireB/round\t  480197 B/op\t    2023 allocs/op")
	if !ok {
		t.Fatal("failed to parse a canonical benchmark line")
	}
	if name != "BenchmarkControllerRunOnce64" {
		t.Errorf("name = %q", name)
	}
	for unit, want := range map[string]float64{
		"ns/op": 3607304, "rpcs/round": 64, "wireB/round": 5376, "B/op": 480197, "allocs/op": 2023,
	} {
		if m[unit] != want {
			t.Errorf("%s = %v, want %v", unit, m[unit], want)
		}
	}
	for _, bad := range []string{
		"ok  \tpadll/internal/control\t30.812s",
		"BenchmarkNoResult",
		"Benchmark only words here no numbers",
		"",
	} {
		if _, _, ok := parseBenchLine(bad); ok {
			t.Errorf("parseBenchLine accepted %q", bad)
		}
	}
}

// stream builds package pkg's test2json capture with each benchmark's
// result split across two output events, exactly as test2json emits them.
func stream(t *testing.T, pkg string, benches map[string]string) string {
	t.Helper()
	var b strings.Builder
	for name, tail := range benches {
		for _, out := range []string{name + " \t", tail + "\n"} {
			line, err := json.Marshal(event{Action: "output", Package: pkg, Output: out})
			if err != nil {
				t.Fatal(err)
			}
			b.Write(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// baselineFile writes the summary of the given results, as `-raw` would
// after rendering their stream, and returns its path.
func baselineFile(t *testing.T, benches map[string]string) string {
	t.Helper()
	sum := results{}
	if _, err := render(strings.NewReader(stream(t, "p", benches)), io.Discard, sum); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := writeSummary(path, sum); err != nil {
		t.Fatal(err)
	}
	return path
}

// key names a benchmark of package "p", where the tests' streams report from.
func key(name string) benchKey { return benchKey{"p", name} }

func TestRenderStitchesAndRecords(t *testing.T) {
	events := stream(t, "p", map[string]string{
		"BenchmarkA": "  100\t  2000 ns/op\t  512 wireB/round",
		"BenchmarkB": "  100\t  3000 ns/op",
	})
	var out strings.Builder
	got := results{}
	n, err := render(strings.NewReader(events), &out, got)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("rendered %d benchmarks, want 2", n)
	}
	if got[key("BenchmarkA")]["wireB/round"] != 512 || got[key("BenchmarkB")]["ns/op"] != 3000 {
		t.Errorf("recorded metrics wrong: %v", got)
	}
	if !strings.Contains(out.String(), "BenchmarkA \t  100\t  2000 ns/op") {
		t.Errorf("human output lost the stitched line:\n%s", out.String())
	}
}

// TestSummaryRoundTrip: what -raw stores is what -diff reads back, one
// line per benchmark in package and name order; the same name in two
// packages stays two benchmarks (and cannot anchor a ratio gate); and a
// baseline that is not a summary — an old event-stream capture — is an
// error, not an empty comparison.
func TestSummaryRoundTrip(t *testing.T) {
	both := map[string]string{
		"BenchmarkA": " 10\t 100 ns/op\t 0 allocs/op",
		"BenchmarkB": " 10\t 100 ns/op\t 0 allocs/op",
	}
	events := stream(t, "q", both) + stream(t, "p", both)
	sum := results{}
	if _, err := render(strings.NewReader(events), io.Discard, sum); err != nil {
		t.Fatal(err)
	}
	if len(sum) != 4 {
		t.Fatalf("summarized %d benchmarks, want 4 (two names in two packages)", len(sum))
	}
	if _, ok := sum.byName("BenchmarkA"); ok {
		t.Error("byName resolved a name two packages share")
	}
	path := filepath.Join(t.TempDir(), "sum.json")
	if err := writeSummary(path, sum); err != nil {
		t.Fatal(err)
	}
	back, err := readSummary(path)
	if err != nil || !reflect.DeepEqual(back, sum) {
		t.Fatalf("readSummary = %v, %v; want what was written: %v", back, err, sum)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := `[
{"pkg":"p","name":"BenchmarkA","units":{"allocs/op":0,"ns/op":100,"ns/op.max":100}},
{"pkg":"p","name":"BenchmarkB","units":{"allocs/op":0,"ns/op":100,"ns/op.max":100}},
{"pkg":"q","name":"BenchmarkA","units":{"allocs/op":0,"ns/op":100,"ns/op.max":100}},
{"pkg":"q","name":"BenchmarkB","units":{"allocs/op":0,"ns/op":100,"ns/op.max":100}}
]
`
	if string(data) != want {
		t.Errorf("summary file:\n%s\nwant:\n%s", data, want)
	}

	if err := os.WriteFile(path, []byte(events), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := diff(path, sum, 0.15, 0.15); err == nil {
		t.Error("diff against an event-stream capture passed; want an error")
	}
}

func TestRenderKeepsFastestOfRepeatedRuns(t *testing.T) {
	// -count=N repeats each benchmark; the recorded entry must be the
	// fastest run (contention noise only ever inflates ns/op).
	var b strings.Builder
	for _, tail := range []string{"  100\t  3000 ns/op\t  500 wireB/round", "  100\t  2000 ns/op\t  510 wireB/round", "  100\t  2500 ns/op\t  505 wireB/round"} {
		for _, out := range []string{"BenchmarkRepeat \t", tail + "\n"} {
			line, err := json.Marshal(event{Action: "output", Package: "p", Output: out})
			if err != nil {
				t.Fatal(err)
			}
			b.Write(line)
			b.WriteByte('\n')
		}
	}
	got := results{}
	if _, err := render(strings.NewReader(b.String()), io.Discard, got); err != nil {
		t.Fatal(err)
	}
	rep := got[key("BenchmarkRepeat")]
	if rep["ns/op"] != 2000 || rep["wireB/round"] != 510 {
		t.Errorf("recorded %v, want the fastest run (2000 ns/op, 510 wireB/round)", rep)
	}
	if rep[nsMaxKey] != 3000 {
		t.Errorf("recorded %v ns/op.max, want the slowest sample (3000) for spread gating", rep[nsMaxKey])
	}
}

func TestDiffFlagsRegressionsOnly(t *testing.T) {
	path := baselineFile(t, map[string]string{
		"BenchmarkFast":   "  100\t  1000 ns/op\t  100 wireB/round",
		"BenchmarkSteady": "  100\t  5000 ns/op\t  200 wireB/round",
		"BenchmarkGone":   "  100\t  9000 ns/op",
	})

	// Within tolerance everywhere (10% worse ns/op on Steady, big win on
	// Fast, Gone not re-run): zero regressions.
	fresh := results{
		key("BenchmarkFast"):   {"ns/op": 500, "wireB/round": 90},
		key("BenchmarkSteady"): {"ns/op": 5500, "wireB/round": 200},
		key("BenchmarkNew"):    {"ns/op": 1}, // no baseline: ignored
	}
	if n, err := diff(path, fresh, 0.15, 0.15); err != nil || n != 0 {
		t.Errorf("diff = %d regressions, err %v; want 0, nil", n, err)
	}

	// Blow the budget on one ns/op and one wireB/round.
	fresh[key("BenchmarkSteady")] = map[string]float64{"ns/op": 6000, "wireB/round": 200}
	fresh[key("BenchmarkFast")] = map[string]float64{"ns/op": 500, "wireB/round": 150}
	if n, err := diff(path, fresh, 0.15, 0.15); err != nil || n != 2 {
		t.Errorf("diff = %d regressions, err %v; want 2, nil", n, err)
	}

	// Nothing comparable must be an error, not a silent pass.
	if _, err := diff(path, results{}, 0.15, 0.15); err == nil {
		t.Error("diff with no overlap passed; want an error")
	}
}

// TestDiffZeroBaselineIsAContract: a deterministic unit whose baseline
// is zero (an allocation-free path) regresses on any count at all,
// where a ratio against zero would have skipped it.
func TestDiffZeroBaselineIsAContract(t *testing.T) {
	path := baselineFile(t, map[string]string{
		"BenchmarkFree": "  100\t  1000 ns/op\t  0 B/op\t  0 allocs/op",
	})
	fresh := results{key("BenchmarkFree"): {"ns/op": 1000, "allocs/op": 0}}
	if n, err := diff(path, fresh, 0.15, 0.15); err != nil || n != 0 {
		t.Errorf("still allocation-free: diff = %d regressions, err %v; want 0, nil", n, err)
	}
	fresh[key("BenchmarkFree")]["allocs/op"] = 1
	if n, err := diff(path, fresh, 0.15, 0.15); err != nil || n != 1 {
		t.Errorf("0 -> 1 allocs/op: diff = %d regressions, err %v; want 1, nil", n, err)
	}
}

// TestDiffNsNoiseFloor pins the absolute slack on ns/op: a sub-10ns
// wobble on a single-digit-ns benchmark is timer noise and must not
// trip the gate, while a delta past the floor still does — and the
// floor never applies to the deterministic allocs/op unit.
func TestDiffNsNoiseFloor(t *testing.T) {
	path := baselineFile(t, map[string]string{
		"BenchmarkTiny": "  100\t  8 ns/op\t  0 allocs/op",
	})

	// +30% relative but only +2.4ns absolute: inside the floor.
	fresh := results{
		key("BenchmarkTiny"): {"ns/op": 10.4, "allocs/op": 0},
	}
	if n, err := diff(path, fresh, 0.15, 0.15); err != nil || n != 0 {
		t.Errorf("diff = %d regressions, err %v; want 0 (2.4ns wobble is noise)", n, err)
	}

	// +12ns absolute: past the floor, a real slowdown.
	fresh[key("BenchmarkTiny")] = map[string]float64{"ns/op": 20, "allocs/op": 0}
	if n, err := diff(path, fresh, 0.15, 0.15); err != nil || n != 1 {
		t.Errorf("diff = %d regressions, err %v; want 1 (12ns past the floor)", n, err)
	}

	// One new allocation on a zero-alloc path must trip regardless of
	// how small the benchmark is — but a zero baseline is skipped, so
	// seed the baseline at one alloc and regress to two.
	path = baselineFile(t, map[string]string{
		"BenchmarkTiny": "  100\t  8 ns/op\t  1 allocs/op",
	})
	fresh[key("BenchmarkTiny")] = map[string]float64{"ns/op": 8, "allocs/op": 2}
	if n, err := diff(path, fresh, 0.15, 0.15); err != nil || n != 1 {
		t.Errorf("diff = %d regressions, err %v; want 1 (allocs/op has no noise floor)", n, err)
	}
}

// TestDiffSpreadWidensNsTolerance pins the variance-aware gate: a
// wall-clock benchmark whose own -count=N samples swing 30% in-window
// cannot fail on a 20% min-to-min delta, while the same delta on a
// tight-spread benchmark still trips — and spread never loosens the
// deterministic units.
func TestDiffSpreadWidensNsTolerance(t *testing.T) {
	path := baselineFile(t, map[string]string{
		"BenchmarkFleet": "  100\t  1000000 ns/op\t  200 wireB/round",
	})

	// +20% min-to-min, but the fresh samples spread 1.2M..1.56M (30%):
	// inside the benchmark's own variance, not a regression.
	fresh := results{
		key("BenchmarkFleet"): {"ns/op": 1200000, nsMaxKey: 1560000, "wireB/round": 200},
	}
	if n, err := diff(path, fresh, 0.15, 0.15); err != nil || n != 0 {
		t.Errorf("diff = %d regressions, err %v; want 0 (delta within measured spread)", n, err)
	}

	// Same +20% with a tight 2% spread: a real slowdown.
	fresh[key("BenchmarkFleet")] = map[string]float64{"ns/op": 1200000, nsMaxKey: 1224000, "wireB/round": 200}
	if n, err := diff(path, fresh, 0.15, 0.15); err != nil || n != 1 {
		t.Errorf("diff = %d regressions, err %v; want 1 (tight spread keeps the gate)", n, err)
	}

	// Spread must not excuse wireB/round: bytes on the wire are
	// deterministic whatever the scheduler does.
	fresh[key("BenchmarkFleet")] = map[string]float64{"ns/op": 1000000, nsMaxKey: 2000000, "wireB/round": 300}
	if n, err := diff(path, fresh, 0.15, 0.15); err != nil || n != 1 {
		t.Errorf("diff = %d regressions, err %v; want 1 (wire bytes gated strictly)", n, err)
	}
}

// TestRatioGates pins the same-run ratio mechanism: parse errors are
// loud, limits gate the fresh run's own ns/op quotients, and a missing
// benchmark is an error rather than a silently dissolved gate.
func TestRatioGates(t *testing.T) {
	specs, err := parseRatios("BenchA/BenchB<=1.5, BenchC/BenchB <= 2")
	if err != nil || len(specs) != 2 {
		t.Fatalf("parseRatios = %v, %v; want 2 specs", specs, err)
	}
	if specs[0] != (ratioSpec{"BenchA", "BenchB", 1.5}) {
		t.Errorf("spec[0] = %+v", specs[0])
	}
	for _, bad := range []string{"BenchA<=1.5", "BenchA/BenchB", "A/B<=zero", "/B<=1", "A/B<=-1"} {
		if _, err := parseRatios(bad); err == nil {
			t.Errorf("parseRatios(%q) accepted", bad)
		}
	}

	fresh := results{
		key("BenchA"): {"ns/op": 120},
		key("BenchB"): {"ns/op": 100},
		key("BenchC"): {"ns/op": 250},
	}
	// A/B = 1.2 within 1.5; C/B = 2.5 past 2.
	if n, err := gateRatios(specs, fresh); err != nil || n != 1 {
		t.Errorf("gateRatios = %d exceeded, err %v; want 1", n, err)
	}
	// "<=inf" reports the quotient and never gates it.
	report, err := parseRatios("BenchC/BenchB<=inf")
	if err != nil {
		t.Fatalf("parseRatios(<=inf): %v", err)
	}
	if n, err := gateRatios(report, fresh); err != nil || n != 0 {
		t.Errorf("report-only ratio = %d exceeded, err %v; want 0", n, err)
	}
	delete(fresh, key("BenchC"))
	if _, err := gateRatios(report, fresh); err == nil {
		t.Error("report-only ratio with a missing benchmark passed; want an error")
	}
	if _, err := gateRatios(specs, fresh); err == nil {
		t.Error("gateRatios with a missing benchmark passed; want an error")
	}
}
