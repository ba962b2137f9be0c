package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// These tests check structure only — what is declared is emitted, under
// well-formed names, with a ladder that adds up — and hold no wall-clock
// threshold: the numbers are the driver's business.

// testSize runs every workload in a fraction of a second.
var testSize = sizes{
	treeTop: 3, treeLeaves: 3, treeFiles: 4,
	churnNames: 32,
	jobFiles:   16,
	fleetJobs:  4, fleetStagesPerJob: 2,
	streamOps:  512,
	slice:      10 * time.Millisecond,
	setups:     1,
	probeCalls: 40,
	tick:       10 * time.Millisecond,
	period:     5 * time.Millisecond,
}

type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadDecls) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program %d", len(doc.Workloads), len(workloadDecls))
	}
	for i, w := range doc.Workloads {
		if d := workloadDecls[i]; w.Name != d.Name || w.Why != d.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, w.Name, d.Name)
		}
		if newWorkload(w.Name) == nil {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the program %d", len(doc.EndToEnd), len(endToEnd))
	}
	seen := map[string]bool{}
	for i, m := range doc.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("end-to-end metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the program %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("per-layer metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
	}
}

// ladderParts are the rungs whose self times must add up to the top.
var ladderParts = []string{
	"kernel.ns_per_op", "osfs.self_ns_per_op", "localfs.ns_per_op", "mount.self_ns_per_op",
	"stage.enforce_ns_per_op", "interpose.self_ns_per_op", "posix.self_ns_per_op", "vfs.self_ns_per_op",
}

func TestWorkloadsEmitWhatIsDeclared(t *testing.T) {
	for _, d := range workloadDecls {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			out := t.TempDir()
			e := env{seed: 1, seconds: 0.1, workers: 2, outDir: out, dataDir: filepath.Join(out, "data"), size: testSize}
			rep, _, err := runOne(d.Name, e, traceBoth)
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]string{}
			for _, m := range endToEnd {
				want[m.Name] = m.Unit
			}
			for _, m := range perLayer {
				want[m.Name] = m.Unit
			}
			for name, unit := range want {
				if got, ok := rep.Metrics[name]; !ok || got.Unit != unit {
					t.Errorf("declared metric %s [%s] not emitted (got %+v)", name, unit, got)
				}
			}
			for name, m := range rep.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("undeclared metric %s emitted", name)
				}
				if m.Value < 0 && name != "trace.overhead_pct" {
					t.Errorf("%s = %v, want a non-negative value", name, m.Value)
				}
			}
			for _, m := range endToEnd {
				if rep.Metrics[m.Name].Value == 0 {
					t.Errorf("end-to-end metric %s is 0", m.Name)
				}
			}

			// kernel + sum of self times = top rung, unless noise clamped a
			// thin layer to zero, which can only leave the sum above the top.
			var sum float64
			for _, name := range ladderParts {
				sum += rep.Metrics[name].Value
			}
			if top := rep.Metrics["ladder.top_ns_per_op"].Value; top <= 0 || sum < top*0.999 {
				t.Errorf("ladder parts sum to %.1f ns, top rung is %.1f ns", sum, top)
			}

			// The traced run wrote spans for every rung.
			f, err := os.Open(filepath.Join(out, "trace_"+d.Name+".jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			layers := map[string]bool{}
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				var s span
				if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
					t.Fatalf("trace line %q: %v", sc.Text(), err)
				}
				if s.Workload != d.Name || s.EndNs < s.StartNs || s.N < 1 || s.Parent == "" {
					t.Fatalf("malformed span %+v", s)
				}
				layers[s.Layer] = true
			}
			rungs := "mount policy tokenbucket stage interpose posix"
			switch d.Name {
			case "walk_unthrottled":
				rungs += " kernel osfs vfs"
			case "churn_unthrottled":
				rungs += " kernel osfs"
			default:
				rungs += " localfs"
			}
			for _, l := range strings.Fields(rungs) {
				if !layers[l] {
					t.Errorf("no span for rung %s", l)
				}
			}
		})
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// gives [3.5, 13.5, 31.0]; the median of the values is 13.5.
	got := spread([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if want := (31.0 - 3.5) / 13.5; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
