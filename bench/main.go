// Command bench is the repository's benchmark: four workloads that
// drive PADLL end to end through the public padll package, and a traced
// run that times every layer from outside. README.md documents the
// workloads, the metrics and how to read the output.
//
//	go run ./bench                      every workload, every declared metric
//	go run ./bench -workload fleet_rounds -seed 7 -seconds 20 -trace 0
//	go run ./bench -repeat 10           run-to-run spread against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// workload is one set of inputs the benchmark runs.
type workload interface {
	// setUp builds the tree or fleet from e.seed, registers every data
	// plane over TCP and runs two warm-up rounds.
	setUp(e *env) error
	// measure runs the timed body with tracing off, sets the end-to-end
	// values and checks the program's outputs.
	measure(e *env, o *outcome)
	// layers replays the workload's request stream at every layer
	// boundary and probes the layers the body does not isolate.
	layers(e *env, o *outcome) error
	tearDown() error
}

func newWorkload(name string) workload {
	switch name {
	case "walk_unthrottled":
		return &walkUnthrottled{}
	case "churn_unthrottled":
		return &churnUnthrottled{}
	case "throttled_multijob":
		return &throttledMultijob{}
	case "fleet_rounds":
		return &fleetRounds{}
	}
	return nil
}

// report is one workload run in the shape the driver reads from the
// last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Tracing modes: the driver passes 0 or 1; without the flag one
// invocation reports both sets.
const (
	traceOff  = "0"
	traceOn   = "1"
	traceBoth = "both"
)

// runOne runs one workload once. With mode traceOff the metrics are the
// end-to-end set, with traceOn the per-layer set, with traceBoth the
// union from two passes.
func runOne(name string, e env, mode string) (report, []string, error) {
	rep := report{Correct: true, Metrics: map[string]metric{}}
	var problems []string
	passes := []bool{false, true}
	switch mode {
	case traceOff:
		passes = []bool{false}
	case traceOn:
		passes = []bool{true}
	}
	for _, traced := range passes {
		e.trace = traced
		o, err := runPass(name, &e)
		if err != nil {
			return rep, nil, fmt.Errorf("%s: %w", name, err)
		}
		if extra := undeclared(o.vals); len(extra) > 0 {
			return rep, nil, fmt.Errorf("%s: undeclared metrics %v", name, extra)
		}
		decls := endToEnd
		if traced {
			decls = perLayer
		}
		for k, m := range render(decls, o.vals) {
			rep.Metrics[k] = m
		}
		rep.Attempted += o.attempted
		rep.Failed += o.failed
		problems = append(problems, o.problems...)
	}
	if rep.Attempted < 1 {
		rep.Attempted = 1
	}
	rep.Correct = rep.Failed == 0 && len(problems) == 0
	return rep, problems, nil
}

// runPass is one traced or untraced pass over a workload. setup_s is
// the median of several complete set-ups, so that work moved into
// set-up shows without one slow mkdir deciding the figure.
func runPass(name string, e *env) (*outcome, error) {
	w := newWorkload(name)
	o := &outcome{vals: values{}}
	setups := e.size.setups
	if e.trace {
		setups = 1
		e.rec = newRecorder(name)
	}
	var took []float64
	for i := 0; i < setups; i++ {
		if i > 0 {
			if err := w.tearDown(); err != nil {
				return nil, fmt.Errorf("tear down: %w", err)
			}
		}
		t0 := now()
		if err := w.setUp(e); err != nil {
			return nil, fmt.Errorf("set up: %w", err)
		}
		took = append(took, now().Sub(t0).Seconds())
	}
	o.vals["setup_s"] = median(took)
	var err error
	if e.trace {
		err = w.layers(e, o)
	} else {
		w.measure(e, o)
	}
	if terr := w.tearDown(); err == nil && terr != nil {
		err = fmt.Errorf("tear down: %w", terr)
	}
	if err != nil {
		return nil, err
	}
	if e.trace {
		if err := e.rec.write(filepath.Join(e.outDir, "trace_"+name+".jsonl")); err != nil {
			return nil, err
		}
	}
	return o, nil
}

func printMetrics(name string, rep report, decls ...[]metricDecl) {
	for _, set := range decls {
		for _, d := range set {
			if m, ok := rep.Metrics[d.Name]; ok {
				fmt.Printf("%-20s %-38s %16.4f %s\n", name, d.Name, m.Value, m.Unit)
			}
		}
	}
}

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run, or all")
		seed         = flag.Int64("seed", 1, "seed for tree shape, name order and retune schedule")
		seconds      = flag.Float64("seconds", 20, "measured seconds per workload")
		trace        = flag.String("trace", traceBoth, "0: end-to-end metrics, 1: per-layer metrics from the traced run; both when absent")
		repeat       = flag.Int("repeat", 0, "run the set N times on seeds seed..seed+N-1 and check run-to-run spread against the bounds")
		outDir       = flag.String("out", filepath.Join("bench", "out"), "directory for result.json, trace_*.jsonl and scratch data")
	)
	flag.Parse()
	if *trace != traceOff && *trace != traceOn && *trace != traceBoth {
		fmt.Fprintf(os.Stderr, "bench: -trace must be 0 or 1, got %q\n", *trace)
		os.Exit(2)
	}
	var names []string
	for _, d := range workloadDecls {
		if *workloadName == "all" || *workloadName == d.Name {
			names = append(names, d.Name)
		}
	}
	if len(names) == 0 || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q or non-positive -seconds\n", *workloadName)
		os.Exit(2)
	}
	dataDir := filepath.Join(*outDir, "data")
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	e := env{seed: *seed, seconds: *seconds, workers: runtime.GOMAXPROCS(0), outDir: *outDir, dataDir: dataDir, size: fullSize}

	if *repeat > 0 {
		os.Exit(repeatRuns(names, e, *repeat))
	}

	results := map[string]report{}
	ok := true
	var last []byte
	for _, name := range names {
		rep, problems, err := runOne(name, e, *trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "bench: %s: %s\n", name, p)
		}
		printMetrics(name, rep, endToEnd, perLayer)
		fmt.Printf("%-20s %-38s %16.4f %s\n", name, "failed_ops_pct", 100*float64(rep.Failed)/float64(rep.Attempted), "%")
		results[name] = rep
		ok = ok && rep.Correct
		last, _ = json.Marshal(rep)
	}
	if err := writeResult(*outDir, hostFingerprint(dataDir, *seed), *seconds, results); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := os.RemoveAll(dataDir); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(last))
	if !ok {
		os.Exit(1)
	}
}

func writeResult(outDir string, fp fingerprint, seconds float64, results map[string]report) error {
	b, err := json.MarshalIndent(struct {
		Host      fingerprint       `json:"host"`
		Seconds   float64           `json:"seconds"`
		Workloads map[string]report `json:"workloads"`
	}{fp, seconds, results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "result.json"), append(b, '\n'), 0o644)
}

// repeatRuns is the repeatability tool: it runs the set n times, each on
// another seed, and prints for every end-to-end metric and workload the
// spread between the runs beside the metric's bound. It returns the exit
// code: 1 when a spread exceeds its bound or a run was incorrect.
// setup_s is printed but not held to its bound, as in the driver.
func repeatRuns(names []string, e env, n int) int {
	got := map[string]map[string][]float64{}
	code := 0
	for i := 0; i < n; i++ {
		run := e
		run.seed = e.seed + int64(i)
		for _, name := range names {
			rep, problems, err := runOne(name, run, traceOff)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			if !rep.Correct {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d incorrect: %v\n", name, run.seed, problems)
				code = 1
			}
			if got[name] == nil {
				got[name] = map[string][]float64{}
			}
			for k, m := range rep.Metrics {
				got[name][k] = append(got[name][k], m.Value)
			}
		}
	}
	fmt.Printf("%-20s %-16s %14s %8s %8s  %s\n", "workload", "metric", "median", "spread", "bound", "values")
	for _, name := range names {
		for _, d := range endToEnd {
			xs := got[name][d.Name]
			sp := spread(xs)
			verdict := ""
			if sp > d.Bound && d.Name != "setup_s" {
				verdict = "  EXCEEDS BOUND"
				code = 1
			}
			s := sorted(xs)
			fmt.Printf("%-20s %-16s %14.4f %7.2f%% %7.2f%%  %.4g%s\n", name, d.Name, median(xs), 100*sp, 100*d.Bound, s, verdict)
		}
	}
	return code
}
