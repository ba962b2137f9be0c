// Command padll-experiments regenerates the tables and figures of the
// PADLL paper's evaluation (see DESIGN.md for the experiment index) and
// prints the rows/series the paper reports. Every experiment runs on a
// simulated clock, so two runs print the same. -csv also writes every
// plot table — the list internal/experiments holds as goldens — for
// plotting.
//
// Usage:
//
//	padll-experiments -fig all
//	padll-experiments -fig 4 -csv out/
//	padll-experiments -ext drf,mds,ablation
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"padll/internal/experiments"
)

func main() {
	var (
		fig    = flag.String("fig", "", "figures to regenerate: 1,2,4,5 or all")
		ext    = flag.String("ext", "", "extensions: drf,mds,ablation,adaptive,chaos,fleet or all")
		seed   = flag.Int64("seed", experiments.DefaultSeed, "workload seed")
		csvDir = flag.String("csv", "", "directory to write every plot table into")
	)
	flag.Parse()
	if *fig == "" && *ext == "" {
		*fig, *ext = "all", "all"
	}

	want := func(spec, key string) bool {
		if spec == "" {
			return false
		}
		if spec == "all" {
			return true
		}
		for _, f := range strings.Split(spec, ",") {
			if strings.TrimSpace(f) == key {
				return true
			}
		}
		return false
	}

	if want(*fig, "1") {
		fmt.Println(experiments.Fig1(*seed).Render())
	}
	if want(*fig, "2") {
		fmt.Println(experiments.Fig2(*seed).Render())
	}
	if want(*fig, "4") {
		for _, op := range experiments.Fig4Ops {
			fmt.Println(experiments.Fig4PerOp(*seed, op).Render())
		}
		fmt.Println(experiments.Fig4PerClass(*seed).Render())
		for _, write := range []bool{true, false} {
			d, err := experiments.Fig4Data(write)
			if err != nil {
				fatal(err)
			}
			fmt.Println(d.Render())
		}
	}
	if want(*fig, "5") {
		for _, r := range experiments.Fig5All(*seed) {
			fmt.Println(r.Render())
		}
	}
	if want(*ext, "drf") {
		fmt.Println(experiments.DRFExtension().Render())
	}
	if want(*ext, "mds") {
		fmt.Println(experiments.MDSProtection(*seed).Render())
	}
	if want(*ext, "adaptive") {
		fmt.Println(experiments.AdaptiveLimit(*seed).Render())
	}
	if want(*ext, "chaos") {
		fmt.Println(experiments.ChaosReplay(*seed).Render())
	}
	if want(*ext, "fleet") {
		r, err := experiments.FleetScale()
		if err != nil {
			fatal(err)
		}
		fmt.Println(r.Render())
	}
	if want(*ext, "ablation") {
		burst := experiments.BurstAblation(*seed)
		gran := experiments.GranularityAblation(*seed)
		fmt.Println(experiments.RenderAblations(burst, gran))
		mech, err := experiments.MechanismAblation()
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.RenderMechanism(mech))
	}
	if *csvDir != "" {
		writeCSVs(*csvDir, *seed)
	}
}

func writeCSVs(dir string, seed int64) {
	files, err := experiments.CSVs(seed)
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	for _, f := range files {
		path := filepath.Join(dir, f.Name)
		if err := os.WriteFile(path, []byte(f.Content), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "padll-experiments:", err)
	os.Exit(1)
}
