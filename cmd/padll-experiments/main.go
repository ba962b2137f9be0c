// Command padll-experiments regenerates the tables and figures of the
// PADLL paper's evaluation (see DESIGN.md for the experiment index) and
// prints the rows/series the paper reports. Series can also be dumped as
// CSV for plotting.
//
// Usage:
//
//	padll-experiments -fig all
//	padll-experiments -fig 4 -csv out/
//	padll-experiments -table overhead
//	padll-experiments -ext drf,mds,ablation
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"padll/internal/experiments"
	"padll/internal/posix"
)

func main() {
	var (
		fig    = flag.String("fig", "", "figures to regenerate: 1,2,4,5 or all")
		table  = flag.String("table", "", "tables to regenerate: overhead")
		ext    = flag.String("ext", "", "extensions: drf,mds,ablation,adaptive,chaos,fleet or all")
		seed   = flag.Int64("seed", experiments.DefaultSeed, "workload seed")
		csvDir = flag.String("csv", "", "directory to dump series CSVs into")
	)
	flag.Parse()
	if *fig == "" && *table == "" && *ext == "" {
		*fig, *table, *ext = "all", "overhead", "all"
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
		r := experiments.Fig1(*seed)
		fmt.Println(r.Render())
		dumpCSV(*csvDir, r.CSV())
	}
	if want(*fig, "2") {
		fmt.Println(experiments.Fig2(*seed).Render())
	}
	if want(*fig, "4") {
		for _, op := range []posix.Op{posix.OpOpen, posix.OpClose, posix.OpGetAttr, posix.OpRename} {
			r := experiments.Fig4PerOp(*seed, op)
			fmt.Println(r.Render())
			dumpCSV(*csvDir, r.CSV())
		}
		r := experiments.Fig4PerClass(*seed)
		fmt.Println(r.Render())
		dumpCSV(*csvDir, r.CSV())

		for _, write := range []bool{true, false} {
			d, err := experiments.Fig4Data(experiments.DefaultFig4DataConfig(write))
			if err != nil {
				fatal(err)
			}
			fmt.Println(d.Render())
			dumpCSV(*csvDir, experiments.CSVFile{Name: "fig4_data_" + d.Mode + ".csv", Content: d.Padll.CSV()})
		}
	}
	if want(*fig, "5") {
		for _, r := range experiments.Fig5All(*seed) {
			fmt.Println(r.Render())
			dumpCSV(*csvDir, r.CSV())
		}
	}
	if want(*table, "overhead") {
		rows, err := experiments.OverheadTable(0)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.RenderOverhead(rows))
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
		r := experiments.ChaosReplay(*seed)
		fmt.Println(r.Render())
		dumpCSV(*csvDir, r.CSV())
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
}

func dumpCSV(dir string, f experiments.CSVFile) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, f.Name), []byte(f.Content), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("  wrote %s\n\n", filepath.Join(dir, f.Name))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "padll-experiments:", err)
	os.Exit(1)
}
