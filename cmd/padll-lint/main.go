// Command padll-lint runs PADLL's static-analysis suite: eight analyzers
// that enforce the repository's determinism, concurrency, hot-path, and
// wire-protocol invariants (see internal/lint). It is built purely on
// the standard library's go/ast, go/parser, go/types and go/token
// packages — no external analysis framework.
//
// Usage:
//
//	padll-lint ./...                 # whole repository
//	padll-lint ./internal/stage      # one package
//	padll-lint -json ./...           # machine-readable findings
//	padll-lint -list                 # describe the analyzers
//	padll-lint -enable wirecheck     # run only the named analyzers
//	padll-lint -disable leakcheck    # run all but the named analyzers
//
// Exit code contract: 0 = no findings, 1 = findings reported,
// 2 = usage or load error. Suppression pragma:
//
//	//lint:allow <analyzer> <reason>
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"padll/internal/lint"
)

func main() {
	var (
		jsonOut = flag.Bool("json", false, "emit findings as JSON")
		list    = flag.Bool("list", false, "list the analyzers and exit")
		enable  = flag.String("enable", "", "run only the named analyzers (comma-separated)")
		disable = flag.String("disable", "", "run all analyzers except the named ones (comma-separated)")
	)
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := selectAnalyzers(*enable, *disable)
	if err != nil {
		fmt.Fprintln(os.Stderr, "padll-lint:", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "padll-lint:", err)
		os.Exit(2)
	}
	res, err := lint.Run(root, patterns, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "padll-lint:", err)
		os.Exit(2)
	}

	if *jsonOut {
		if err := res.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "padll-lint:", err)
			os.Exit(2)
		}
	} else {
		res.WriteText(os.Stdout)
	}
	if len(res.Diags) > 0 {
		os.Exit(1)
	}
}

// selectAnalyzers resolves the -enable/-disable flags against the
// registry.
func selectAnalyzers(enable, disable string) ([]*lint.Analyzer, error) {
	if enable != "" && disable != "" {
		return nil, fmt.Errorf("-enable and -disable are mutually exclusive")
	}
	if enable != "" {
		var out []*lint.Analyzer
		for _, name := range strings.Split(enable, ",") {
			a := lint.AnalyzerByName(strings.TrimSpace(name))
			if a == nil {
				return nil, fmt.Errorf("unknown analyzer %q", strings.TrimSpace(name))
			}
			out = append(out, a)
		}
		return out, nil
	}
	analyzers := lint.Analyzers()
	if disable == "" {
		return analyzers, nil
	}
	off := make(map[string]bool)
	for _, name := range strings.Split(disable, ",") {
		name = strings.TrimSpace(name)
		if lint.AnalyzerByName(name) == nil {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		off[name] = true
	}
	var out []*lint.Analyzer
	for _, a := range analyzers {
		if !off[a.Name] {
			out = append(out, a)
		}
	}
	return out, nil
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
