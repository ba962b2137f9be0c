// Command padll-lint runs PADLL's static-analysis suite: seven analyzers
// that enforce the repository's determinism, concurrency and hot-path
// invariants (see internal/lint). It is built purely on the standard
// library's go/ast, go/parser, go/types and go/token packages — no
// external analysis framework.
//
// Usage:
//
//	padll-lint ./...                 # whole repository
//	padll-lint ./internal/stage      # one package
//	padll-lint -list                 # describe the analyzers
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

	"padll/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
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
	res, err := lint.Run(root, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "padll-lint:", err)
		os.Exit(2)
	}

	res.WriteText(os.Stdout)
	if len(res.Diags) > 0 {
		os.Exit(1)
	}
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
