// Command padll-lint runs PADLL's static-analysis suite: five
// package-local analyzers that enforce the repository's determinism,
// concurrency and error-handling invariants (see internal/lint). The
// zero-allocation request path and copy-on-write publication are not
// linted: AllocsPerRun guards and -race tests check them at runtime. It
// is built purely on the standard library's go/ast, go/parser, go/types
// and go/importer packages — no external analysis framework: the go
// command lists the packages and supplies their dependencies' export
// data, and patterns mean what they mean to go build.
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

	res, err := lint.Run(".", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "padll-lint:", err)
		os.Exit(2)
	}

	res.WriteText(os.Stdout)
	if len(res.Diags) > 0 {
		os.Exit(1)
	}
}
