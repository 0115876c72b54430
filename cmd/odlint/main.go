// Command odlint runs the project's static-analysis suite: analyzers that
// mechanically enforce the engine's cross-cutting invariants (panic-safe
// goroutines, deterministic output order, context plumbing, the faultinject
// registry, and the partition arena contract).
//
// It is run by lint.sh and CI:
//
//	odlint              # analyze ./... from the module root
//	odlint ./internal/lattice ./cmd/...
//	odlint -list        # describe the analyzers
//
// odlint loads packages from source (tests included), runs whole-program
// Finish checks, and reports unused lint:allow comments.
//
// A finding is suppressed by "//lint:allow <analyzer> <reason>" on the same
// line or the line directly above; the reason is mandatory.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/analyzers/analysis"
	"repro/internal/analyzers/classalias"
	"repro/internal/analyzers/ctxfirst"
	"repro/internal/analyzers/driver"
	"repro/internal/analyzers/faultpoint"
	"repro/internal/analyzers/maporder"
	"repro/internal/analyzers/nakedgo"
)

func suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		nakedgo.New(),
		maporder.New(),
		ctxfirst.New(),
		faultpoint.New(),
		classalias.New(),
	}
}

func main() {
	analyzers := suite()
	list := flag.Bool("list", false, "list the analyzers and exit")
	noTests := flag.Bool("notests", false, "skip _test.go files and _test packages")
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "odlint:", err)
		os.Exit(2)
	}
	findings, err := driver.Run(driver.Options{
		Dir:                root,
		Patterns:           flag.Args(),
		Tests:              !*noTests,
		ReportUnusedAllows: true,
	}, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "odlint:", err)
		os.Exit(2)
	}
	for _, d := range findings {
		fmt.Println(d.String())
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "odlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// moduleRoot walks up from the working directory to the nearest go.mod, so
// odlint gives module-relative results no matter where it is invoked.
func moduleRoot() (string, error) {
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
