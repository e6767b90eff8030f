// Command kdlint runs the repo's invariant analyzers (internal/analysis)
// over Go packages: simclock, maporder, poolalias, errdrop, obssafe — the
// rules for which a planted defect reached no run-time gate (DESIGN.md §9).
// It is the static half of the determinism story — the dynamic half being
// the workers=1-vs-8 byte-identical figure suite.
//
// Usage:
//
//	kdlint [-only name[,name]] [-list] [-audit] [-budget file] [packages]
//
// With no packages, ./... is checked. Exit status: 0 clean, 1 findings (or
// audit failures), 2 load or typecheck failure — including a matched
// package the loader cannot analyze (no Go files), which is named in the
// error. Findings can be suppressed, with a mandatory justification, by
// `//kdlint:allow <analyzer> <reason>` on the offending line or the line
// above; `-audit` inventories every such directive, fails on stale
// suppressions and thin justifications, and checks the per-analyzer totals
// against the committed budget file (-budget), so suppressions only shrink.
//
// kdlint is self-contained (standard library only), so it needs no module
// downloads: `go run ./cmd/kdlint ./...` works in a fresh checkout with no
// network, which is how scripts/check.sh and CI invoke it.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"kafkadirect/internal/analysis"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	audit := flag.Bool("audit", false, "audit //kdlint:allow suppressions (stale, thin, budget) in addition to findings")
	budgetFile := flag.String("budget", "", "suppression budget file for -audit (analyzer count per line)")
	flag.Parse()

	all := analysis.All()
	if *list {
		for _, a := range all {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := all
	if *only != "" {
		if *audit {
			fmt.Fprintln(os.Stderr, "kdlint: -audit needs the full suite; drop -only")
			os.Exit(2)
		}
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range all {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "kdlint: unknown analyzer %q (use -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kdlint: %v\n", err)
		os.Exit(2)
	}
	// A finding is only trustworthy if its package typechecked: surface
	// type errors as hard failures rather than analyzing partial ASTs.
	badTypes := false
	for _, p := range pkgs {
		for _, te := range p.TypeErrors {
			fmt.Fprintf(os.Stderr, "kdlint: typecheck %s: %v\n", p.PkgPath, te)
			badTypes = true
		}
	}
	if badTypes {
		os.Exit(2)
	}

	res := analysis.RunDetail(pkgs, analyzers)
	for _, d := range res.Diags {
		fmt.Println(d.String())
	}

	failed := len(res.Diags) > 0
	if failed {
		fmt.Fprintf(os.Stderr, "kdlint: %d finding(s) in %d package(s)\n", len(res.Diags), len(pkgs))
	}

	if *audit {
		rep := analysis.Audit(res)
		failures := rep.Failures()
		if *budgetFile != "" {
			data, err := os.ReadFile(*budgetFile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "kdlint: %v\n", err)
				os.Exit(2)
			}
			budget, err := analysis.ParseBudget(data)
			if err != nil {
				fmt.Fprintf(os.Stderr, "kdlint: %s: %v\n", *budgetFile, err)
				os.Exit(2)
			}
			failures = append(failures, rep.CheckBudget(budget)...)
		}
		fmt.Print(rep.Table())
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "kdlint: %s\n", f)
		}
		if len(failures) > 0 {
			failed = true
		}
	}

	if failed {
		os.Exit(1)
	}
}
