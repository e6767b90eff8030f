// Command kdlint runs the repo's invariant analyzers (internal/analysis)
// over Go packages: simclock, maporder, poolalias, errdrop, shardstate,
// crossnode, hotalloc, obssafe. It is the static half of the determinism
// story — the dynamic half being the workers=1-vs-8 byte-identical figure
// suite.
//
// Usage:
//
//	kdlint [-only name[,name]] [-list] [-json] [-audit] [-budget file] [packages]
//
// With no packages, ./... is checked. Exit status: 0 clean, 1 findings (or
// audit failures), 2 load or typecheck failure — including a matched
// package the loader cannot analyze (no Go files), which is named in the
// error. Findings can be suppressed, with a mandatory justification, by
// `//kdlint:allow <analyzer> <reason>` on the offending line or the line
// above; `-audit` inventories every such directive, fails on stale
// suppressions and thin justifications, and checks the per-analyzer totals
// against the committed budget file (-budget), so suppressions only shrink.
// `-json` prints findings as a JSON array.
//
// kdlint is self-contained (standard library only), so it needs no module
// downloads: `go run ./cmd/kdlint ./...` works in a fresh checkout with no
// network, which is how scripts/check.sh and CI invoke it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"kafkadirect/internal/analysis"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	dir := flag.String("C", ".", "directory to resolve package patterns in")
	jsonOut := flag.Bool("json", false, "print findings as a JSON array")
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

	prog, err := analysis.LoadProgram(*dir, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kdlint: %v\n", err)
		os.Exit(2)
	}
	// A finding is only trustworthy if its package typechecked: surface
	// type errors as hard failures rather than analyzing partial ASTs.
	badTypes := false
	for _, p := range prog.Packages {
		for _, te := range p.TypeErrors {
			fmt.Fprintf(os.Stderr, "kdlint: typecheck %s: %v\n", p.PkgPath, te)
			badTypes = true
		}
	}
	if badTypes {
		os.Exit(2)
	}

	res := analysis.RunDetail(prog, analyzers)
	diags := res.Diags

	if *jsonOut {
		type finding struct {
			Analyzer string `json:"analyzer"`
			File     string `json:"file"`
			Line     int    `json:"line"`
			Column   int    `json:"column"`
			Message  string `json:"message"`
		}
		out := make([]finding, 0, len(diags))
		for _, d := range diags {
			out = append(out, finding{d.Analyzer, d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "kdlint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d.String())
		}
	}

	failed := len(diags) > 0
	if failed {
		fmt.Fprintf(os.Stderr, "kdlint: %d finding(s) in %d package(s)\n", len(diags), len(prog.Packages))
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
