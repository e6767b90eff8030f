// Package analysis is kdlint: a small, dependency-free static-analysis
// framework plus the repo-specific rules that a planted defect showed no
// run-time gate catches (see DESIGN.md §9):
//
//	simclock  — no wall clock or unseeded randomness in simulated code
//	maporder  — no order-sensitive work driven by unsorted map iteration
//	poolalias — no aliasing of pooled wire buffers past their recycle call
//	errdrop   — no silently discarded transport/replication errors
//	obssafe   — obs instruments are cached in fields at construction
//
// simclock, errdrop and obssafe are one walk over function references driven
// by a rule table (forbid.go); maporder and poolalias reason about one
// function body at a time. `kdlint -audit` additionally audits every
// //kdlint:allow suppression for staleness and justification quality
// (audit.go).
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) so the analyzers would port to a standard
// multichecker mechanically, but it is built only on the standard library:
// this module vendors nothing, and the environments this repo builds in do
// not assume network access to fetch x/tools.
package analysis

import (
	"fmt"
	"go/token"
	"path"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All returns the full kdlint analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{SimClock, MapOrder, PoolAlias, ErrDrop, ObsSafe}
}

// A Pass is one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags *[]Diagnostic
}

// A Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos. Findings suppressed by a matching
// //kdlint:allow directive are filtered by Run, not here.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// simPackages names the packages whose code executes under the simulated
// clock — where wall-clock time, unseeded randomness, and map-iteration
// order would silently break the byte-identical reproduction guarantee.
// Matching is by the final import-path element so that analysistest
// fixtures (internal/analysis/testdata/src/<name>) exercise the same code
// path as the real packages.
var simPackages = map[string]bool{
	"sim":     true,
	"fabric":  true,
	"tcpnet":  true,
	"rdma":    true,
	"klog":    true,
	"core":    true,
	"client":  true,
	"group":   true,
	"chaos":   true,
	"kwire":   true,
	"krecord": true,
	"stream":  true,
	"bench":   true,
	"obs":     true,
}

// isSimPackage reports whether pkgPath is one of the simulation packages.
func isSimPackage(pkgPath string) bool { return simPackages[path.Base(pkgPath)] }

// pkgBase returns the final element of an import path ("kafkadirect/internal/rdma" -> "rdma").
func pkgBase(pkgPath string) string { return path.Base(pkgPath) }

// ---------------------------------------------------------------------------
// Allow directives
// ---------------------------------------------------------------------------

// allowRe matches suppression directives:
//
//	//kdlint:allow <analyzer> <justification>
//
// A directive suppresses that analyzer's findings on its own line and on the
// line directly below (so it can sit at the end of the offending line or on
// its own line above it). The justification is mandatory: an unexplained
// suppression is itself reported.
var allowRe = regexp.MustCompile(`^//kdlint:allow\s+([a-z]+)\s*(.*)$`)

// An AllowInfo is one //kdlint:allow directive together with how it fared
// during the run: how many raw findings it suppressed. Zero with its
// analyzer among those run means the suppression is stale.
type AllowInfo struct {
	Analyzer   string
	Reason     string
	Pos        token.Position
	Suppressed int
}

func collectAllows(pkg *Package) []AllowInfo {
	var out []AllowInfo
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				out = append(out, AllowInfo{
					Analyzer: m[1],
					Reason:   strings.TrimSpace(m[2]),
					Pos:      pkg.Fset.Position(c.Pos()),
				})
			}
		}
	}
	return out
}

func (a AllowInfo) covers(d Diagnostic) bool {
	return a.Analyzer == d.Analyzer &&
		a.Pos.Filename == d.Pos.Filename &&
		(a.Pos.Line == d.Pos.Line || a.Pos.Line == d.Pos.Line-1)
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

// A RunResult carries everything a driver can want from one run: the
// surviving findings and the full allow-directive inventory with suppression
// counts (for -audit).
type RunResult struct {
	Diags  []Diagnostic
	Allows []AllowInfo
}

// Run applies every analyzer to every package, filters findings through
// //kdlint:allow directives, and returns the survivors sorted by position.
// Malformed directives (no justification, unknown analyzer name) are
// reported as kdlint findings themselves.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	return RunDetail(pkgs, analyzers).Diags
}

// RunDetail is Run with the books kept open: it returns the surviving
// findings plus the allow inventory the suppression audit consumes.
func RunDetail(pkgs []*Package, analyzers []*Analyzer) *RunResult {
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	res := &RunResult{}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		var raw []Diagnostic
		for _, a := range analyzers {
			a.Run(&Pass{Analyzer: a, Pkg: pkg, diags: &raw})
		}
		allows := collectAllows(pkg)
		for _, d := range raw {
			suppressed := false
			for i := range allows {
				if allows[i].covers(d) && allows[i].Reason != "" {
					allows[i].Suppressed++
					suppressed = true
					break
				}
			}
			if !suppressed {
				diags = append(diags, d)
			}
		}
		for _, a := range allows {
			if a.Reason == "" {
				diags = append(diags, Diagnostic{
					Analyzer: "kdlint",
					Pos:      a.Pos,
					Message:  fmt.Sprintf("//kdlint:allow %s needs a justification after the analyzer name", a.Analyzer),
				})
			} else if !known[a.Analyzer] {
				diags = append(diags, Diagnostic{
					Analyzer: "kdlint",
					Pos:      a.Pos,
					Message:  fmt.Sprintf("//kdlint:allow names unknown analyzer %q", a.Analyzer),
				})
			}
		}
		res.Allows = append(res.Allows, allows...)
	}
	sortDiags(diags)
	sort.Slice(res.Allows, func(i, j int) bool { return posLess(res.Allows[i].Pos, res.Allows[j].Pos) })
	res.Diags = diags
	return res
}

func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		if !posEqual(diags[i].Pos, diags[j].Pos) {
			return posLess(diags[i].Pos, diags[j].Pos)
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}

func posLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}

func posEqual(a, b token.Position) bool {
	return a.Filename == b.Filename && a.Line == b.Line && a.Column == b.Column
}

// isTestFile reports whether the file containing pos is a _test.go file.
func isTestFile(pkg *Package, pos token.Pos) bool {
	return strings.HasSuffix(pkg.Fset.Position(pos).Filename, "_test.go")
}
