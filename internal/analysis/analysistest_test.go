package analysis

import (
	"regexp"
	"strings"
	"testing"
)

// The fixture harness mirrors golang.org/x/tools/go/analysis/analysistest:
// each package under testdata/src/<name> is loaded through the same
// go list + go/types pipeline as a real run, one analyzer is applied, and
// the findings are diffed against the fixture's inline expectations.
//
// An expectation is a trailing comment of the form
//
//	// want `regex` `regex` ...
//
// on the line the finding is reported at. Every finding must be claimed by
// exactly one expectation and every expectation must claim a finding.
// Findings that cannot carry a line comment (e.g. kdlint's own directive
// hygiene, reported at the directive's position) are passed as floating
// regexes instead.

var wantArgRe = regexp.MustCompile("`([^`]+)`")

type fixtureWant struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

func checkFixture(t *testing.T, a *Analyzer, dir string, floating ...string) {
	t.Helper()
	pkgs, err := Load(".", "./testdata/src/"+dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s matched no packages", dir)
	}
	var wants []*fixtureWant
	for _, pkg := range pkgs {
		for _, te := range pkg.TypeErrors {
			t.Fatalf("fixture %s does not typecheck: %v", dir, te)
		}
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					i := strings.Index(c.Text, "// want ")
					if i < 0 {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, m := range wantArgRe.FindAllStringSubmatch(c.Text[i:], -1) {
						wants = append(wants, &fixtureWant{
							file: pos.Filename,
							line: pos.Line,
							re:   regexp.MustCompile(m[1]),
						})
					}
				}
			}
		}
	}
	floatRes := make([]*regexp.Regexp, len(floating))
	for i, f := range floating {
		floatRes[i] = regexp.MustCompile(f)
	}

	diags := Run(pkgs, []*Analyzer{a})
next:
	for _, d := range diags {
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				continue next
			}
		}
		for i, re := range floatRes {
			if re != nil && re.MatchString(d.Message) {
				floatRes[i] = nil
				continue next
			}
		}
		t.Errorf("unexpected finding: %s", d)
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no finding matched %q", w.file, w.line, w.re)
		}
	}
	for i, re := range floatRes {
		if re != nil {
			t.Errorf("no finding matched floating expectation %q", floating[i])
		}
	}
}

func TestSimClockFixture(t *testing.T) {
	checkFixture(t, SimClock, "sim",
		"needs a justification",        // the bare //kdlint:allow simclock
		`unknown analyzer "simclocks"`, // the misspelled directive
	)
}

func TestMapOrderFixture(t *testing.T) {
	checkFixture(t, MapOrder, "core")
}

func TestPoolAliasFixture(t *testing.T) {
	checkFixture(t, PoolAlias, "fabric")
}

func TestErrDropFixture(t *testing.T) {
	checkFixture(t, ErrDrop, "klog")
}

func TestObsSafeFixture(t *testing.T) {
	checkFixture(t, ObsSafe, "client")
}

// TestGroupPackageIsKdlintClean pins the consumer-group coordinator into the
// lint gate directly. internal/group runs under the simulated clock and its
// error returns carry the fencing signals (ILLEGAL_GENERATION et al.), so it
// belongs to both simPackages and errDropPackages; this test fails if either
// registration is dropped, then requires the package to be clean with zero
// findings AND zero //kdlint:allow escapes — the coordinator was written to
// collect-sort-iterate discipline and should never need a suppression.
// Unlike TestRepoIsKdlintClean it loads one package, so it survives -short.
func TestGroupPackageIsKdlintClean(t *testing.T) {
	if !simPackages["group"] {
		t.Error(`internal/group missing from simPackages: simclock/maporder no longer cover the coordinator`)
	}
	if !errDropPackages["group"] {
		t.Error(`internal/group missing from errDropPackages: dropped group errors (the fencing signal) go unflagged`)
	}
	pkgs, err := Load("../..", "./internal/group/")
	if err != nil {
		t.Fatalf("loading internal/group: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("./internal/group/ matched no packages")
	}
	for _, pkg := range pkgs {
		for _, te := range pkg.TypeErrors {
			t.Fatalf("%s: type error: %v", pkg.PkgPath, te)
		}
		if allows := collectAllows(pkg); len(allows) != 0 {
			t.Errorf("internal/group carries %d //kdlint:allow directive(s), first at %s — the coordinator must be clean without suppressions", len(allows), allows[0].Pos)
		}
	}
	for _, d := range Run(pkgs, All()) {
		t.Errorf("%s", d)
	}
}

// TestObsPackageIsKdlintClean pins the telemetry layer into the lint gate.
// internal/obs executes inside simulations (instrument updates run from
// event handlers on every datapath), so it must stay in simPackages, and it
// must be clean with zero findings AND zero //kdlint:allow escapes: the
// zero-perturbation contract (DESIGN.md §10) leaves no legitimate reason for
// the telemetry layer itself to touch a clock, shared state, or map order.
// Like the group test, this loads one package and survives -short.
func TestObsPackageIsKdlintClean(t *testing.T) {
	if !simPackages["obs"] {
		t.Error(`internal/obs missing from simPackages: simclock/maporder no longer cover the telemetry layer`)
	}
	pkgs, err := Load("../..", "./internal/obs/")
	if err != nil {
		t.Fatalf("loading internal/obs: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("./internal/obs/ matched no packages")
	}
	for _, pkg := range pkgs {
		for _, te := range pkg.TypeErrors {
			t.Fatalf("%s: type error: %v", pkg.PkgPath, te)
		}
		if allows := collectAllows(pkg); len(allows) != 0 {
			t.Errorf("internal/obs carries %d //kdlint:allow directive(s), first at %s — the telemetry layer must be clean without suppressions", len(allows), allows[0].Pos)
		}
	}
	for _, d := range Run(pkgs, All()) {
		t.Errorf("%s", d)
	}
}

// TestRepoIsKdlintClean is the meta-test: the shipping tree must carry zero
// findings under the full suite, so every invariant the fixtures demonstrate
// also holds repo-wide. This is the same load cmd/kdlint performs.
func TestRepoIsKdlintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole repository")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading repo: %v", err)
	}
	for _, pkg := range pkgs {
		for _, te := range pkg.TypeErrors {
			t.Errorf("%s: type error: %v", pkg.PkgPath, te)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	for _, d := range Run(pkgs, All()) {
		t.Errorf("%s", d)
	}
}
