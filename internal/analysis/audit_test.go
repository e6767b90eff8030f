package analysis

import (
	"os"
	"strings"
	"testing"
)

// TestAuditFixture runs the full suite over the chaos fixture and checks
// the audit verdicts: one live, well-justified directive; one stale
// directive suppressing nothing; one live directive with a thin
// justification.
func TestAuditFixture(t *testing.T) {
	pkgs, err := Load(".", "./testdata/src/chaos")
	if err != nil {
		t.Fatalf("loading chaos fixture: %v", err)
	}
	res := RunDetail(pkgs, All())
	for _, d := range res.Diags {
		t.Errorf("chaos fixture should have no surviving findings, got: %s", d)
	}
	rep := Audit(res)
	if len(rep.Entries) != 3 {
		t.Fatalf("want 3 audit entries, got %d", len(rep.Entries))
	}
	find := func(sub string) AuditEntry {
		t.Helper()
		for _, e := range rep.Entries {
			if strings.Contains(e.Reason, sub) {
				return e
			}
		}
		t.Fatalf("no audit entry with justification containing %q", sub)
		return AuditEntry{}
	}

	live := find("well-justified suppression")
	if live.Stale || live.Thin {
		t.Errorf("live directive misjudged: stale=%v thin=%v", live.Stale, live.Thin)
	}
	if live.Suppressed != 1 {
		t.Errorf("live directive suppressed %d finding(s), want 1", live.Suppressed)
	}

	stale := find("suppresses nothing at all")
	if !stale.Stale {
		t.Error("directive over a clean line not marked stale")
	}
	if stale.Thin {
		t.Error("stale directive has a full justification; must not be thin")
	}

	thin := find("because reasons")
	if !thin.Thin {
		t.Error(`two-word justification "because reasons" not marked thin`)
	}
	if thin.Stale {
		t.Error("thin directive suppresses a live finding; must not be stale")
	}

	fails := rep.Failures()
	if len(fails) != 2 {
		t.Fatalf("want 2 audit failures (1 stale + 1 thin), got %d: %q", len(fails), fails)
	}
	if !strings.Contains(fails[0], "stale //kdlint:allow simclock") && !strings.Contains(fails[1], "stale //kdlint:allow simclock") {
		t.Errorf("no failure line names the stale directive: %q", fails)
	}
	if !strings.Contains(strings.Join(fails, "\n"), "below the why-format") {
		t.Errorf("no failure line names the thin justification: %q", fails)
	}

	table := rep.Table()
	for _, want := range []string{"analyzer", "allows", "stale", "thin", "simclock", "total"} {
		if !strings.Contains(table, want) {
			t.Errorf("audit table missing %q:\n%s", want, table)
		}
	}
}

func TestParseBudget(t *testing.T) {
	budget, err := ParseBudget([]byte("# ratchet file\n\nsimclock 3\nmaporder 0\n"))
	if err != nil {
		t.Fatalf("parsing valid budget: %v", err)
	}
	if budget["simclock"] != 3 || budget["maporder"] != 0 {
		t.Errorf("parsed budget wrong: %v", budget)
	}

	if _, err := ParseBudget([]byte("simclock\n")); err == nil || !strings.Contains(err.Error(), `want "analyzer count"`) {
		t.Errorf("missing count: got err %v", err)
	}
	if _, err := ParseBudget([]byte("simclock three\n")); err == nil || !strings.Contains(err.Error(), "bad count") {
		t.Errorf("non-numeric count: got err %v", err)
	}
	if _, err := ParseBudget([]byte("simclock -1\n")); err == nil || !strings.Contains(err.Error(), "bad count") {
		t.Errorf("negative count: got err %v", err)
	}
}

func TestCheckBudget(t *testing.T) {
	rep := &AuditReport{PerAnalyzer: map[string]int{"simclock": 3, "maporder": 0, "obssafe": 2}}

	if msgs := rep.CheckBudget(map[string]int{"simclock": 3, "obssafe": 5, "maporder": 0}); len(msgs) != 0 {
		t.Errorf("within budget but flagged: %q", msgs)
	}

	msgs := rep.CheckBudget(map[string]int{"simclock": 2, "obssafe": 5, "maporder": 0})
	if len(msgs) != 1 || !strings.Contains(msgs[0], "fix the findings instead of suppressing them") {
		t.Errorf("over-budget simclock not flagged as ratchet violation: %q", msgs)
	}

	msgs = rep.CheckBudget(map[string]int{"simclock": 3, "maporder": 0})
	if len(msgs) != 1 || !strings.Contains(msgs[0], "no budget line") {
		t.Errorf("obssafe suppressions without a budget line not flagged: %q", msgs)
	}
}

// TestCommittedBudgetCoversAllAnalyzers keeps scripts/kdlint_budget.txt in
// lockstep with the analyzer registry: a new analyzer must get a budget
// line (normally "name 0") and a deleted one must lose its line.
func TestCommittedBudgetCoversAllAnalyzers(t *testing.T) {
	data, err := os.ReadFile("../../scripts/kdlint_budget.txt")
	if err != nil {
		t.Fatalf("reading committed budget: %v", err)
	}
	budget, err := ParseBudget(data)
	if err != nil {
		t.Fatalf("committed budget does not parse: %v", err)
	}
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
		if _, ok := budget[a.Name]; !ok {
			t.Errorf("scripts/kdlint_budget.txt has no line for analyzer %s", a.Name)
		}
	}
	for name := range budget {
		if !known[name] {
			t.Errorf("scripts/kdlint_budget.txt names unknown analyzer %q", name)
		}
	}
}

// TestLoadNamesBrokenPackage pins the partial-failure contract: a pattern
// matching a package the go tool cannot load (here: a directory with no Go
// files) must be a hard error naming that package, never a silent skip.
// cmd/kdlint turns this error into exit 2.
func TestLoadNamesBrokenPackage(t *testing.T) {
	_, err := Load(".", "./testdata/src/broken")
	if err == nil {
		t.Fatal("loading a package with no Go files succeeded; want a hard error")
	}
	if !strings.Contains(err.Error(), "broken") {
		t.Errorf("load error does not name the broken package: %v", err)
	}
}

// TestRepoAuditClean is the audit meta-test: repo-wide, every //kdlint:allow
// must be live with a why-format justification, and the per-analyzer counts
// must fit the committed ratchet. This is exactly what `kdlint -audit
// -budget scripts/kdlint_budget.txt ./...` gates in check.sh and CI.
func TestRepoAuditClean(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole repository")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading repo: %v", err)
	}
	res := RunDetail(pkgs, All())
	rep := Audit(res)
	for _, f := range rep.Failures() {
		t.Errorf("%s", f)
	}
	data, err := os.ReadFile("../../scripts/kdlint_budget.txt")
	if err != nil {
		t.Fatalf("reading committed budget: %v", err)
	}
	budget, err := ParseBudget(data)
	if err != nil {
		t.Fatalf("committed budget does not parse: %v", err)
	}
	for _, f := range rep.CheckBudget(budget) {
		t.Errorf("%s", f)
	}
}
