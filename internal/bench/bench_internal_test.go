package bench

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestRegistryCoversEveryPaperFigure(t *testing.T) {
	want := []string{
		"fig06", "fig07", "fig08", // §4 microbenchmarks
		"fig10", "fig11", "fig12", "fig13", // produce
		"fig14", "fig15", "fig16", "fig17", // replication
		"fig18", "emptyfetch", "fig19", "fig20", // consume
		"fig21", // event processing
	}
	for _, id := range want {
		if _, ok := Lookup(id); !ok {
			t.Errorf("figure %s not registered", id)
		}
	}
}

func TestLookupAcceptsFlexibleIDs(t *testing.T) {
	for _, id := range []string{"6", "06", "fig6", "fig06", "FIG06"} {
		e, ok := Lookup(id)
		if !ok || e.ID != "fig06" {
			t.Errorf("Lookup(%q) = %v, %v", id, e.ID, ok)
		}
	}
	if _, ok := Lookup("fig99"); ok {
		t.Error("Lookup of unknown figure succeeded")
	}
}

// TestLookupExactMatchWins pins the precedence rule: a registered id is
// always found by its exact spelling, even when an earlier registry entry's
// zero-trimmed key would fuzzily match the same query.
func TestLookupExactMatchWins(t *testing.T) {
	saved := registry
	defer func() { registry = saved }()
	registry = []Experiment{
		{ID: "fig010", Title: "decoy: fuzzy-matches 10"},
		{ID: "fig10", Title: "exact"},
	}
	e, ok := Lookup("fig10")
	if !ok || e.ID != "fig10" {
		t.Fatalf("Lookup(fig10) = %q, %v; want exact fig10", e.ID, ok)
	}
	e, ok = Lookup("010")
	if !ok || e.ID != "fig010" {
		t.Fatalf("Lookup(010) = %q, %v; want exact fig010", e.ID, ok)
	}
	// Fuzzy matching still applies when nothing matches exactly.
	e, ok = Lookup("0010")
	if !ok || e.ID != "fig010" {
		t.Fatalf("Lookup(0010) = %q, %v; want fuzzy fig010", e.ID, ok)
	}
}

func TestExperimentsAreOrderedAndTitled(t *testing.T) {
	exps := Experiments()
	if len(exps) < 16 {
		t.Fatalf("only %d experiments registered", len(exps))
	}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
	}
}

// TestExperimentsMatchGoldenTables holds the registry and the committed run
// together: results_all.txt carries exactly the registered experiments, in
// registry order (`kdbench -fig all` prints them in that order, and
// scripts/check.sh diffs the bytes).
func TestExperimentsMatchGoldenTables(t *testing.T) {
	golden, err := os.ReadFile("../../results_all.txt")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, m := range regexp.MustCompile(`(?m)^# ([^:]+):`).FindAllSubmatch(golden, -1) {
		want = append(want, string(m[1]))
	}
	var got []string
	for _, e := range Experiments() {
		got = append(got, e.ID)
	}
	if !slices.Equal(got, want) {
		t.Errorf("registry order and results_all.txt headers differ:\nregistry: %v\ngolden:   %v", got, want)
	}
}

func TestTablePrintAlignsColumns(t *testing.T) {
	tbl := &Table{
		ID:      "figXX",
		Title:   "test table",
		Columns: []string{"a", "long_column"},
	}
	tbl.AddRow("x", 3.14159)
	tbl.AddRow("yyyyy", 42*time.Microsecond)
	tbl.Note("hello %d", 7)
	var sb strings.Builder
	tbl.Print(&sb)
	out := sb.String()
	for _, want := range []string{"# figXX: test table", "long_column", "3.1", "42.0", "note: hello 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestHelpers(t *testing.T) {
	if sizeLabel(64) != "64B" || sizeLabel(2048) != "2K" || sizeLabel(1<<20) != "1M" {
		t.Fatal("sizeLabel")
	}
	if m := median([]time.Duration{5, 1, 9}); m != 5 {
		t.Fatalf("median = %v", m)
	}
	if median(nil) != 0 {
		t.Fatal("median of empty")
	}
	if v := mibps(1<<20, time.Second); v != 1 {
		t.Fatalf("mibps = %v", v)
	}
	if v := gibps(1<<30, 2*time.Second); v != 0.5 {
		t.Fatalf("gibps = %v", v)
	}
	if mibps(100, 0) != 0 || gibps(100, 0) != 0 {
		t.Fatal("zero-duration rates must not divide by zero")
	}
}

// Smoke-test one cheap experiment end-to-end so the harness plumbing stays
// covered by `go test` without running the full evaluation.
func TestSmokeSingleLatencyPoint(t *testing.T) {
	lat := produceLatency(sysKDExcl, 64, rigConfig{brokers: 1})
	if lat < 50*time.Microsecond || lat > 200*time.Microsecond {
		t.Fatalf("KD produce latency %v out of plausible range", lat)
	}
	tcp := produceLatency(sysKafka, 64, rigConfig{brokers: 1})
	if tcp <= lat {
		t.Fatalf("TCP latency %v should exceed RDMA %v", tcp, lat)
	}
}

func TestSmokeSingleGoodputPoint(t *testing.T) {
	kd := produceGoodput(sysKDExcl, 4096, 1, 1, rigConfig{brokers: 1})
	kafka := produceGoodput(sysKafka, 4096, 1, 1, rigConfig{brokers: 1})
	if kd <= kafka {
		t.Fatalf("KD goodput %.1f should exceed Kafka %.1f", kd, kafka)
	}
}
