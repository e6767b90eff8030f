package bench

import (
	"bytes"
	"testing"
)

// TestDeterminismMatrix is the worker-pool determinism gate: the rendered
// tables must be byte-identical whether the data points of each figure run
// one after another or on eight workers at once. A curated set runs here (the
// fastest figure from each family); the golden-tables stage of
// scripts/check.sh runs every figure at GOMAXPROCS workers and its allocation
// stage every figure at one worker, both against the same committed files.
func TestDeterminismMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full figures many times")
	}
	var exps []Experiment
	for _, id := range []string{"chaos", "groups", "fig08", "fig18"} {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("%s not registered", id)
		}
		exps = append(exps, e)
	}
	render := func(workers int) string {
		results := RunExperiments(exps, workers)
		var buf bytes.Buffer
		for _, r := range results {
			r.Table.Print(&buf)
		}
		return buf.String()
	}
	base := render(1)
	if base == "" {
		t.Fatal("rendered tables are empty")
	}
	if got := render(8); got != base {
		t.Errorf("workers=8: tables differ from workers=1 (%d vs %d bytes)", len(got), len(base))
	}
}
