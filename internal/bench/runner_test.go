package bench

import (
	"bytes"
	"sync/atomic"
	"testing"
)

// TestParallelRunMatchesSequential is the determinism regression test for
// the parallel runner: one representative figure, run with workers=1 and
// workers=8, must render byte-identical tables. Every data point is its own
// simulation with a fixed seed, so scheduling must not leak into results.
func TestParallelRunMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full figure twice")
	}
	e, ok := Lookup("fig18")
	if !ok {
		t.Fatal("fig18 not registered")
	}
	render := func(workers int) string {
		results := RunExperiments([]Experiment{e}, workers)
		var buf bytes.Buffer
		results[0].Table.Print(&buf)
		return buf.String()
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Errorf("workers=8 output differs from workers=1:\n--- workers=1 ---\n%s--- workers=8 ---\n%s", seq, par)
	}
	if seq == "" {
		t.Error("rendered table is empty")
	}
}

// TestRunExperimentsRecordsStats checks that the runner attributes simulator
// events and heap usage to the experiment that ran.
func TestRunExperimentsRecordsStats(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full figure")
	}
	e, ok := Lookup("fig08")
	if !ok {
		t.Fatal("fig08 not registered")
	}
	results := RunExperiments([]Experiment{e}, 1)
	if len(results) != 1 {
		t.Fatalf("got %d results", len(results))
	}
	r := results[0]
	if r.ID != e.ID || r.Table == nil {
		t.Fatalf("result malformed: %+v", r)
	}
	if r.Events == 0 {
		t.Error("no simulator events recorded")
	}
	if r.Wall <= 0 {
		t.Error("no wall time recorded")
	}
	if r.EventsPerSec() <= 0 {
		t.Error("events/sec not derivable")
	}
}

func TestForEachSequentialRunsInOrder(t *testing.T) {
	SetWorkers(1)
	var order []int
	forEach(5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential forEach out of order: %v", order)
		}
	}
}

func TestForEachParallelCoversAllPoints(t *testing.T) {
	SetWorkers(4)
	defer SetWorkers(1)
	var hits [64]atomic.Int32
	forEach(len(hits), func(i int) { hits[i].Add(1) })
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("point %d ran %d times", i, hits[i].Load())
		}
	}
}

func TestForEachPropagatesPanic(t *testing.T) {
	SetWorkers(4)
	defer SetWorkers(1)
	defer func() {
		if recover() == nil {
			t.Error("panic did not propagate")
		}
	}()
	forEach(8, func(i int) {
		if i == 3 {
			panic("boom")
		}
	})
}

func TestStatsNilSafe(t *testing.T) {
	var st *Stats
	st.AddEvents(10) // must not panic
	if st.Events() != 0 {
		t.Fatal("nil Stats returned nonzero")
	}
}
