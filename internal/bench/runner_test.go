package bench

import (
	"bytes"
	"strings"
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

// boomCell is the data point that fails in TestFanOutPropagatesPanic; its
// name is what the re-raised panic must still carry.
func boomCell(i int) {
	if i == 3 {
		panic("boom")
	}
}

// TestFanOutPropagatesPanic: a panic on a pool goroutine is re-raised from
// the fan-out with the failing cell's stack, whether the cell is a data
// point under forEach or a whole experiment under RunExperiments — one loop
// serves both.
func TestFanOutPropagatesPanic(t *testing.T) {
	for name, run := range map[string]func(){
		"forEach": func() {
			SetWorkers(4)
			defer SetWorkers(1)
			forEach(8, boomCell)
		},
		"RunExperiments": func() {
			exps := make([]Experiment, 8)
			for i := range exps {
				exps[i] = experiment("x", "x", "x", func(*Stats) *Table { boomCell(i); return &Table{} })
			}
			RunExperiments(exps, 4)
		},
		"nested": func() {
			e := experiment("x", "x", "x", func(*Stats) *Table { forEach(8, boomCell); return &Table{} })
			RunExperiments([]Experiment{e}, 4)
		},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				err, ok := recover().(error)
				if !ok {
					t.Fatal("panic did not propagate as an error value")
				}
				for _, want := range []string{"boom", "bench.boomCell"} {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("re-raised panic lacks %q:\n%v", want, err)
					}
				}
			}()
			run()
		})
	}
}

// TestGridDeclarationOrder: grid hands back cells[r][c] = cell(r, c), having
// called every cell exactly once, sequentially and on the pool.
func TestGridDeclarationOrder(t *testing.T) {
	defer SetWorkers(1)
	for _, workers := range []int{1, 8} {
		SetWorkers(workers)
		const rows, cols = 5, 7
		var calls [rows][cols]atomic.Int32
		cells := grid(rows, cols, func(r, c int) any {
			calls[r][c].Add(1)
			return r*100 + c
		})
		if len(cells) != rows {
			t.Fatalf("workers=%d: %d rows, want %d", workers, len(cells), rows)
		}
		for r := range cells {
			if len(cells[r]) != cols {
				t.Fatalf("workers=%d: row %d has %d cells, want %d", workers, r, len(cells[r]), cols)
			}
			for c, v := range cells[r] {
				if v != r*100+c {
					t.Errorf("workers=%d: cells[%d][%d] = %v", workers, r, c, v)
				}
				if n := calls[r][c].Load(); n != 1 {
					t.Errorf("workers=%d: cell (%d,%d) ran %d times", workers, r, c, n)
				}
			}
		}
	}
}

func TestStatsNilSafe(t *testing.T) {
	var st *Stats
	st.AddEvents(10, 4) // must not panic
	if st.Events() != 0 {
		t.Fatal("nil Stats returned nonzero")
	}
}
