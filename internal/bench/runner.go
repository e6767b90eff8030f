package bench

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the parallel experiment runner. Experiments are independent
// (every data point builds its own simulation with a fixed seed and touches
// no shared mutable state), so the harness can run experiments — and the
// data points inside them — concurrently on a bounded worker pool while
// still assembling tables in paper order. The rendered output is
// byte-identical to a sequential run; only the wall clock changes.

// Stats accumulates performance counters for one experiment run: simulator
// events executed and coroutine switches made across all of its data points,
// and the allocations made while it ran. A nil *Stats discards updates, so
// rig helpers can be called without a collector.
type Stats struct {
	events   atomic.Uint64
	switches atomic.Uint64

	// allocs/allocBytes are process-wide allocation deltas bracketing the
	// experiment, filled in once by runExperiment. Exact with workers=1;
	// with a parallel pool, concurrently running experiments share the
	// process counters, so treat them as an upper bound per figure.
	allocs     uint64
	allocBytes uint64
}

// AddEvents adds the events a simulation executed and the coroutine switches
// it made (rigs call this at teardown). Both depend on the simulation alone.
func (s *Stats) AddEvents(events, switches uint64) {
	if s != nil {
		s.events.Add(events)
		s.switches.Add(switches)
	}
}

// Events returns the total simulator events recorded.
func (s *Stats) Events() uint64 {
	if s == nil {
		return 0
	}
	return s.events.Load()
}

// Result is one experiment's reproduced table plus its execution metrics.
type Result struct {
	ID         string
	Title      string
	Table      *Table
	Wall       time.Duration
	Events     uint64 // simulator events executed
	Switches   uint64 // coroutine switches between simulation processes
	Allocs     uint64 // heap allocations during the run (see Stats)
	AllocBytes uint64 // bytes allocated during the run (see Stats)
}

// EventsPerSec is the wall-clock event rate of the run.
func (r Result) EventsPerSec() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Events) / r.Wall.Seconds()
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

// workerSem bounds the number of data points executing at once across the
// whole process. nil means "sequential": the fan-out runs its body inline,
// with no goroutines involved, which is the workers=1 baseline.
var (
	workerMu  sync.Mutex
	workerSem chan struct{}
)

// SetWorkers configures the pool. n <= 1 selects strict sequential
// execution. The setting is process-global; change it only between runs.
func SetWorkers(n int) {
	workerMu.Lock()
	defer workerMu.Unlock()
	if n <= 1 {
		workerSem = nil
		return
	}
	workerSem = make(chan struct{}, n)
}

func currentSem() chan struct{} {
	workerMu.Lock()
	defer workerMu.Unlock()
	return workerSem
}

// SetShardParallel has no effect and nothing reads what it is given. It set
// the thread count of the sharded capacity model, which is deleted;
// perf/workloads.go still calls it, and it goes when that call does.
func SetShardParallel(int) {}

// forEach runs fn(0..n-1), each call a data point holding one pool slot
// while it runs. Callers must make fn(i) write only to its own slot of a
// pre-sized result slice.
func forEach(n int, fn func(i int)) { fanOut(n, true, fn) }

// fanOut is the harness's one goroutine loop. Sequential mode (no pool) runs
// fn(0..n-1) inline, in order. Pool mode runs every call on its own
// goroutine — under a pool slot when pooled, unbounded otherwise
// (experiments only wait for their data points, and a waiter that held a
// slot could starve them of it) — and waits for all of them. The first panic
// is re-raised here afterwards, carrying the stack of the call that failed.
func fanOut(n int, pooled bool, fn func(i int)) {
	sem := currentSem()
	if sem == nil {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var first *cellPanic
	for i := 0; i < n; i++ {
		if pooled {
			sem <- struct{}{}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					cp, nested := r.(*cellPanic) // an inner fan-out's stack is the cell's
					if !nested {
						cp = &cellPanic{val: r, stack: debug.Stack()}
					}
					panicOnce.Do(func() { first = cp })
				}
				if pooled {
					<-sem
				}
			}()
			fn(i)
		}()
	}
	wg.Wait()
	if first != nil {
		panic(first)
	}
}

// cellPanic carries a panic out of a fan-out goroutine together with the
// stack it unwound, so the trace names the data point that failed and not
// only the harness that re-raised it.
type cellPanic struct {
	val   any
	stack []byte
}

func (cp *cellPanic) Error() string {
	return fmt.Sprintf("%v [recovered on a bench worker, re-raised from the fan-out]\n%s", cp.val, cp.stack)
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

// RunExperiments executes the given experiments on a worker pool (0 means
// GOMAXPROCS workers). With workers <= 1 everything — experiments and their
// data points — runs strictly sequentially. With more workers, experiments
// run as concurrent goroutines whose data points contend for the shared pool
// slots. Results come back in the order given, and the rendered tables are
// byte-identical to a workers=1 run.
func RunExperiments(exps []Experiment, workers int) []Result {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	SetWorkers(workers)
	defer SetWorkers(1)
	results := make([]Result, len(exps))
	fanOut(len(exps), false, func(i int) { results[i] = runExperiment(exps[i]) })
	return results
}

// runExperiment executes one experiment with a fresh Stats collector.
func runExperiment(e Experiment) Result {
	st := &Stats{}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	//kdlint:allow simclock measures real elapsed runner time for the perf trajectory, not simulated time
	start := time.Now()
	tbl := e.run(st)
	//kdlint:allow simclock measures real elapsed runner time for the perf trajectory, not simulated time
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	st.allocs = m1.Mallocs - m0.Mallocs
	st.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	return Result{
		ID:         e.ID,
		Title:      e.Title,
		Table:      tbl,
		Wall:       wall,
		Events:     st.Events(),
		Switches:   st.switches.Load(),
		Allocs:     st.allocs,
		AllocBytes: st.allocBytes,
	}
}
