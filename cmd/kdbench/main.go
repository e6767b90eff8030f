// Command kdbench regenerates the paper's tables and figures.
//
// Usage:
//
//	kdbench -fig all             # every experiment, in order
//	kdbench -fig 6               # just Figure 6
//	kdbench -fig emptyfetch      # the §5.3 empty-fetch table
//	kdbench -list                # list experiment ids with descriptions
//	kdbench -fig all -workers 8  # run data points on 8 workers
//	kdbench -fig scale -shards 8 # sharded sims execute on 8 goroutines
//	kdbench -fig all -json       # also write BENCH_figs.json (perf trajectory)
//	kdbench -fig 10 -trace t.json -metrics m.txt
//	                             # collect telemetry: Chrome trace + metrics
//
// Telemetry collection is passive: every table is byte-identical with
// -trace/-metrics on or off (the obs determinism tests assert it).
//
// Table output is byte-identical for any -workers value: experiments and
// their data points are deterministic simulations with fixed seeds, and the
// runner assembles tables in paper order regardless of completion order.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"kafkadirect/internal/bench"
	"kafkadirect/internal/obs"
)

// printList writes every registered experiment with its one-line description.
func printList(w io.Writer) {
	for _, e := range bench.Experiments() {
		fmt.Fprintf(w, "%-18s %s\n", e.ID, e.Desc)
	}
}

// jsonReport is the schema of BENCH_figs.json: one record per figure with
// its wall-clock cost and simulator event counts, so perf regressions in the
// harness itself are visible run over run.
type jsonReport struct {
	Workers     int          `json:"workers"`
	Shards      int          `json:"shards"` // shard-execution parallelism (-shards)
	GOMAXPROCS  int          `json:"gomaxprocs"`
	TotalWallMS float64      `json:"total_wall_ms"`
	Figures     []jsonFigure `json:"figures"`
}

type jsonFigure struct {
	ID           string  `json:"id"`
	Title        string  `json:"title"`
	WallMS       float64 `json:"wall_ms"`
	Events       uint64  `json:"events"`
	Switches     uint64  `json:"switches"` // coroutine switches: deterministic, like events
	EventsPerSec float64 `json:"events_per_sec"`
	// Allocs/AllocBytes are process-wide allocation deltas while the figure
	// ran: exact at workers=1, an upper bound when figures run concurrently.
	Allocs     uint64 `json:"allocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
	// Points carries per-cell wall-clock measurements for figures that sweep
	// a resource knob (the scale figure records one per cluster-size x
	// shard-count cell). Empty for the paper-table figures.
	Points []bench.PerfPoint `json:"points,omitempty"`
}

func main() {
	fig := flag.String("fig", "all", "figure id to reproduce (e.g. 6, fig10, emptyfetch, all)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "number of parallel benchmark workers (1 = sequential)")
	shards := flag.Int("shards", 0, "shard-execution parallelism for sharded simulations (0 = GOMAXPROCS, 1 = inline sequential)")
	jsonOut := flag.Bool("json", false, "write per-figure perf metrics to BENCH_figs.json")
	traceOut := flag.String("trace", "", "collect sim-time spans and write Chrome trace-event JSON to this file")
	metricsOut := flag.String("metrics", "", "collect sim-time metrics and write the merged report to this file (- for stderr)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write an allocation (heap) profile at exit to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kdbench: create cpu profile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "kdbench: start cpu profile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		path := *memprofile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "kdbench: create mem profile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush dead objects so the profile shows live + cumulative allocs
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "kdbench: write mem profile: %v\n", err)
			}
		}()
	}

	if *list {
		printList(os.Stdout)
		return
	}

	var exps []bench.Experiment
	if strings.EqualFold(*fig, "all") {
		exps = bench.Experiments()
	} else {
		e, ok := bench.Lookup(*fig)
		if !ok {
			fmt.Fprintf(os.Stderr, "kdbench: unknown figure %q; available experiments:\n", *fig)
			printList(os.Stderr)
			os.Exit(1)
		}
		exps = []bench.Experiment{e}
	}

	bench.SetShardParallel(*shards)
	if *traceOut != "" || *metricsOut != "" {
		traceCap := 0
		if *traceOut != "" {
			traceCap = obs.DefaultTraceCap
		}
		bench.SetObsMode(*metricsOut != "", traceCap)
	}

	start := time.Now()
	results := bench.RunExperiments(exps, *workers)
	totalWall := time.Since(start)

	for _, r := range results {
		r.Table.Print(os.Stdout)
	}

	if *metricsOut != "" {
		var b strings.Builder
		bench.WriteObsMetrics(&b)
		if *metricsOut == "-" {
			fmt.Fprint(os.Stderr, b.String())
		} else if err := os.WriteFile(*metricsOut, []byte(b.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "kdbench: write metrics: %v\n", err)
			os.Exit(1)
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kdbench: create trace: %v\n", err)
			os.Exit(1)
		}
		if err := bench.WriteObsTrace(f); err != nil {
			fmt.Fprintf(os.Stderr, "kdbench: write trace: %v\n", err)
			f.Close()
			os.Exit(1)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "kdbench: wrote %s (open in chrome://tracing or https://ui.perfetto.dev)\n", *traceOut)
	}

	if *jsonOut {
		report := jsonReport{
			Workers:     *workers,
			Shards:      bench.ShardParallel(),
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			TotalWallMS: float64(totalWall) / float64(time.Millisecond),
		}
		for _, r := range results {
			report.Figures = append(report.Figures, jsonFigure{
				ID:           r.ID,
				Title:        r.Title,
				WallMS:       float64(r.Wall) / float64(time.Millisecond),
				Events:       r.Events,
				Switches:     r.Switches,
				EventsPerSec: r.EventsPerSec(),
				Allocs:       r.Allocs,
				AllocBytes:   r.AllocBytes,
				Points:       r.Points,
			})
		}
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "kdbench: marshal report: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile("BENCH_figs.json", data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "kdbench: write BENCH_figs.json: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "kdbench: wrote BENCH_figs.json (%d figures, %.0f ms total)\n",
			len(report.Figures), report.TotalWallMS)
	}
}
