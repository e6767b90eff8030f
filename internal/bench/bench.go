// Package bench regenerates every table and figure of the paper's
// evaluation (§4.2.2 Fig. 6–8 microbenchmarks, §5 Fig. 10–21 system
// benchmarks) plus ablations of KafkaDirect-specific design choices.
//
// Each experiment is a function returning a Table; the registry maps figure
// ids ("fig06", "fig10", ..., "emptyfetch", "fig21") to them. cmd/kdbench
// prints the tables and counts their events; the nested perf module times
// them.
//
// Absolute numbers come from the calibrated simulation (DESIGN.md §4); the
// claims under reproduction are the SHAPES: who wins, by what factor, and
// where crossovers fall. EXPERIMENTS.md records paper-vs-measured values.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Table is one reproduced figure or table.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(vals ...any) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case string:
			row[i] = x
		case float64:
			row[i] = formatFloat(x)
		case time.Duration:
			row[i] = fmt.Sprintf("%.1f", float64(x)/float64(time.Microsecond))
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Note records a free-form observation printed under the table.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

func formatFloat(f float64) string {
	switch {
	case f == 0:
		return "0"
	case f >= 100:
		return fmt.Sprintf("%.0f", f)
	case f >= 1:
		return fmt.Sprintf("%.1f", f)
	default:
		return fmt.Sprintf("%.3f", f)
	}
}

// Print renders the table with aligned columns.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "# %s: %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// addGrid appends one row per grid row: its label, then the row's cells.
func (t *Table) addGrid(labels []string, cells [][]any) {
	for r, row := range cells {
		t.AddRow(append([]any{labels[r]}, row...)...)
	}
}

// grid runs rows x cols independent data points through the fan-out and
// returns them in declaration order, cells[r][c] = cell(r, c). A figure that
// sweeps one axis down its rows and one across its columns is a Table
// literal, one grid call and its notes; each cell builds its own rig, so the
// order cells run in is free.
func grid(rows, cols int, cell func(r, c int) any) [][]any {
	flat := make([]any, rows*cols)
	forEach(len(flat), func(i int) { flat[i] = cell(i/cols, i%cols) })
	cells := make([][]any, rows)
	for r := range cells {
		cells[r] = flat[r*cols : (r+1)*cols]
	}
	return cells
}

// labels renders a swept axis as the row labels addGrid takes.
func labels[T any](axis []T, label func(T) string) []string {
	out := make([]string, len(axis))
	for i, v := range axis {
		out[i] = label(v)
	}
	return out
}

// Experiment is a runnable figure reproduction.
type Experiment struct {
	ID    string
	Title string
	// Desc is a one-line description of what the experiment sweeps and how
	// (kdbench -list); Title is the rendered table heading.
	Desc string
	// Run executes the experiment standalone, discarding perf counters.
	Run func() *Table
	// run is the underlying implementation; the runner passes a Stats
	// collector so events and heap usage are attributed per experiment.
	run func(st *Stats) *Table
}

func experiment(id, title, desc string, run func(st *Stats) *Table) Experiment {
	return Experiment{ID: id, Title: title, Desc: desc, run: run,
		Run: func() *Table { return run(new(Stats)) }}
}

// registry holds all experiments in display order, which is the paper's:
// microbenchmarks first (Fig. 6–8), then the evaluation (Fig. 10–21 with the
// §5.3 empty-fetch table in place, between Fig. 18 and Fig. 19), the
// ablations, then the experiments beyond the paper — failure handling,
// consumer groups, latency attribution. results_all.txt is written in this
// order and a test holds the two together.
var registry = []Experiment{
	experiment("fig06", "Aggregated write goodput of RDMA produce approaches vs message size",
		"Raw-verb microbenchmark of the produce approaches (exclusive, shared CAS/FAA), no broker", fig06),
	experiment("fig07", "Latency and goodput of notification approaches (WriteWithImm vs Write+Send)",
		"Raw-verb microbenchmark comparing the two write-notification verb sequences", fig07),
	experiment("fig08", "Latency and goodput of batching 64-byte RDMA writes",
		"Raw-verb microbenchmark of doorbell batching for tiny writes", fig08),
	experiment("fig10", "Produce latency, no replication (us)",
		"Closed-loop produce RTT of each system on one unreplicated partition, swept by record size", fig10),
	experiment("fig11", "Produce goodput to one partition, no replication (MiB/s)",
		"Open-loop produce bandwidth to one partition, swept by record size", fig11),
	experiment("fig12", "Produce goodput vs number of partitions, 32 KiB records (GiB/s)",
		"Aggregate produce bandwidth as partitions scale out across the broker", fig12),
	experiment("fig13", "Total goodput vs producers with ONE API worker, 4 KiB records (MiB/s)",
		"Contention on a single API worker: RDMA producers bypass it, RPC producers serialize", fig13),
	experiment("fig14", "Produce latency with 3-way replication (us)",
		"acks=all produce RTT with rf=3, crossing produce datapath with pull/push replication", fig14),
	experiment("fig15", "Produce goodput with 3-way replication (MiB/s)",
		"Open-loop produce bandwidth with rf=3 for each produce/replication combination", fig15),
	experiment("fig16", "Produce goodput vs replication factor, 32 KiB records (MiB/s)",
		"How goodput decays as the replica set grows, pull vs push replication", fig16),
	experiment("fig17", "Goodput of 32 B produces vs replication batch size (MiB/s)",
		"Small-record flood showing push-replication batching recovering goodput", fig17),
	experiment("fig18", "Consumer fetch latency, preloaded records (us)",
		"Closed-loop fetch RTT of each system over preloaded records, swept by record size", fig18),
	experiment("emptyfetch", "Empty-fetch cost: latency and broker-side throughput (§5.3)",
		"Cost of polling an empty partition: RPC fetch vs one-sided metadata-slot read", emptyFetch),
	experiment("fig19", "End-to-end produce->consume latency (us)",
		"Producer-to-consumer delivery latency with both sides live, swept by record size", fig19),
	experiment("fig20", "Consume goodput (MiB/s)",
		"Open-loop consume bandwidth per system, swept by record size", fig20),
	experiment("fig21", "Event delays under constant-rate and periodic-burst IoT workloads (§5.4)",
		"Streaming delivery delay under steady and bursty open-loop arrival processes", fig21),
	experiment("ablation-fetchsize", "Ablation: RDMA consumer fetch size vs latency and goodput",
		"Sweeps the RDMA consumer's fetch window to expose the latency/goodput trade-off", ablationFetchSize),
	experiment("ablation-notify", "Ablation: WriteWithImm vs Write+Send notification inside the full broker",
		"Replays the Fig. 7 notification comparison through the full broker datapath", ablationNotify),
	experiment("ablation-credits", "Ablation: push-replication credits vs goodput (MiB/s)",
		"Sweeps the push-replication credit window to find where flow control throttles goodput", ablationCredits),
	experiment("chaos", "Fault injection: recovery time and acked-record durability (3 brokers, rf=3)",
		"Crashes and restarts brokers mid-produce, auditing failover time and acked-record loss", runChaos),
	experiment("groups", "Consumer groups: rebalance storm, lag drain vs group size, commit paths (3 brokers)",
		"Rebalance storm with member kills, lag drain vs group size, and RPC vs one-sided commits", runGroups),
	experiment("attr", "Produce latency attribution by stage (us, 1 KiB records, rf=1)",
		"Decomposes closed-loop produce latency per datapath into verb- and broker-level stages", runAttr),
}

// Experiments lists all registered experiments in display order.
func Experiments() []Experiment {
	return append([]Experiment(nil), registry...)
}

// Lookup finds an experiment by id ("fig06", "6", "emptyfetch", ...),
// case-insensitively. An exact id match always wins; the zero-trimmed fuzzy
// match ("6" -> "fig06") is only consulted when no registered id matches
// exactly, so a registered id can never be shadowed by a fuzzy alias.
func Lookup(id string) (Experiment, bool) {
	id = strings.TrimPrefix(strings.ToLower(id), "fig")
	for _, e := range registry {
		if strings.ToLower(strings.TrimPrefix(e.ID, "fig")) == id {
			return e, true
		}
	}
	for _, e := range registry {
		key := strings.ToLower(strings.TrimPrefix(e.ID, "fig"))
		if strings.TrimLeft(key, "0") == strings.TrimLeft(id, "0") {
			return e, true
		}
	}
	return Experiment{}, false
}

// ---------------------------------------------------------------------------
// Measurement helpers
// ---------------------------------------------------------------------------

// median returns the median of a sample set.
func median(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// mean returns the arithmetic mean of a sample set.
func mean(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range samples {
		sum += s
	}
	return sum / time.Duration(len(samples))
}

// mibps converts bytes over a duration into MiB/s.
func mibps(bytes int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds() / (1 << 20)
}

// gibps converts bytes over a duration into GiB/s.
func gibps(bytes int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds() / (1 << 30)
}

// sizeLabel renders byte sizes like the paper's axes (64B, 2K, 128K).
func sizeLabel(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1024:
		return fmt.Sprintf("%dK", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
