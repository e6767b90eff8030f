package main

import (
	"encoding/json"
	"strings"
)

// This file is the single list of what the benchmark reports. BENCHMARK.json
// at the repository root is `go run . -spec` written to a file; a test keeps
// the two, and the names a run prints, in lockstep.

const runSeconds = 8

type endToEndMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd metrics are measured with tracing off. Host metrics are medians
// over the timed passes of a run. The time bounds are as wide as the contract
// allows because the 2-vCPU sandbox itself drifts: the same binary ran
// produce_small in 1.05 s and, for minutes at a stretch, in 1.4 s. sim_*
// metrics are simulated time and repeat exactly; 1 % is the smallest change
// worth a relative bound, and `-aa` holds them to equality.
var endToEnd = []endToEndMetric{
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.10},
	{"allocs_k", "k", "lower", 0.02},
	{"setup_s", "s", "lower", 0.25},
	{"sim_kd_p50_us", "sim_us", "lower", 0.01},
	{"sim_kd_p99_us", "sim_us", "lower", 0.01},
	{"sim_kd_mibps", "MiB/s", "higher", 0.01},
	{"sim_kd_speedup", "ratio", "higher", 0.01},
}

var countNames = []string{
	"sim.events_per_op", "rdma.wr_per_op", "rdma.cqe_per_op", "tcpnet.msgs_per_op",
	"tcpnet.copy_bytes_per_op", "fabric.msgs_per_op", "fabric.bytes_per_op", "fabric.tx_busy_share",
	"core.requests_per_op", "core.empty_fetch_share", "core.queue_depth_max", "client.retries",
}

// sharePackages are the repository packages CPU samples are attributed to;
// shareRuntime are the buckets for samples with no repository frame.
var sharePackages = []string{"sim", "fabric", "rdma", "tcpnet", "kwire", "krecord", "klog", "bufpool",
	"core", "group", "client", "stream", "obs", "bench", "chaos"}
var shareRuntime = []string{"harness", "runtime_sched", "runtime_gc", "runtime_other"}

var figWallIDs = []string{"fig06", "fig11", "fig12", "fig13", "fig15", "fig16", "fig21", "groups", "scale"}
var figAllocIDs = []string{"fig10", "fig12", "fig16", "groups"}

// perLayer lists the per-layer metrics in report order. A metric that does
// not apply to a workload (a figure row outside figs, telemetry counts on
// stream) is reported as 0 there.
func perLayer() []layerMetric {
	var out []layerMetric
	for _, r := range ladder {
		out = append(out, layerMetric{r.name + ".ns", "ns/op", "lower"})
		if r.allocs {
			out = append(out, layerMetric{r.name + ".allocs", "allocs/op", "lower"})
		}
		if r.events {
			out = append(out, layerMetric{r.name + ".events", "events/op", "lower"})
		}
	}
	for _, n := range countNames {
		unit := "count/op"
		switch {
		case strings.HasSuffix(n, "_share"):
			unit = "ratio"
		case n == "core.queue_depth_max" || n == "client.retries":
			unit = "count"
		case strings.Contains(n, "bytes"):
			unit = "B/op"
		}
		out = append(out, layerMetric{n, unit, "lower"})
	}
	for _, p := range append(append([]string(nil), sharePackages...), shareRuntime...) {
		out = append(out, layerMetric{"host_share." + p, "%", "lower"})
	}
	for _, id := range figWallIDs {
		out = append(out, layerMetric{"fig_wall_ms." + id, "ms", "lower"})
	}
	for _, id := range figAllocIDs {
		out = append(out, layerMetric{"fig_alloc_mb." + id, "MB", "lower"})
	}
	out = append(out,
		layerMetric{"runtime.sys_s", "s", "lower"},
		layerMetric{"runtime.gc_cpu_s", "s", "lower"},
		layerMetric{"runtime.gc_cycles", "count", "lower"},
		layerMetric{"runtime.peak_rss_mb", "MB", "lower"},
		layerMetric{"obs.trace_overhead_pct", "%", "lower"},
	)
	return out
}

// benchmarkJSON renders BENCHMARK.json.
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	spec := struct {
		Command    []string         `json:"command"`
		Paths      []string         `json:"paths"`
		RunSeconds int              `json:"run_seconds"`
		Workloads  []wl             `json:"workloads"`
		EndToEnd   []endToEndMetric `json:"end_to_end"`
		PerLayer   []layerMetric    `json:"per_layer"`
	}{
		Command:    []string{"bash", "perf/run.sh"},
		Paths:      []string{"perf"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer(),
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, wl{w.name, w.why})
	}
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		panic(err) // a struct of strings and numbers always marshals
	}
	return append(b, '\n')
}
