package bench

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"kafkadirect/internal/obs"
)

// TestObsZeroPerturbation is the zero-perturbation gate for telemetry: the
// rendered tables must be byte-identical with collection off and with full
// collection (metrics + spans) on, across the workers x shards matrix. The
// obs layer records, it never participates — a single diverging byte means
// an instrument scheduled an event, acquired a resource, or otherwise
// changed simulation behaviour.
func TestObsZeroPerturbation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full figures many times")
	}
	// One fast figure per instrumented layer family: the TCP + RDMA produce
	// datapaths (fig18 exercises consume, fig08 the raw verbs), both
	// replication datapaths (fig14: a follower's replica-write completions
	// are spans of its RDMA module), the group coordinator, and the sharded
	// kernel with its per-shard registries.
	var exps []Experiment
	for _, id := range []string{"fig08", "fig14", "fig18", "groups", "scale"} {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("%s not registered", id)
		}
		exps = append(exps, e)
	}
	render := func(workers, shards int, collect bool) string {
		SetShardParallel(shards)
		defer SetShardParallel(1)
		if collect {
			SetObsMode(true, obs.DefaultTraceCap)
		} else {
			SetObsMode(false, 0)
		}
		defer SetObsMode(false, 0)
		results := RunExperiments(exps, workers)
		var buf bytes.Buffer
		for _, r := range results {
			r.Table.Print(&buf)
		}
		return buf.String()
	}
	base := render(1, 1, false)
	if base == "" {
		t.Fatal("rendered tables are empty")
	}
	for _, workers := range []int{1, 8} {
		for _, shards := range []int{1, 4} {
			if got := render(workers, shards, true); got != base {
				t.Errorf("workers=%d shards=%d: tables with telemetry differ from the plain run (%d vs %d bytes)",
					workers, shards, len(got), len(base))
			}
		}
	}
}

// TestObsCollection checks the collector end of the pipeline: running a
// figure under SetObsMode produces a non-empty merged metrics report and a
// valid Chrome trace.
func TestObsCollection(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full figure")
	}
	e, ok := Lookup("fig18")
	if !ok {
		t.Fatal("fig18 not registered")
	}
	SetObsMode(true, obs.DefaultTraceCap)
	defer SetObsMode(false, 0)
	RunExperiments([]Experiment{e}, 1)

	var metrics bytes.Buffer
	WriteObsMetrics(&metrics)
	for _, want := range []string{"rdma/wr_posted", "tcp/msgs", "broker/requests", "stage/broker_api"} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("merged metrics report is missing %q", want)
		}
	}
	if CollectedSpans() == 0 {
		t.Fatal("no rig contributed spans")
	}
	var trace bytes.Buffer
	if err := WriteObsTrace(&trace); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var complete int
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			complete++
		}
	}
	if complete == 0 {
		t.Fatal("trace has no complete (ph=X) span events")
	}
}

// TestAttrCoverage pins the latency-attribution figure's claim: on every
// datapath the per-stage histograms tile the measured closed-loop RTT, so
// their sum covers the end-to-end latency within 1%.
func TestAttrCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the attribution figure")
	}
	e, ok := Lookup("attr")
	if !ok {
		t.Fatal("attr not registered")
	}
	var st Stats
	table := e.run(&st)
	var cov []string
	for _, row := range table.Rows {
		if row[0] == "coverage_pct" {
			cov = row[1:]
		}
	}
	if len(cov) != 4 {
		t.Fatalf("coverage_pct row missing or malformed: %v", cov)
	}
	for i, cell := range cov {
		pct, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			t.Fatalf("coverage %q: %v", cell, err)
		}
		if pct < 99 || pct > 101 {
			t.Errorf("%s: stage sum covers %.1f%% of end-to-end latency, want 100 +/- 1", table.Columns[i+1], pct)
		}
	}
}
