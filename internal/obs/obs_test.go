package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// ---------------------------------------------------------------------------
// Instrument semantics
// ---------------------------------------------------------------------------

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.AddDur(5 * time.Nanosecond)
	c.AddDur(-time.Second) // negative durations clamp to zero
	if got := c.Value(); got != 10 {
		t.Fatalf("counter = %d, want 10", got)
	}
	var nilC *Counter
	nilC.Inc()
	nilC.Add(7)
	nilC.AddDur(time.Second)
	if nilC.Value() != 0 {
		t.Fatal("nil counter must read 0")
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(5)
	g.Add(3)
	g.Add(-6)
	if g.Value() != 2 {
		t.Fatalf("gauge = %d, want 2", g.Value())
	}
	if g.Max() != 8 {
		t.Fatalf("gauge max = %d, want 8", g.Max())
	}
	var nilG *Gauge
	nilG.Set(9)
	nilG.Add(1)
	if nilG.Value() != 0 || nilG.Max() != 0 {
		t.Fatal("nil gauge must read 0")
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 2, 3, 100, 1000} {
		h.Observe(v)
	}
	h.ObserveDur(-time.Second) // clamps to a zero observation
	if h.Count() != 7 {
		t.Fatalf("count = %d, want 7", h.Count())
	}
	if h.Sum() != 1106 {
		t.Fatalf("sum = %d, want 1106", h.Sum())
	}
	if got, want := h.Mean(), 1106.0/7; got != want {
		t.Fatalf("mean = %v, want %v", got, want)
	}
	// Quantiles are bucket-resolution: the p0 observation is a zero, the p99
	// lands in 1000's bucket [512, 1024) but is capped by the true max.
	if q := h.Quantile(0); q != 0 {
		t.Fatalf("p0 = %d, want 0", q)
	}
	if q := h.Quantile(0.99); q != 1000 {
		t.Fatalf("p99 = %d, want 1000 (bucket upper bound capped at max)", q)
	}
	var nilH *Histogram
	nilH.Observe(1)
	nilH.ObserveDur(time.Second)
	if nilH.Count() != 0 || nilH.Sum() != 0 || nilH.Mean() != 0 || nilH.Quantile(0.5) != 0 {
		t.Fatal("nil histogram must read 0")
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(0)    // bucket 0
	h.Observe(1)    // bucket 1: [1, 2)
	h.Observe(1024) // bucket 11: [1024, 2048)
	h.Observe(1025)
	if h.buckets[0] != 1 || h.buckets[1] != 1 || h.buckets[11] != 2 {
		t.Fatalf("bucket layout wrong: %v", h.buckets[:12])
	}
}

func TestRegistryHandleIdentity(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("repeated Counter lookups must return the same instrument")
	}
	if r.Gauge("a") != r.Gauge("a") {
		t.Fatal("repeated Gauge lookups must return the same instrument")
	}
	if r.Histogram("a") != r.Histogram("a") {
		t.Fatal("repeated Histogram lookups must return the same instrument")
	}
	var nilR *Registry
	if nilR.Counter("a") != nil || nilR.Gauge("a") != nil || nilR.Histogram("a") != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
}

func TestObsNil(t *testing.T) {
	var o *Obs
	if o.Counter("a") != nil || o.Gauge("a") != nil || o.Histogram("a") != nil {
		t.Fatal("nil Obs must hand out nil instruments")
	}
	if o.Tracer() != nil {
		t.Fatal("nil Obs must have a nil tracer")
	}
	if o.Track("t") != -1 {
		t.Fatal("nil Obs Track must return -1")
	}
	if mo := New(0); mo.Trace != nil {
		t.Fatal("traceCap=0 must disable tracing")
	}
}

// ---------------------------------------------------------------------------
// Merge
// ---------------------------------------------------------------------------

// fillRegistry populates a registry with a deterministic rig-dependent
// shape, mimicking the telemetry of one of several rigs.
func fillRegistry(rig int) *Registry {
	r := NewRegistry()
	r.Counter("msgs").Add(uint64(10 * (rig + 1)))
	r.Gauge("depth").Set(int64(rig + 1))
	r.Gauge("depth").Set(int64(rig)) // leaves max at rig+1
	h := r.Histogram("lat_ns")
	for v := uint64(1); v <= 4; v++ {
		h.Observe(v * uint64(rig+1))
	}
	if rig == 0 {
		r.Counter("only0").Inc()
	}
	return r
}

func TestMergeFrom(t *testing.T) {
	dst := fillRegistry(0)
	dst.MergeFrom(fillRegistry(1))
	if got := dst.Counter("msgs").Value(); got != 30 {
		t.Fatalf("merged counter = %d, want 30", got)
	}
	if got := dst.Counter("only0").Value(); got != 1 {
		t.Fatalf("merge must keep instruments absent from src: got %d", got)
	}
	// Gauges add values and take the max of maxes.
	if got := dst.Gauge("depth").Value(); got != 1 {
		t.Fatalf("merged gauge = %d, want 1", got)
	}
	if got := dst.Gauge("depth").Max(); got != 2 {
		t.Fatalf("merged gauge max = %d, want 2", got)
	}
	h := dst.Histogram("lat_ns")
	if h.Count() != 8 || h.Sum() != 10+20 {
		t.Fatalf("merged hist count/sum = %d/%d, want 8/30", h.Count(), h.Sum())
	}
	if h.min != 1 || h.max != 8 {
		t.Fatalf("merged hist min/max = %d/%d, want 1/8", h.min, h.max)
	}
	// Merging an empty histogram must not clobber min.
	dst.MergeFrom(NewRegistry())
	empty := NewRegistry()
	empty.Histogram("lat_ns") // registered but never observed
	dst.MergeFrom(empty)
	if dst.Histogram("lat_ns").min != 1 {
		t.Fatal("merging an empty histogram must not disturb min")
	}
}

// TestMergeCommutative proves the merged report is independent of merge
// order — the property that makes a run's merged report independent of the
// order its rigs finished in.
func TestMergeCommutative(t *testing.T) {
	renderMerge := func(order []int) string {
		r := NewRegistry()
		for _, rig := range order {
			r.MergeFrom(fillRegistry(rig))
		}
		var b bytes.Buffer
		r.Snapshot(0).Render(&b)
		return b.String()
	}
	want := renderMerge([]int{0, 1, 2, 3})
	for _, order := range [][]int{{3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1}} {
		if got := renderMerge(order); got != want {
			t.Fatalf("merge order %v changed the report:\n%s\nvs\n%s", order, got, want)
		}
	}
}

// ---------------------------------------------------------------------------
// Snapshots and windows
// ---------------------------------------------------------------------------

func TestSnapshotSub(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	h := r.Histogram("d_ns")
	g := r.Gauge("depth")
	c.Add(5)
	h.Observe(100)
	g.Set(3)
	pre := r.Snapshot(10 * time.Second)
	c.Add(7)
	h.Observe(50)
	h.Observe(200)
	g.Set(1)
	d := r.Snapshot(25 * time.Second).Sub(pre)
	if d.At != 15*time.Second {
		t.Fatalf("window length = %v, want 15s", d.At)
	}
	if d.Counters["n"] != 7 {
		t.Fatalf("window counter = %d, want 7", d.Counters["n"])
	}
	if dh := d.Hists["d_ns"]; dh.Count != 2 || dh.Sum != 250 {
		t.Fatalf("window hist = %+v, want count 2 sum 250", dh)
	}
	// Gauges are levels, not rates: the window reports the end level.
	if d.Gauges["depth"] != 1 {
		t.Fatalf("window gauge = %d, want 1", d.Gauges["depth"])
	}
}

func TestSnapshotRenderDeterministic(t *testing.T) {
	r := fillRegistry(0)
	r.Counter("stage_like_ns").Add(2500)
	r.Histogram("stage/api").Observe(1500)
	var a, b bytes.Buffer
	r.Snapshot(0).Render(&a)
	r.Snapshot(0).Render(&b)
	if a.String() != b.String() {
		t.Fatal("Render must be deterministic for one registry")
	}
	out := a.String()
	if !strings.Contains(out, "2.5us") {
		t.Errorf("_ns counter must render in microseconds:\n%s", out)
	}
	if !strings.Contains(out, "stage/api") || !strings.Contains(out, "1.5us") {
		t.Errorf("stage/ histogram must render in microseconds:\n%s", out)
	}
	// Registered-but-empty histograms are omitted.
	r2 := NewRegistry()
	r2.Histogram("quiet")
	var c bytes.Buffer
	r2.Snapshot(0).Render(&c)
	if strings.Contains(c.String(), "quiet") {
		t.Error("empty histograms must not be reported")
	}
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

func TestTracer(t *testing.T) {
	tr := NewTracer(2)
	dev := tr.Track("dev0")
	host := tr.Track("host")
	tr.Emit(dev, "wr", "rdma", 10, 30)
	tr.Emit(host, "api", "broker", 40, 35) // end < start clamps to zero dur
	tr.Emit(dev, "over", "rdma", 50, 60)   // beyond capacity: dropped
	spans := tr.Spans()
	if len(spans) != 2 || tr.Dropped() != 1 {
		t.Fatalf("spans=%d dropped=%d, want 2/1", len(spans), tr.Dropped())
	}
	if spans[0] != (Span{Track: dev, Name: "wr", Cat: "rdma", Start: 10, Dur: 20}) {
		t.Fatalf("span 0 = %+v", spans[0])
	}
	if spans[1].Dur != 0 {
		t.Fatalf("negative duration must clamp to 0, got %v", spans[1].Dur)
	}
	if got := tr.Tracks(); len(got) != 2 || got[0] != "dev0" || got[1] != "host" {
		t.Fatalf("tracks = %v", got)
	}
	var nilT *Tracer
	if nilT.Track("x") != -1 {
		t.Fatal("nil tracer Track must return -1")
	}
	nilT.Emit(0, "a", "b", 0, 1)
	if nilT.Spans() != nil || nilT.Dropped() != 0 || nilT.Tracks() != nil {
		t.Fatal("nil tracer must be inert")
	}
}

func TestWriteChromeTrace(t *testing.T) {
	render := func(order []string) string {
		tracers := map[string]*Tracer{}
		for _, name := range []string{"rig-b", "rig-a"} {
			tr := NewTracer(8)
			tk := tr.Track("t")
			tr.Emit(tk, "late", "c", 20*time.Microsecond, 30*time.Microsecond)
			tr.Emit(tk, "early", "c", 10*time.Microsecond, 15*time.Microsecond)
			tracers[name] = tr
		}
		var ts TraceSet
		for _, name := range order {
			ts.Add(name, tracers[name])
		}
		var b bytes.Buffer
		if err := ts.WriteChromeTrace(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	out := render([]string{"rig-a", "rig-b"})
	// Valid Chrome trace-event JSON with the expected event population.
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var complete, meta int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			complete++
		case "M":
			meta++
		}
	}
	if complete != 4 || meta != 4 {
		t.Fatalf("events X=%d M=%d, want 4/4 (2 spans + proc/thread meta per rig)", complete, meta)
	}
	// Export sorts processes by name and spans by start time, so output is
	// independent of collection order.
	if got := render([]string{"rig-b", "rig-a"}); got != out {
		t.Fatal("trace output must not depend on tracer collection order")
	}
}

func TestTraceSetSummary(t *testing.T) {
	tr := NewTracer(1)
	tk := tr.Track("t")
	tr.Emit(tk, "a", "c", 0, 1)
	tr.Emit(tk, "b", "c", 1, 2) // dropped
	var ts TraceSet
	ts.Add("rig", tr)
	ts.Add("nil", nil) // nil tracers are skipped
	var b bytes.Buffer
	ts.WriteSummary(&b)
	out := b.String()
	if !strings.Contains(out, "1 spans from 1 simulations") || !strings.Contains(out, "1 dropped") {
		t.Fatalf("summary = %q", out)
	}
	if ts.Len() != 1 || ts.Dropped() != 1 {
		t.Fatalf("Len=%d Dropped=%d, want 1/1", ts.Len(), ts.Dropped())
	}
}

// ---------------------------------------------------------------------------
// The allocation-free contract: every hot-path update is 0 allocs/op.
// ---------------------------------------------------------------------------

func TestUpdatesDoNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	tr := NewTracer(1 << 20)
	tk := tr.Track("t")
	var nilC *Counter
	var nilG *Gauge
	var nilH *Histogram
	var nilT *Tracer

	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Add", func() { c.Add(3) }},
		{"Counter.AddDur", func() { c.AddDur(5) }},
		{"Gauge.Set", func() { g.Set(7) }},
		{"Gauge.Add", func() { g.Add(-1) }},
		{"Histogram.Observe", func() { h.Observe(12345) }},
		{"Histogram.ObserveDur", func() { h.ObserveDur(12345) }},
		{"Tracer.Emit", func() { tr.Emit(tk, "span", "cat", 1, 2) }},
		{"nil Counter.Add", func() { nilC.Add(3) }},
		{"nil Gauge.Set", func() { nilG.Set(7) }},
		{"nil Histogram.Observe", func() { nilH.Observe(9) }},
		{"nil Tracer.Emit", func() { nilT.Emit(0, "span", "cat", 1, 2) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(1000, tc.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
	// Emission past capacity (the drop path) must not allocate either.
	full := NewTracer(1)
	full.Emit(0, "a", "c", 0, 1)
	if allocs := testing.AllocsPerRun(1000, func() { full.Emit(0, "b", "c", 1, 2) }); allocs != 0 {
		t.Errorf("Tracer.Emit at capacity: %v allocs/op, want 0", allocs)
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	c := NewRegistry().Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkGaugeSet(b *testing.B) {
	g := NewRegistry().Gauge("g")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(int64(i & 1023))
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("h")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i))
	}
}

func BenchmarkTracerEmit(b *testing.B) {
	tr := NewTracer(1 << 10)
	tk := tr.Track("t")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(tk, "span", "cat", time.Duration(i), time.Duration(i+10))
	}
}
