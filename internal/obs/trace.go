package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Span is one completed interval on a track: a pipeline stage of an RDMA
// work request, a TCP message's wire time, a request's queue wait. Name and
// Cat must be static strings (span emission never allocates). Start and Dur
// are simulated time.
type Span struct {
	Track int32
	Name  string
	Cat   string
	Start time.Duration
	Dur   time.Duration
}

// Tracer collects spans into a fixed-capacity, pre-allocated buffer. Like
// the metric instruments, a nil Tracer discards everything, and emission on
// a live Tracer is a bounds check plus an append into pre-allocated backing
// storage — no allocation, no simulation side effects. When the buffer
// fills, further spans are counted as dropped rather than grown: a hard cap
// keeps tracing allocation-free and keeps worst-case memory bounded.
type Tracer struct {
	spans   []Span
	dropped uint64
	tracks  []string
}

// DefaultTraceCap is the per-simulation span capacity used by the bench
// harness: enough for every produce of a latency figure, small enough that
// a full suite with tracing stays in memory.
const DefaultTraceCap = 1 << 16

// NewTracer pre-allocates a tracer holding at most capSpans spans.
func NewTracer(capSpans int) *Tracer {
	if capSpans <= 0 {
		capSpans = DefaultTraceCap
	}
	return &Tracer{spans: make([]Span, 0, capSpans)}
}

// Track registers a named track (a device, a host, a broker thread group)
// and returns its id. Registration allocates; do it at construction time.
// On a nil Tracer it returns -1, which Emit ignores like everything else.
func (t *Tracer) Track(name string) int32 {
	if t == nil {
		return -1
	}
	t.tracks = append(t.tracks, name)
	return int32(len(t.tracks) - 1)
}

// Emit records a completed span. No-op on a nil tracer; drop-counted when
// the buffer is full.
func (t *Tracer) Emit(track int32, name, cat string, start, end time.Duration) {
	if t == nil {
		return
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return
	}
	d := end - start
	if d < 0 {
		d = 0
	}
	t.spans = append(t.spans, Span{Track: track, Name: name, Cat: cat, Start: start, Dur: d})
}

// Spans returns the collected spans (owned by the tracer).
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// Dropped reports spans discarded after the buffer filled.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Tracks returns the registered track names, indexed by track id.
func (t *Tracer) Tracks() []string {
	if t == nil {
		return nil
	}
	return t.tracks
}

// TraceSet merges the tracers of many simulations (benchmark rigs) for
// export: each tracer becomes one "process" in the Chrome trace, each of
// its tracks one "thread".
type TraceSet struct {
	procs []traceProc
}

type traceProc struct {
	name    string
	tracks  []string
	spans   []Span
	dropped uint64
}

// Add appends one simulation's tracer under the given process name.
func (ts *TraceSet) Add(name string, t *Tracer) {
	if t == nil {
		return
	}
	ts.procs = append(ts.procs, traceProc{name: name, tracks: t.Tracks(), spans: t.Spans(), dropped: t.Dropped()})
}

// Len reports the number of added tracers.
func (ts *TraceSet) Len() int { return len(ts.procs) }

// Dropped sums dropped spans across all added tracers.
func (ts *TraceSet) Dropped() uint64 {
	var n uint64
	for _, p := range ts.procs {
		n += p.dropped
	}
	return n
}

// traceEvent is one entry of the Chrome trace-event JSON format
// (chrome://tracing and https://ui.perfetto.dev both load it). Timestamps
// and durations are in microseconds; ph "X" is a complete event, ph "M"
// carries process/thread metadata.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace renders the set as Chrome trace-event JSON. Processes are
// sorted by name and spans by (start, track) so the output is deterministic
// for a deterministic simulation regardless of collection order.
func (ts *TraceSet) WriteChromeTrace(w io.Writer) error {
	procs := make([]traceProc, len(ts.procs))
	copy(procs, ts.procs)
	sort.SliceStable(procs, func(i, j int) bool { return procs[i].name < procs[j].name })

	var events []traceEvent
	for pid, p := range procs {
		events = append(events, traceEvent{
			Name: "process_name", Ph: "M", PID: pid, TID: 0,
			Args: map[string]any{"name": p.name},
		})
		for tid, track := range p.tracks {
			events = append(events, traceEvent{
				Name: "thread_name", Ph: "M", PID: pid, TID: tid,
				Args: map[string]any{"name": track},
			})
		}
		spans := make([]Span, len(p.spans))
		copy(spans, p.spans)
		sort.SliceStable(spans, func(i, j int) bool {
			if spans[i].Start != spans[j].Start {
				return spans[i].Start < spans[j].Start
			}
			return spans[i].Track < spans[j].Track
		})
		for _, s := range spans {
			tid := int(s.Track)
			if tid < 0 {
				tid = 0
			}
			events = append(events, traceEvent{
				Name: s.Name, Cat: s.Cat, Ph: "X",
				TS:  float64(s.Start) / 1e3,
				Dur: float64(s.Dur) / 1e3,
				PID: pid, TID: tid,
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events})
}

// WriteSummary prints per-process span counts (and drops, if any) — the
// stderr note kdbench prints next to the trace file path.
func (ts *TraceSet) WriteSummary(w io.Writer) {
	total := 0
	for _, p := range ts.procs {
		total += len(p.spans)
	}
	fmt.Fprintf(w, "%d spans from %d simulations", total, len(ts.procs))
	if d := ts.Dropped(); d > 0 {
		fmt.Fprintf(w, " (%d dropped at capacity)", d)
	}
	fmt.Fprintln(w)
}
