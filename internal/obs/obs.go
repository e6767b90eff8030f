// Package obs is the deterministic, simulation-clock-only observability
// layer: an allocation-free metrics registry (counters, gauges, fixed-bucket
// log-scale histograms) plus a span tracer (trace.go) that records the
// lifecycle of RDMA work requests and TCP requests.
//
// # The zero-perturbation contract
//
// Telemetry must never change what a simulation does: every figure table
// stays byte-identical with obs enabled or disabled, at any workers x shards
// setting. The package enforces the contract structurally:
//
//   - no obs call schedules a simulation event, acquires a resource, or
//     sleeps — metric updates and span emissions are pure memory writes;
//   - every update method is a no-op on a nil receiver, so instrumented
//     layers hold (possibly nil) handles and call them unconditionally —
//     disabled telemetry costs one nil check per site;
//   - nothing on the hot path allocates: metric instruments are created
//     once (at registration, off the hot path) and histograms use a fixed
//     bucket array; span buffers are pre-allocated and drop-counted when
//     full (obs_test.go pins all update paths at 0 allocs/op).
//
// Sharding: a Registry is owned by exactly one simulation (one sim.Env, or
// one shard of a sim.ShardGroup). Per-shard registries follow the ShardGroup
// state contract — no cross-shard writes — and are merged canonically with
// MergeFrom in ascending shard order at barriers (all merge operations are
// commutative sums, so the merged snapshot is layout-independent).
//
// Naming scheme: metric names are slash-separated paths, "<layer>/<metric>"
// ("rdma/wr_posted", "broker/queue_depth"), with latency-attribution stage
// histograms under "stage/" (DESIGN.md §10 lists the taxonomy). Values are
// dimensionless counts unless the name ends in a unit suffix ("_ns",
// "_bytes").
package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"time"
)

// Counter is a monotonically increasing uint64. A nil Counter discards
// updates, so disabled telemetry needs no branches at call sites.
type Counter struct {
	v uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v += n
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// AddDur accumulates a duration in nanoseconds; negative durations are
// clamped to zero (a defensive guard — stages are measured between causally
// ordered timestamps, which cannot go backwards on one simulation clock).
func (c *Counter) AddDur(d time.Duration) {
	if c == nil || d <= 0 {
		return
	}
	c.v += uint64(d)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is an instantaneous int64 level (queue depth, lag) that also tracks
// its high-water mark. A nil Gauge discards updates.
type Gauge struct {
	v   int64
	max int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v = v
	if v > g.max {
		g.max = v
	}
}

// Add shifts the gauge by d.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.Set(g.v + d)
}

// Value returns the current level (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Max returns the high-water mark (0 on nil).
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max
}

// HistBuckets is the fixed bucket count of every histogram: bucket i counts
// observations v with bits.Len64(v) == i, i.e. power-of-two ranges
// [2^(i-1), 2^i). Bucket 0 counts zero observations.
const HistBuckets = 64

// Histogram is a fixed-bucket log2-scale histogram of uint64 observations
// (typically durations in nanoseconds or sizes in bytes). The exact sum and
// count are kept alongside the buckets, so means are exact and only
// quantiles are bucket-approximated. A nil Histogram discards updates.
type Histogram struct {
	count   uint64
	sum     uint64
	min     uint64
	max     uint64
	buckets [HistBuckets]uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bits.Len64(v)]++
}

// ObserveDur records a duration observation in nanoseconds (negative
// durations clamp to zero).
func (h *Histogram) ObserveDur(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the exact sum of observations (0 on nil).
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Mean returns the exact mean observation, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns a bucket-resolution approximation of the q-quantile
// (0 <= q <= 1): the upper bound of the bucket holding the q-th observation.
func (h *Histogram) Quantile(q float64) uint64 {
	if h == nil || h.count == 0 {
		return 0
	}
	rank := uint64(q * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	var seen uint64
	for i, n := range h.buckets {
		seen += n
		if seen > rank {
			if i == 0 {
				return 0
			}
			upper := uint64(1) << uint(i)
			if upper-1 > h.max {
				return h.max
			}
			return upper - 1
		}
	}
	return h.max
}

// Registry holds a simulation's metric instruments, keyed by name. It is
// owned by exactly one simulation (or one shard) and is not safe for
// concurrent use — the owning simulation runs one process at a time. A nil
// Registry returns nil instruments from every constructor, which in turn
// discard updates.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Call at
// construction time and cache the handle; creation may allocate.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g, ok := r.gauges[name]
	if !ok {
		g = new(Gauge)
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.hists[name]
	if !ok {
		h = new(Histogram)
		r.hists[name] = h
	}
	return h
}

// MergeFrom folds another registry's state into r: counters and histograms
// add, gauges add values and take the max of maxes. All operations are
// commutative and associative, so merging per-shard registries yields the
// same result for every shard layout; merge in ascending shard order anyway
// (the canonical barrier order of the ShardGroup contract).
func (r *Registry) MergeFrom(src *Registry) {
	if r == nil || src == nil {
		return
	}
	for name, c := range src.counters {
		r.Counter(name).Add(c.v)
	}
	for name, g := range src.gauges {
		dst := r.Gauge(name)
		dst.v += g.v
		if g.max > dst.max {
			dst.max = g.max
		}
	}
	for name, h := range src.hists {
		dst := r.Histogram(name)
		if h.count == 0 {
			continue
		}
		if dst.count == 0 || h.min < dst.min {
			dst.min = h.min
		}
		if h.max > dst.max {
			dst.max = h.max
		}
		dst.count += h.count
		dst.sum += h.sum
		for i := range h.buckets {
			dst.buckets[i] += h.buckets[i]
		}
	}
}

// HistSnapshot is a histogram's state at snapshot time.
type HistSnapshot struct {
	Count, Sum, Min, Max uint64
	Buckets              [HistBuckets]uint64
}

// Mean returns the snapshot's exact mean.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Snapshot is a registry's state at one simulated instant. Sub yields the
// delta between two snapshots — a per-simulated-time-window view.
type Snapshot struct {
	At       time.Duration
	Counters map[string]uint64
	Gauges   map[string]int64
	Hists    map[string]HistSnapshot
}

// Snapshot captures the registry's current state, stamped with the given
// simulated time. Snapshotting allocates; take snapshots at window
// boundaries, not on hot paths.
func (r *Registry) Snapshot(at time.Duration) Snapshot {
	s := Snapshot{
		At:       at,
		Counters: make(map[string]uint64),
		Gauges:   make(map[string]int64),
		Hists:    make(map[string]HistSnapshot),
	}
	if r == nil {
		return s
	}
	for name, c := range r.counters {
		s.Counters[name] = c.v
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.v
	}
	for name, h := range r.hists {
		s.Hists[name] = HistSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max, Buckets: h.buckets}
	}
	return s
}

// Sub returns the window delta s - prev: counter and histogram differences
// since prev, gauges at their current (end-of-window) level. Instruments
// absent from prev count from zero.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	d := Snapshot{
		At:       s.At - prev.At,
		Counters: make(map[string]uint64),
		Gauges:   make(map[string]int64),
		Hists:    make(map[string]HistSnapshot),
	}
	for name, v := range s.Counters {
		d.Counters[name] = v - prev.Counters[name]
	}
	for name, v := range s.Gauges {
		d.Gauges[name] = v
	}
	for name, h := range s.Hists {
		p := prev.Hists[name]
		dh := HistSnapshot{Count: h.Count - p.Count, Sum: h.Sum - p.Sum, Min: h.Min, Max: h.Max}
		for i := range h.Buckets {
			dh.Buckets[i] = h.Buckets[i] - p.Buckets[i]
		}
		d.Hists[name] = dh
	}
	return d
}

// Render writes the snapshot as a sorted, deterministic text report:
// counters, then gauges (value and high-water mark), then histograms
// (count, mean, approximate p50/p99, max). Duration-valued instruments
// (name suffix "_ns" or under "stage/") print in microseconds.
func (s Snapshot) Render(w io.Writer) {
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if isDurName(name) {
			fmt.Fprintf(w, "counter %-36s %.1fus\n", name, float64(s.Counters[name])/1e3)
		} else {
			fmt.Fprintf(w, "counter %-36s %d\n", name, s.Counters[name])
		}
	}
	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "gauge   %-36s %d\n", name, s.Gauges[name])
	}
	names = names[:0]
	for name := range s.Hists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.Hists[name]
		if h.Count == 0 {
			continue
		}
		if isDurName(name) {
			fmt.Fprintf(w, "hist    %-36s n=%d mean=%.1fus p50=%.1fus p99=%.1fus max=%.1fus\n",
				name, h.Count, h.Mean()/1e3,
				float64(h.quantile(0.50))/1e3, float64(h.quantile(0.99))/1e3, float64(h.Max)/1e3)
		} else {
			fmt.Fprintf(w, "hist    %-36s n=%d mean=%.1f p50=%d p99=%d max=%d\n",
				name, h.Count, h.Mean(), h.quantile(0.50), h.quantile(0.99), h.Max)
		}
	}
}

// quantile mirrors Histogram.Quantile on a snapshot.
func (s HistSnapshot) quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var seen uint64
	for i, n := range s.Buckets {
		seen += n
		if seen > rank {
			if i == 0 {
				return 0
			}
			upper := uint64(1) << uint(i)
			if upper-1 > s.Max {
				return s.Max
			}
			return upper - 1
		}
	}
	return s.Max
}

// isDurName reports whether a metric name holds nanosecond durations by the
// package naming scheme.
func isDurName(name string) bool {
	if len(name) >= 6 && name[:6] == "stage/" {
		return true
	}
	return len(name) >= 3 && name[len(name)-3:] == "_ns"
}
