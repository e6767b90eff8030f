package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// hostSample is one reading of every host-side counter the harness reports.
// All of them are cumulative, so a pass's cost is the difference of two
// readings. Reading takes no stop-the-world pause (runtime/metrics, not
// runtime.ReadMemStats), so sampling does not perturb the pass it brackets.
type hostSample struct {
	at       time.Time
	user     time.Duration
	sys      time.Duration
	allocB   uint64
	allocN   uint64
	gcCycles uint64
	gcCPU    float64 // seconds
}

var hostMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readHost() hostSample {
	samples := make([]metrics.Sample, len(hostMetricNames))
	for i, n := range hostMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	u64 := func(i int) uint64 {
		if samples[i].Value.Kind() == metrics.KindUint64 {
			return samples[i].Value.Uint64()
		}
		return 0
	}
	s := hostSample{allocB: u64(0), allocN: u64(1), gcCycles: u64(2)}
	if samples[3].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = samples[3].Value.Float64()
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.user = time.Duration(ru.Utime.Nano())
		s.sys = time.Duration(ru.Stime.Nano())
	}
	s.at = time.Now()
	return s
}

// peakRSSMB is the process's high-water resident set. It only ever rises, so
// it is read once at the end of a run, not per pass.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostCost is the host-side cost of one pass.
type hostCost struct {
	WallS    float64 `json:"wall_s"`
	CPUS     float64 `json:"cpu_s"`
	SysS     float64 `json:"sys_s"`
	AllocMB  float64 `json:"alloc_mb"`
	AllocsK  float64 `json:"allocs_k"`
	GCCPUS   float64 `json:"gc_cpu_s"`
	GCCycles float64 `json:"gc_cycles"`
}

func (a hostSample) until(b hostSample) hostCost {
	return hostCost{
		WallS:    b.at.Sub(a.at).Seconds(),
		CPUS:     (b.user - a.user + b.sys - a.sys).Seconds(),
		SysS:     (b.sys - a.sys).Seconds(),
		AllocMB:  float64(b.allocB-a.allocB) / 1e6,
		AllocsK:  float64(b.allocN-a.allocN) / 1e3,
		GCCPUS:   b.gcCPU - a.gcCPU,
		GCCycles: float64(b.gcCycles - a.gcCycles),
	}
}

// timed runs fn between two host samples. Two forced collections first give
// every pass the same start: no garbage of the pass before, and empty buffer
// pools (sync.Pool keeps a victim generation through one collection). With
// one collection, whether a pooled 64 MiB segment survived into the pass was
// luck, and stream's alloc_mb flipped between 593 and 660 MB.
func timed(fn func()) hostCost {
	runtime.GC()
	runtime.GC()
	a := readHost()
	fn()
	return a.until(readHost())
}

func allocObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// quartiles returns the first quartile, median and third quartile of xs by
// linear interpolation between order statistics (one value: all three equal).
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	}
	return at(0.25), at(0.5), at(0.75)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// column extracts one field of every pass.
func column(costs []hostCost, f func(hostCost) float64) []float64 {
	out := make([]float64, len(costs))
	for i, c := range costs {
		out[i] = f(c)
	}
	return out
}
