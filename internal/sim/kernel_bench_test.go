package sim

import (
	"testing"
	"time"
)

// BenchmarkKernelEventsPerSec measures the raw event loop: a chain of inline
// timer events, one dispatch each, no process involvement. With the concrete
// 4-ary heap this path performs zero allocations per event (container/heap
// boxed every push into an interface value).
func BenchmarkKernelEventsPerSec(b *testing.B) {
	e := NewEnv(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(time.Microsecond, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.After(time.Microsecond, tick)
	e.Run()
	b.StopTimer()
	if n != b.N {
		b.Fatalf("executed %d events, want %d", n, b.N)
	}
	rate := float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(rate, "events/sec")
}

// BenchmarkKernelProcessSwitch measures a self-wake: the only process sleeps,
// runs the event loop itself, pops its own resume and returns from Sleep — a
// heap push and pop, no switch. perf's sim.switch rung is this shape; despite
// both names, nothing switches here. The cross-process cost is the two
// benchmarks below: the cheapest shape a chain can take, and the dearest.
func BenchmarkKernelProcessSwitch(b *testing.B) {
	e := NewEnv(1)
	b.ReportAllocs()
	b.ResetTimer()
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	e.Run()
}

// BenchmarkKernelProcessHandoff measures a cross-process wake through a
// Queue: two processes ping-pong a token, so every Pop parks and finds the
// other process next in the heap. One of the two drives the other: it resumes
// it directly, and gets its own wake-up back as a yield — one coroutine switch
// per op. perf's sim.queue_wake rung is the same path (it pushes from a
// callback instead of from a peer).
func BenchmarkKernelProcessHandoff(b *testing.B) {
	e := NewEnv(1)
	ping, pong := NewQueue[int](), NewQueue[int]()
	b.ReportAllocs()
	b.ResetTimer()
	e.Go("ping", func(p *Proc) {
		for i := 0; i < b.N; i += 2 {
			ping.Push(i)
			pong.Pop(p)
		}
	})
	e.Go("pong", func(p *Proc) {
		for i := 0; i < b.N; i += 2 {
			pong.Push(ping.Pop(p))
		}
	})
	e.Run()
}

// BenchmarkKernelProcessFanIn measures timer-driven cross-process wakes:
// eight sleepers with the same period at distinct phases, so the process
// that parks is never the one whose timer expires next and every resume is
// a switch. They form a ring, the longest chain eight processes can make:
// seven resumes down and seven yields back up per lap, 1.75 switches per op
// (TestRingSwitches pins it). The stream workload's publishers and pollers
// have this shape; no perf rung isolates it (sim.switch has a single sleeper).
func BenchmarkKernelProcessFanIn(b *testing.B) {
	const sleepers = 8
	e := NewEnv(1)
	b.ReportAllocs()
	b.ResetTimer()
	for s := 0; s < sleepers; s++ {
		phase := Time(s) * time.Microsecond
		n := (b.N + sleepers - 1 - s) / sleepers
		e.Go("sleeper", func(p *Proc) {
			p.Sleep(phase)
			for i := 0; i < n; i++ {
				p.Sleep(sleepers * time.Microsecond)
			}
		})
	}
	e.Run()
}

// BenchmarkQueuePushPop measures the ring buffer at steady state (push one,
// pop one): no allocations once the ring has grown to its working size.
func BenchmarkQueuePushPop(b *testing.B) {
	q := NewQueue[int]()
	for i := 0; i < 64; i++ {
		q.Push(i) // pre-grow the ring past the benchmark's working set
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(i)
		if _, ok := q.TryPop(); !ok {
			b.Fatal("queue unexpectedly empty")
		}
	}
}

// BenchmarkHeapPushPop isolates the event heap: push/pop with a shifting
// time pattern, asserting the zero-allocation property of the hot path.
func BenchmarkHeapPushPop(b *testing.B) {
	var h eventHeap
	for i := 0; i < 256; i++ {
		h.push(event{at: Time(i), seq: uint64(i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.push(event{at: Time(i % 512), seq: uint64(i)})
		h.pop()
	}
}
