package sim

import (
	"fmt"
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
	b.ReportMetric(rate, "events/sec/shard") // one heap: per-shard == aggregate
}

// BenchmarkShardGroupEventsPerSec measures the windowed sharded kernel: per
// shard, a chain of local timer events (the common case) with every 16th
// tick posting a cross-shard handoff to the next shard (the fabric case).
// Reports aggregate and per-shard events/s; the steady-state path — local
// dispatch, window barriers, handoff post/drain — performs zero allocations.
// parallel=1 exercises the inline path; parallel=shards the worker path.
func BenchmarkShardGroupEventsPerSec(b *testing.B) {
	for _, cfg := range []struct{ shards, parallel int }{
		{1, 1}, {4, 1}, {4, 4}, {8, 1}, {8, 8},
	} {
		b.Run(fmt.Sprintf("shards=%d,parallel=%d", cfg.shards, cfg.parallel), func(b *testing.B) {
			benchShardGroup(b, cfg.shards, cfg.parallel)
		})
	}
}

func benchShardGroup(b *testing.B, shards, parallel int) {
	const look = 10 * time.Microsecond
	g := NewShardGroup(shards, look, 1)
	g.SetParallel(parallel)
	type hopMsg struct {
		at  Time
		dst int
	}
	// Pooled handoff records migrate src→dst and are released into the
	// DESTINATION shard's free list, so every pool touch is shard-local —
	// the same discipline the sharded fabric uses.
	pools := make([][]*hopMsg, shards)
	for s := range pools {
		for i := 0; i < 64; i++ {
			pools[s] = append(pools[s], new(hopMsg))
		}
	}
	hopDone := func(a any) {
		m := a.(*hopMsg)
		pools[m.dst] = append(pools[m.dst], m)
	}
	hopArrive := func(a any) {
		m := a.(*hopMsg)
		g.Shard(m.dst).AtArg(m.at, hopDone, m)
	}
	type tickState struct {
		shard int
		n     int
		limit int
		hseq  uint64
	}
	var tick func(any)
	tick = func(a any) {
		t := a.(*tickState)
		t.n++
		env := g.Shard(t.shard)
		if t.n%16 == 0 {
			dst := (t.shard + 1) % shards
			p := pools[t.shard]
			m := p[len(p)-1]
			pools[t.shard] = p[:len(p)-1]
			m.at, m.dst = env.Now()+look, dst
			t.hseq++
			g.PostArg(t.shard, dst, m.at, uint64(t.shard)+1, t.hseq, hopArrive, m)
		}
		if t.n < t.limit {
			env.AfterArg(time.Microsecond, tick, t)
		}
	}
	per := (b.N + shards - 1) / shards
	states := make([]*tickState, shards)
	for s := range states {
		states[s] = &tickState{shard: s, limit: per}
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := g.Now() + time.Microsecond
	for s, st := range states {
		g.Shard(s).AtArg(start, tick, st)
	}
	g.Run()
	b.StopTimer()
	for _, st := range states {
		if st.n != st.limit {
			b.Fatalf("shard %d executed %d ticks, want %d", st.shard, st.n, st.limit)
		}
	}
	rate := float64(g.Executed()) / b.Elapsed().Seconds()
	b.ReportMetric(rate, "events/sec")
	b.ReportMetric(rate/float64(shards), "events/sec/shard")
	b.ReportMetric(float64(g.Handoffs())/float64(b.N), "handoffs/op")
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
