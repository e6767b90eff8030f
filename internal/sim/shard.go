// Sharded conservative-parallel execution: one big simulated cluster spread
// over several event heaps that can run on several cores.
//
// A ShardGroup owns N shard environments. Each shard is a full Env — its own
// 4-ary event heap, its own insertion-sequence counter, its own processes —
// and executes completely independently inside a synchronization window. The
// algorithm is the classic windowed ("YAWNS"-style) conservative protocol:
// cross-shard interaction has a minimum latency L (the fabric's propagation
// delay, the lookahead), so every event in [T, T+L) is causally independent
// of events other shards execute in the same window, and shards may run the
// window concurrently without ever seeing an event out of timestamp order.
//
//	for {
//	    drain cross-shard handoffs (canonically ordered)   // barrier
//	    T    = min over shards of next event time
//	    run every shard's events in [T, T+L) in parallel   // barrier
//	}
//
// Cross-shard interaction happens only through handoffs: a shard posts a
// record into a single-producer/single-consumer ring dedicated to the
// (source shard, destination shard) pair — no locks, no atomics on the hot
// path — and the destination drains its rings at the next window boundary.
//
// Determinism is the load-bearing invariant, and it is stronger than "same
// seed, same results": results are byte-identical for ANY shard count,
// including one. Three rules make that hold:
//
//  1. Handoffs are drained in a canonical order — (ready time, source rank,
//     source sequence) — where the rank is a partition-independent identity
//     (a fabric node's creation rank) and the sequence is a per-source
//     counter. Which ring a handoff travelled through, and when it was
//     physically appended, never matters.
//  2. Window boundaries are partition-independent: T is the global minimum
//     next-event time and L is a constant, so every layout executes the same
//     window sequence and drains the same handoff batches.
//  3. Simulation state is shard-local (held by the -race stages of
//     scripts/check.sh, whose shard matrices run SetParallel > 1, and by the
//     layout determinism matrices), and randomness comes from KeyedRand
//     streams keyed by node identity, never from execution order or layout.
//
// Under rule 1, even a single-shard group buffers inter-node handoffs until
// the window boundary; shards=1 is the same algorithm with no concurrency,
// which is exactly what makes shards=N byte-identical to it.
package sim

import (
	"fmt"
	"math/rand"
	"slices"
)

// handoff is one cross-shard message: run fn (or fnArg(arg)) on the
// destination shard at the next window boundary. at is the earliest virtual
// time the handoff may take effect; rank/seq are the canonical ordering key.
type handoff struct {
	at    Time
	rank  uint64
	seq   uint64
	fn    func()
	fnArg func(any)
	arg   any
}

// handoffRing is the single-producer/single-consumer buffer for one ordered
// (source, destination) shard pair. The source appends during its window; the
// destination swaps the batch out at the barrier. Capacity is retained across
// windows, so the steady state allocates nothing.
type handoffRing struct {
	buf []handoff
}

// ShardGroup coordinates N shard environments under the windowed
// conservative protocol. Create with NewShardGroup, spawn processes and
// schedule events on the per-shard Envs (Shard), and drive with Run/RunUntil.
type ShardGroup struct {
	look   Time
	shards []*Env

	// out[src][dst] is the handoff ring written by shard src for shard dst.
	out [][]handoffRing
	// inbox[dst] is dst's merge scratch, reused every drain.
	inbox [][]handoff
	// drained[dst] counts handoffs delivered to dst (written only by dst's
	// drain, read after barriers).
	drained []uint64

	// windowEnd is the execution bound of the current window; posts must not
	// target a time before it (they would be delivered into the past).
	windowEnd Time

	parallel int
	workers  []chan workerCmd
	done     chan struct{} // one completion token per finished worker command
	sem      chan struct{} // bounds concurrently executing shards (nil: no cap)
}

type workerCmd struct {
	phase uint8 // phaseDrain or phaseRun
	end   Time
}

const (
	phaseDrain = iota
	phaseRun
)

// NewShardGroup returns a group of nShards environments with the given
// conservative lookahead: the minimum virtual-time latency of every
// cross-shard interaction (the fabric's propagation delay). Each shard's Env
// gets a distinct seed derived from seed — but shard-local Env.Rand streams
// depend on the layout, so sharded models must draw from KeyedRand streams
// keyed by node identity instead.
func NewShardGroup(nShards int, lookahead Time, seed int64) *ShardGroup {
	if nShards <= 0 {
		panic(fmt.Sprintf("sim: shard count %d", nShards))
	}
	if lookahead <= 0 {
		panic("sim: lookahead must be positive")
	}
	g := &ShardGroup{
		look:     lookahead,
		shards:   make([]*Env, nShards),
		out:      make([][]handoffRing, nShards),
		inbox:    make([][]handoff, nShards),
		drained:  make([]uint64, nShards),
		parallel: 1,
	}
	for i := range g.shards {
		g.shards[i] = NewEnv(mix64(uint64(seed), uint64(i)+1))
		g.out[i] = make([]handoffRing, nShards)
	}
	return g
}

// Shards reports the number of shards.
func (g *ShardGroup) Shards() int { return len(g.shards) }

// Shard returns shard i's environment.
func (g *ShardGroup) Shard(i int) *Env { return g.shards[i] }

// Lookahead returns the conservative lookahead the group was built with.
func (g *ShardGroup) Lookahead() Time { return g.look }

// SetParallel bounds how many shards execute concurrently: 1 (the default)
// runs the windowed algorithm inline on the calling goroutine with zero
// synchronization overhead; n > 1 executes windows on per-shard worker
// goroutines. n is clamped to the shard count; 0 keeps the current value.
// Results are identical for every setting — only wall time changes.
func (g *ShardGroup) SetParallel(n int) {
	if n <= 0 {
		return
	}
	if n > len(g.shards) {
		n = len(g.shards)
	}
	g.parallel = n
	if n > 1 && n < len(g.shards) {
		g.sem = make(chan struct{}, n)
	} else {
		g.sem = nil
	}
}

// Parallel reports the configured shard-execution parallelism.
func (g *ShardGroup) Parallel() int { return g.parallel }

// Post schedules fn to run on shard dst at the next window boundary, taking
// effect no earlier than virtual time at. (rank, seq) is the canonical
// ordering key: rank a partition-independent source identity (ranks ≥ 1;
// rank 0 is reserved for Broadcast), seq a per-source counter. fn runs in
// dst's scheduler context between windows; it must not block, and it must
// only SCHEDULE work (Env.At/AtArg at a time ≥ at) and touch dst-local
// state. at must be at least lookahead past the posting shard's clock.
func (g *ShardGroup) Post(src, dst int, at Time, rank, seq uint64, fn func()) {
	if at < g.windowEnd {
		panic(fmt.Sprintf("sim: handoff at %v posted into the past (window end %v); the poster broke the lookahead contract", at, g.windowEnd))
	}
	r := &g.out[src][dst]
	r.buf = append(r.buf, handoff{at: at, rank: rank, seq: seq, fn: fn})
}

// PostArg is Post for allocation-free hot paths: fn is a shared function
// applied to a pooled argument record, so no closure is materialised per
// handoff (see Env.AtArg).
func (g *ShardGroup) PostArg(src, dst int, at Time, rank, seq uint64, fn func(any), arg any) {
	if at < g.windowEnd {
		panic(fmt.Sprintf("sim: handoff at %v posted into the past (window end %v); the poster broke the lookahead contract", at, g.windowEnd))
	}
	r := &g.out[src][dst]
	r.buf = append(r.buf, handoff{at: at, rank: rank, seq: seq, fnArg: fn, arg: arg})
}

// Broadcast posts one handoff per shard with ordering time at: fn(shard)
// runs once per shard in DRAIN context (like every handoff callback), so to
// take effect at virtual time at it must schedule onto the shard's Env.
// Fault injection uses it to update each shard's replicated view of global
// state (link cuts, node crashes) at the same canonical instant. seq must be
// a caller-maintained
// counter that is identical across shard layouts (e.g. fault-schedule
// order). Must be posted before Run: posting from window or drain execution
// would race with the single-producer discipline of the rings.
func (g *ShardGroup) Broadcast(at Time, seq uint64, fn func(shard int)) {
	for i := range g.shards {
		i := i
		g.Post(0, i, at, 0, seq, func() { fn(i) })
	}
}

// cmpHandoff orders handoffs canonically: ready time, then source rank, then
// source sequence. Keys are unique (seq is a per-rank counter), so the order
// is total and partition-independent.
func cmpHandoff(a, b handoff) int {
	switch {
	case a.at != b.at:
		if a.at < b.at {
			return -1
		}
		return 1
	case a.rank != b.rank:
		if a.rank < b.rank {
			return -1
		}
		return 1
	case a.seq < b.seq:
		return -1
	case a.seq > b.seq:
		return 1
	}
	return 0
}

// drainShard merges every source ring targeting dst into canonical order and
// runs the handoffs in dst's scheduler context. Runs on dst's worker (or
// inline); it only touches dst-owned state.
func (g *ShardGroup) drainShard(dst int) {
	buf := g.inbox[dst][:0]
	for src := range g.shards {
		r := &g.out[src][dst]
		if len(r.buf) == 0 {
			continue
		}
		buf = append(buf, r.buf...)
		clear(r.buf) // release fn/arg references immediately
		r.buf = r.buf[:0]
	}
	if len(buf) == 0 {
		return
	}
	slices.SortFunc(buf, cmpHandoff)
	g.drained[dst] += uint64(len(buf))
	for i := range buf {
		h := &buf[i]
		if h.fn != nil {
			h.fn()
		} else {
			h.fnArg(h.arg)
		}
	}
	clear(buf)
	g.inbox[dst] = buf[:0]
}

// pendingFor reports whether any ring targeting dst holds handoffs. Called
// at barriers only (all workers quiescent).
func (g *ShardGroup) pendingFor(dst int) bool {
	for src := range g.shards {
		if len(g.out[src][dst].buf) > 0 {
			return true
		}
	}
	return false
}

// ensureWorkers lazily starts one worker goroutine per shard.
func (g *ShardGroup) ensureWorkers() {
	if g.workers != nil {
		return
	}
	g.workers = make([]chan workerCmd, len(g.shards))
	g.done = make(chan struct{}, len(g.shards))
	for i := range g.shards {
		cmd := make(chan workerCmd, 1)
		g.workers[i] = cmd
		go func(i int) {
			for c := range cmd {
				if g.sem != nil {
					g.sem <- struct{}{}
				}
				if c.phase == phaseDrain {
					g.drainShard(i)
				} else {
					g.shards[i].runBefore(c.end)
				}
				if g.sem != nil {
					<-g.sem
				}
				g.done <- struct{}{}
			}
		}(i)
	}
}

// dispatch fans a phase out to the flagged shards and waits for all of them
// — the barrier of the windowed protocol. The worker handshake (buffered
// channel send per command, one completion token per worker) allocates
// nothing in steady state.
func (g *ShardGroup) dispatch(phase uint8, end Time, active []bool) {
	n := 0
	for i, on := range active {
		if on {
			g.workers[i] <- workerCmd{phase: phase, end: end}
			n++
		}
	}
	for ; n > 0; n-- {
		<-g.done
	}
}

// nextTime returns the globally earliest pending event time.
func (g *ShardGroup) nextTime() (Time, bool) {
	var t Time
	found := false
	for _, e := range g.shards {
		if e.events.len() == 0 {
			continue
		}
		if at := e.events.a[0].at; !found || at < t {
			t, found = at, true
		}
	}
	return t, found
}

func (g *ShardGroup) anyStopped() bool {
	for _, e := range g.shards {
		if e.stopped {
			return true
		}
	}
	return false
}

// Run executes the group until no events or handoffs remain anywhere, or a
// shard calls Stop.
func (g *ShardGroup) Run() { g.RunUntil(-1) }

// RunUntil is Run with a deadline (inclusive, matching Env.RunUntil):
// events at exactly deadline still execute, and every shard's clock ends at
// the deadline. deadline < 0 means no deadline.
func (g *ShardGroup) RunUntil(deadline Time) {
	par := g.parallel > 1 && len(g.shards) > 1
	if par {
		g.ensureWorkers()
	}
	// active is scratch for the dispatch bitmaps (reused, no allocs).
	var active []bool
	if par {
		active = make([]bool, len(g.shards))
	}
	for {
		// Phase A: drain last window's handoffs at the barrier.
		if par {
			n := 0
			for dst := range g.shards {
				active[dst] = g.pendingFor(dst)
				if active[dst] {
					n++
				}
			}
			if n == 1 {
				// One busy shard: run it inline, skip the handshake.
				for dst, on := range active {
					if on {
						g.drainShard(dst)
					}
				}
			} else if n > 1 {
				g.dispatch(phaseDrain, 0, active)
			}
		} else {
			for dst := range g.shards {
				g.drainShard(dst)
			}
		}
		// Phase B: find the window and execute it.
		t, ok := g.nextTime()
		if !ok {
			break
		}
		if deadline >= 0 && t > deadline {
			break
		}
		end := t + g.look
		if deadline >= 0 && end > deadline {
			// Shrink the final window so events at exactly the deadline run
			// (end stays ≤ t+lookahead, preserving the conservative bound).
			end = deadline + 1
		}
		g.windowEnd = end
		if par {
			n := 0
			for i, e := range g.shards {
				active[i] = e.events.len() > 0 && e.events.a[0].at < end
				if active[i] {
					n++
				}
			}
			if n == 1 {
				for i, on := range active {
					if on {
						g.shards[i].runBefore(end)
					}
				}
			} else if n > 1 {
				g.dispatch(phaseRun, end, active)
			}
		} else {
			for _, e := range g.shards {
				e.runBefore(end)
			}
		}
		if g.anyStopped() {
			return
		}
	}
	if deadline >= 0 {
		for _, e := range g.shards {
			e.advanceTo(deadline)
		}
	}
}

// Now reports the latest shard clock (all shards agree after a deadline run).
func (g *ShardGroup) Now() Time {
	var t Time
	for _, e := range g.shards {
		if e.now > t {
			t = e.now
		}
	}
	return t
}

// Executed reports the total events dispatched across all shards.
func (g *ShardGroup) Executed() uint64 {
	var n uint64
	for _, e := range g.shards {
		n += e.executed
	}
	return n
}

// Switches reports the total coroutine switches made across all shards.
func (g *ShardGroup) Switches() uint64 {
	var n uint64
	for _, e := range g.shards {
		n += e.switches
	}
	return n
}

// ExecutedOn reports the events dispatched by shard i (per-shard rates show
// load balance across the partition).
func (g *ShardGroup) ExecutedOn(i int) uint64 { return g.shards[i].executed }

// Handoffs reports the total cross-shard handoffs delivered.
func (g *ShardGroup) Handoffs() uint64 {
	var n uint64
	for _, d := range g.drained {
		n += d
	}
	return n
}

// Pending reports scheduled events plus undelivered handoffs (diagnostic).
func (g *ShardGroup) Pending() int {
	n := 0
	for _, e := range g.shards {
		n += e.Pending()
	}
	for dst := range g.shards {
		for src := range g.shards {
			n += len(g.out[src][dst].buf)
		}
	}
	return n
}

// Shutdown unwinds every shard's remaining processes and stops the worker
// goroutines. The group must not be used afterwards.
func (g *ShardGroup) Shutdown() {
	for _, w := range g.workers {
		close(w)
	}
	g.workers = nil
	for _, e := range g.shards {
		e.Shutdown()
	}
}

// ---------------------------------------------------------------------------
// Keyed randomness
// ---------------------------------------------------------------------------

// KeyedRand returns a deterministic random stream that depends only on
// (seed, key) — never on shard layout or execution order. Sharded models
// key every actor's stream by its stable identity (the fabric node name), so
// the byte-identical guarantee holds across shard counts. The key is hashed
// with FNV-1a and finalized with splitmix64.
func KeyedRand(seed int64, key string) *rand.Rand {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return rand.New(rand.NewSource(mix64(h, uint64(seed))))
}

// mix64 combines two words through a splitmix64 finalizer, decorrelating
// adjacent seeds and keys.
func mix64(a, b uint64) int64 {
	x := a ^ (b * 0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}
