package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

// The scheduler contract: which stack runs the event loop is an
// implementation detail, the order of events is not. progRun executes a
// seeded random program over every blocking primitive and folds what each
// dispatch observed into one hash; the hashes below were generated with the
// scheduler goroutine two kernels ago (before the channel baton, which came
// before the coroutines) and must never change.

const us = time.Microsecond

// progOp is one step of a generated process program.
type progOp struct {
	kind byte
	obj  int  // queue / cond index
	d    Time // sleep length, timeout, or callback delay
	body []progOp
}

const (
	opSleep = iota
	opYield
	opPop
	opPopTimeout
	opPush
	opPushLater // Push from an inline callback
	opWait
	opWaitTimeout
	opSignal
	opSignalLater // Signal from an inline callback
	opBroadcast
	opUse
	opSpawn
	opStop
	opStopLater // Stop from an inline callback
	numOps
)

// genProg draws a program of n ops; depth bounds nested spawns.
func genProg(rng *rand.Rand, n, depth int) []progOp {
	ops := make([]progOp, n)
	for i := range ops {
		op := progOp{kind: byte(rng.Intn(numOps)), obj: rng.Intn(2), d: Time(rng.Intn(6)) * us}
		switch op.kind {
		case opStop, opStopLater:
			// Keep stops rare: most draws become sleeps.
			if rng.Intn(4) != 0 {
				op.kind = opSleep
			}
		case opSpawn:
			if depth == 0 {
				op.kind = opYield
			} else {
				op.body = genProg(rng, 2+rng.Intn(5), depth-1)
			}
		case opPop, opWait:
			// Untimed waits can strand the process; keep some, time most.
			if rng.Intn(3) != 0 {
				op.kind++
			}
		}
		ops[i] = op
	}
	return ops
}

// progRig is the shared state a generated program runs against.
type progRig struct {
	e      *Env
	queues [2]*Queue[int]
	conds  [2]Cond
	res    *Resource
	h      uint64 // FNV-1a over every observation
	spawns int
}

// rec folds one observation — what a process saw when a blocking call
// returned, or what a callback saw when it ran — into the hash. e.seq is the
// insertion counter at that moment, so any reordering of pushes shows.
func (r *progRig) rec(kind byte, name string, extra int) {
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			r.h ^= v & 0xff
			r.h *= 1099511628211
			v >>= 8
		}
	}
	mix(uint64(r.e.now))
	mix(r.e.seq)
	mix(uint64(kind))
	mix(uint64(extra))
	for i := 0; i < len(name); i++ {
		r.h ^= uint64(name[i])
		r.h *= 1099511628211
	}
}

func (r *progRig) exec(p *Proc, ops []progOp) {
	e := r.e
	r.rec('S', p.name, 0)
	for _, op := range ops {
		op := op
		extra := 0
		switch op.kind {
		case opSleep:
			p.Sleep(op.d)
		case opYield:
			p.Yield()
		case opPop:
			extra = r.queues[op.obj].Pop(p)
		case opPopTimeout:
			v, ok := r.queues[op.obj].PopTimeout(p, op.d)
			if ok {
				extra = v + 1
			}
		case opPush:
			r.queues[op.obj].Push(int(e.seq))
		case opPushLater:
			e.After(op.d, func() {
				r.rec('p', "", op.obj)
				r.queues[op.obj].Push(int(e.seq))
			})
		case opWait:
			r.conds[op.obj].Wait(p)
		case opWaitTimeout:
			if r.conds[op.obj].WaitTimeout(p, op.d) {
				extra = 1
			}
		case opSignal:
			r.conds[op.obj].Signal()
		case opSignalLater:
			e.After(op.d, func() {
				r.rec('s', "", op.obj)
				r.conds[op.obj].Signal()
			})
		case opBroadcast:
			r.conds[op.obj].Broadcast()
		case opUse:
			r.res.Use(p, op.d)
		case opSpawn:
			r.spawns++
			e.Go(fmt.Sprintf("%s.%d", p.name, r.spawns), func(c *Proc) { r.exec(c, op.body) })
		case opStop:
			e.Stop()
		case opStopLater:
			e.After(op.d, func() {
				r.rec('x', "", 0)
				e.Stop()
			})
		}
		r.rec(op.kind, p.name, extra)
	}
}

// progRun builds and runs the program for one seed and returns its hash.
func progRun(seed int64) uint64 {
	rng := rand.New(rand.NewSource(seed))
	r := &progRig{e: NewEnv(seed), res: NewResource(1 + rng.Intn(2)), h: 14695981039346656037}
	for i := range r.queues {
		r.queues[i] = NewQueue[int]()
	}
	for i, n := 0, 3+rng.Intn(4); i < n; i++ {
		prog := genProg(rng, 8+rng.Intn(20), 2)
		r.e.Go(fmt.Sprintf("p%d", i), func(p *Proc) { r.exec(p, prog) })
	}
	// A few deadline slices (one repeated, one that usually lands between
	// events), then run to completion; Stop ends a Run early, so go again
	// until nothing is left. The per-slice record pins where each Run
	// returned: clock, dispatch count, backlog, live processes. Whatever ended
	// it — the horizon, a Stop from a process or a callback, the last event,
	// with processes spawned and returned mid-chain — the chain has unwound.
	slice := func() {
		if n := r.e.chainLen(); n != 0 {
			panic(fmt.Sprintf("seed %d: Run returned with %d processes still in the chain", seed, n))
		}
		r.rec('R', "", int(r.e.Executed()))
		r.rec('r', "", r.e.Pending()<<8|r.e.Live())
	}
	for _, d := range []Time{3 * us, 7 * us, 7 * us, 7*us + 500, 20 * us} {
		r.e.RunUntil(d)
		slice()
	}
	for i := 0; i < 64 && r.e.Pending() > 0; i++ {
		r.e.Run()
		slice()
	}
	r.e.Shutdown()
	return r.h
}

// orderHashes[i] is progRun(i+1) on the two-rendezvous scheduler-goroutine
// kernel (commit b3b31dc). Regenerate only for a deliberate change to event
// order, which also changes every figure table.
var orderHashes = [64]uint64{
	0x893c50c67dfdb9a9, 0x2f705718c4627050, 0x65d4105253d9f656, 0x52b85fd18df27834,
	0xdc4752e2b572c47b, 0x46932c0483024acf, 0x3264658ab42525d8, 0x2a5c4f7027888bb9,
	0x9414f29fdf30002b, 0xc484784806125c48, 0xfcb776e3eac13ef9, 0x3e9732f205580e71,
	0x2f46f6ea245b6422, 0x132f5e47aecd94fd, 0x95b97669eb0bd40a, 0xf042eb417fe32de5,
	0x71784770f3905251, 0x9e48703e790a92e3, 0xa742ba43dcb2d037, 0xea76b196f95871d5,
	0xf0805f33b2f4e802, 0x2004f6e21cfeeafc, 0x2f379cb8dc562186, 0xb93cc7335c3ab165,
	0x4d409ec32e6d6678, 0x67fa810e08851353, 0xf8d4c4930be95ffb, 0x51a042dd0a978a7b,
	0x3586c0ef882cf7bd, 0x4bda8ca02c1c2fd6, 0x6d14ac9098970f0e, 0xb53feb7a6f667016,
	0x18127ac1d8480c85, 0x429ddc81484f093c, 0xe5346d4d165bf211, 0x18b0a256c0c46fa6,
	0xf92190e8ac419a68, 0x09c32f07aaeb8728, 0x0b9361b8bd86804d, 0x74dc4d9273541767,
	0x0ff310a6a743674d, 0x25e59ac918cfc8b8, 0x165a1cbcc53ee0f0, 0x1170c5cbc4695a45,
	0xe7d640b415857af1, 0x251a16933de5b1d5, 0x6c838a412d92ad2e, 0x9c0032318eda721c,
	0x72d931a8bd8dd910, 0x3a8d6a6c183061a1, 0x404a6e2eb9fe0781, 0x1bd0defbfaeb349e,
	0x647b609a4923cc89, 0x4009225c1ae4ad91, 0xf9fc0316d5be3339, 0x0ad21904c091d0f2,
	0x7f32a447b08a3fe1, 0xa6c1d9f56ea520cf, 0xa695f615206d0015, 0xc4e5aa51ccfbdbcf,
	0xf00171608aba7cb9, 0x3f33e191daebda31, 0xde39d3890fc54ac4, 0xa6e801f42d750823,
}

func TestEventOrderMatchesRecordedHashes(t *testing.T) {
	var got [len(orderHashes)]uint64
	bad := 0
	for i := range got {
		got[i] = progRun(int64(i + 1))
		if got[i] != orderHashes[i] {
			bad++
		}
		if again := progRun(int64(i + 1)); again != got[i] {
			t.Fatalf("seed %d is not deterministic: %#x then %#x", i+1, got[i], again)
		}
	}
	if bad == 0 {
		return
	}
	var sb strings.Builder
	for i, h := range got {
		if i%4 == 0 {
			sb.WriteString("\n\t")
		}
		fmt.Fprintf(&sb, "%#016x, ", h)
	}
	t.Fatalf("%d of %d seeds changed event order; observed table:%s", bad, len(got), sb.String())
}

// waitGoroutines polls until the goroutine count is back to want (exited
// goroutines are reaped asynchronously).
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	for i := 0; i < 200; i++ {
		if runtime.NumGoroutine() <= want {
			return
		}
		//kdlint:allow simclock waits for real goroutine reaping after Shutdown; no simulation is running here
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: want %d, have %d", want, runtime.NumGoroutine())
}

// TestShutdownReturnsEveryGoroutine: every way a process can be left behind,
// including the coroutines that were never resumed — spawned after the last
// Run, spawned by a process (on its stack) just before Stop, spawned by a
// cleanup while Shutdown is already unwinding. Those have no body to unwind
// and no exit to run, and must be accounted for all the same.
func TestShutdownReturnsEveryGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEnv(1)
	q := NewQueue[int]()
	var c Cond
	e.Go("exited", func(p *Proc) { p.Sleep(us) })
	e.Go("exited-at-once", func(p *Proc) {})
	e.Go("parked-queue", func(p *Proc) { q.Pop(p) })
	e.Go("parked-cond", func(p *Proc) {
		defer e.Go("spawned-by-cleanup", func(p *Proc) { t.Error("process spawned during Shutdown ran") })
		c.Wait(p)
	})
	e.Go("parked-timed", func(p *Proc) { c.WaitTimeout(p, time.Hour) })
	e.Go("sleeping", func(p *Proc) { p.Sleep(time.Hour) })
	e.Go("spawner", func(p *Proc) {
		p.Sleep(5 * us)
		e.Go("never-started-child", func(p *Proc) { t.Error("never-started child ran") })
		e.Stop()
	})
	e.Run()
	e.Go("never-started", func(p *Proc) { t.Error("never-started process ran") })
	if e.Live() != 6 {
		t.Fatalf("live = %d before Shutdown, want 6", e.Live())
	}
	e.Shutdown()
	if e.Live() != 0 {
		t.Fatalf("live = %d after Shutdown", e.Live())
	}
	waitGoroutines(t, before)
}

// TestFailNowInsideProcessEndsRun: t.FailNow is runtime.Goexit on the calling
// stack. Inside a process — or inside a callback a parked process is running —
// that is the process's coroutine, and iter.Pull carries the exit on to
// whoever resumed it: the process dies, then every process driving it, Run
// never returns, and its goroutine's deferred calls (a test's Shutdown) unwind
// whatever is left — the processes suspended outside the chain, untouched
// until then.
func TestFailNowInsideProcessEndsRun(t *testing.T) {
	inner := &testing.T{}
	tick := func(ticks *int) func(*Proc) {
		return func(p *Proc) {
			for i := 0; i < 10; i++ {
				p.Sleep(us)
				*ticks++
			}
		}
	}
	fail := func(p *Proc) { p.Sleep(3*us + 250); inner.FailNow() }
	for _, tc := range []struct {
		name string
		// build spawns everything but the waiter, in the order that shapes the
		// chain: a process drives the ones spawned after it until one of them
		// wakes it.
		build func(e *Env, ticks *int)
		dead  string // the chain when the Goexit is raised, origin last
		ticks int
		at    Time
	}{
		// The ticker resumed the failing process, and goes with it.
		{"process body", func(e *Env, ticks *int) {
			e.Go("ticker", tick(ticks))
			e.Go("failing", fail)
		}, "ticker failing", 3, 3*us + 250},
		// outer and middle never wake: they drive the failing process, which
		// drives the ticker until the ticker hands its wake-up back to it.
		{"process body, three levels up the chain", func(e *Env, ticks *int) {
			var c Cond
			e.Go("outer", c.Wait)
			e.Go("middle", c.Wait)
			e.Go("failing", fail)
			e.Go("ticker", tick(ticks))
		}, "outer middle failing", 3, 3*us + 250},
		// The ticker, parked in Sleep, is the one running the loop at 5.5 us.
		{"callback on a parked process", func(e *Env, ticks *int) {
			e.Go("ticker", tick(ticks))
			e.At(5*us+500, runtime.Goexit)
		}, "ticker", 5, 5*us + 500},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			e := NewEnv(1)
			q := NewQueue[int]()
			ticks, cleaned := 0, 0
			tc.build(e, &ticks)
			e.Go("waiter", func(p *Proc) { defer func() { cleaned++ }(); q.Pop(p) })
			returned, deadAtExit := false, ""
			done := make(chan struct{})
			go func() {
				defer close(done)
				defer e.Shutdown()
				defer func() { deadAtExit = deadNames(e) }()
				e.Run()
				returned = true
			}()
			<-done
			if returned {
				t.Fatal("Run returned to a goroutine that should have exited")
			}
			if deadAtExit != tc.dead {
				t.Fatalf("dead when Run's goroutine exited: %q, want %q", deadAtExit, tc.dead)
			}
			if ticks != tc.ticks || e.Now() != tc.at {
				t.Fatalf("run ended after %d ticks at %v, want %d at %v", ticks, e.Now(), tc.ticks, tc.at)
			}
			if e.Live() != 0 || cleaned != 1 {
				t.Fatalf("after the deferred Shutdown: live = %d, waiter cleanups = %d", e.Live(), cleaned)
			}
			waitGoroutines(t, before)
		})
	}
	if !inner.Failed() {
		t.Fatal("inner FailNow did not register")
	}
}

// catchPanic runs fn and returns what it panicked with (nil if it returned).
func catchPanic(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}

// TestPanicSurfacesOnRunCaller: a panic raised on a process's stack — in the
// process body, or in an inline callback the process ran while parked — must
// unwind the processes driving it and then the caller of Run, wrapped once
// with the name of the process it started on and the stack it came from, and
// must leave the environment in a state Shutdown can still unwind. A driver
// that recovers it ends the run no less. A callback Run's caller runs (before
// any process, or after the last one it drove returned) is already on the
// caller's stack and arrives untouched.
func TestPanicSurfacesOnRunCaller(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(e *Env)
		from  string // process whose stack the panic unwinds ("" = Run's caller)
		dead  string // the processes it ended on its way
		// cleanups is how many of the two bystanders' deferred cleanups must
		// have run after Shutdown: a process stopped before it ever started
		// has none to run.
		cleanups int
	}{
		{"process body", func(e *Env) {
			e.Go("bad", func(p *Proc) { p.Sleep(2 * us); panic("boom") })
		}, "bad", "bad", 2},
		// outer and middle drive bad from start to finish: the panic leaves
		// through both and is wrapped by neither.
		{"process body, three levels up the chain", func(e *Env) {
			var c Cond
			e.Go("outer", c.Wait)
			e.Go("middle", c.Wait)
			e.Go("bad", func(p *Proc) { p.Sleep(2 * us); panic("boom") })
		}, "bad", "outer middle bad", 2},
		// A driver that swallows what crosses its blocking call loses the
		// process it was driving and the run all the same.
		{"process body, recovered by a driver", func(e *Env) {
			var c Cond
			e.Go("outer", c.Wait)
			e.Go("swallower", func(p *Proc) {
				for i := 0; i < 2; i++ {
					func() { defer func() { recover() }(); c.Wait(p) }()
				}
			})
			e.Go("bad", func(p *Proc) { p.Sleep(2 * us); panic("boom") })
			e.At(3*us, func() { panic("the run went on") })
		}, "bad", "bad", 2},
		{"callback on the Run caller", func(e *Env) {
			e.At(0, func() { panic("boom") }) // runs before any process has started
		}, "", "", 0},
		// The last process to park runs it, driven by the one before.
		{"callback on a parked process", func(e *Env) {
			e.At(2*us, func() { panic("boom") })
		}, "sleeper", "waiter sleeper", 2},
		{"callback on an exiting process", func(e *Env) {
			e.Go("short", func(p *Proc) { p.Sleep(90 * us) })
			e.At(95*us, func() { panic("boom") }) // short has returned: the loop is back on Run's caller
		}, "", "short", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			e := NewEnv(1)
			q := NewQueue[int]()
			cleaned := 0
			tc.build(e)
			e.Go("waiter", func(p *Proc) { defer func() { cleaned++ }(); q.Pop(p) })
			e.Go("sleeper", func(p *Proc) { defer func() { cleaned++ }(); p.Sleep(50 * us); q.Pop(p) })
			r := catchPanic(e.Run)
			if r == nil {
				t.Fatal("Run returned normally")
			}
			if tc.from == "" {
				if r != "boom" {
					t.Fatalf("panic on the caller's own stack arrived as %v, want it untouched", r)
				}
			} else {
				rp, ok := r.(*relayedPanic)
				if !ok || rp.val != "boom" || rp.proc != tc.from {
					t.Fatalf("Run panicked with %v, want boom relayed from process %q", r, tc.from)
				}
				if !strings.Contains(rp.Error(), "boom") || !strings.Contains(rp.Error(), "sched_test.go") {
					t.Fatalf("relayed panic lost its message or origin stack:\n%v", rp)
				}
				if n := strings.Count(rp.Error(), "re-raised from Run"); n != 1 {
					t.Fatalf("panic wrapped %d times on its way up the chain:\n%v", n, rp)
				}
			}
			if dead := deadNames(e); dead != tc.dead {
				t.Fatalf("dead when Run panicked: %q, want %q", dead, tc.dead)
			}
			e.Shutdown()
			if e.Live() != 0 {
				t.Fatalf("live = %d after Shutdown", e.Live())
			}
			if cleaned != tc.cleanups {
				t.Fatalf("deferred cleanups ran %d times, want %d", cleaned, tc.cleanups)
			}
			waitGoroutines(t, before)
		})
	}
}

// TestShutdownReraisesCleanupPanic: a deferred cleanup that panics while
// Shutdown unwinds its process must not vanish with the goroutine; Shutdown
// finishes unwinding everything and then re-raises it.
func TestShutdownReraisesCleanupPanic(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEnv(1)
	var c Cond
	e.Go("bad-cleanup", func(p *Proc) { defer func() { panic("cleanup") }(); c.Wait(p) })
	e.Go("bystander", func(p *Proc) { c.Wait(p) })
	e.Run()
	rp, ok := catchPanic(e.Shutdown).(*relayedPanic)
	if !ok || rp.val != "cleanup" || rp.proc != "bad-cleanup" {
		t.Fatalf("Shutdown panicked with %v, want the cleanup panic relayed", rp)
	}
	if e.Live() != 0 {
		t.Fatalf("live = %d after Shutdown", e.Live())
	}
	waitGoroutines(t, before)
}

// TestShutdownRefusesBlockingCleanup: a deferred cleanup that blocks while
// Shutdown unwinds its process is unwound at the blocking call — nothing
// after it runs, the cleanups registered before it do, and the event that
// would have woken it stays undispatched.
func TestShutdownRefusesBlockingCleanup(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEnv(1)
	q := NewQueue[int]()
	var c Cond
	outer, afterPop := false, false
	e.Go("blocking-cleanup", func(p *Proc) {
		defer func() { outer = true }()
		defer func() {
			q.Pop(p)
			afterPop = true
		}()
		c.Wait(p)
	})
	e.Go("bystander", func(p *Proc) { c.Wait(p) })
	e.Run()
	e.After(0, func() { q.Push(1) }) // would wake the Pop, were Shutdown to run events
	executed := e.Executed()
	e.Shutdown()
	if !outer || afterPop || e.Executed() != executed {
		t.Fatalf("outer cleanup ran = %v, code after the blocked Pop ran = %v, %d events dispatched during Shutdown",
			outer, afterPop, e.Executed()-executed)
	}
	if e.Live() != 0 {
		t.Fatalf("live = %d after Shutdown", e.Live())
	}
	waitGoroutines(t, before)
}

// TestRunSlicesFromDifferentGoroutines: coroutines are created on one
// goroutine and resumed from whichever calls Run next. Consecutive slices
// issued from fresh goroutines must observe exactly what one goroutine
// observes (and, under -race, without a report: each slice happens
// before the next), switch as often, and leave no process in the chain when
// they return: a process resumed by one slice's goroutine yields to it before
// the slice ends, never to the next one.
func TestRunSlicesFromDifferentGoroutines(t *testing.T) {
	run := func(slice func(e *Env, d Time)) (log []string) {
		e := NewEnv(1)
		defer e.Shutdown()
		ping, pong := NewQueue[int](), NewQueue[int]()
		note := func(p *Proc, v int) { log = append(log, fmt.Sprintf("%v %s %d", e.Now(), p.name, v)) }
		e.Go("ping", func(p *Proc) {
			for i := 0; ; i++ {
				ping.Push(i)
				note(p, pong.Pop(p))
				p.Sleep(3 * us)
			}
		})
		e.Go("pong", func(p *Proc) {
			for {
				v := ping.Pop(p)
				if v%4 == 1 { // spawned on a coroutine, mid-slice, on whichever goroutine runs it
					e.Go(fmt.Sprintf("child%d", v), func(c *Proc) { c.Sleep(7 * us); note(c, v) })
				}
				p.Sleep(us)
				pong.Push(v)
			}
		})
		for d := us; d <= 100*us; d += us {
			slice(e, d)
			if n := e.chainLen(); n != 0 {
				t.Fatalf("slice to %v returned with %d processes still in the chain", d, n)
			}
		}
		return append(log, fmt.Sprintf("%d events, %d switches", e.Executed(), e.Switches()))
	}
	want := run(func(e *Env, d Time) { e.RunUntil(d) })
	got := run(func(e *Env, d Time) {
		done := make(chan struct{})
		go func() { defer close(done); e.RunUntil(d) }()
		<-done
	})
	if len(want) < 30 || strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("slices from fresh goroutines observed\n%s\nwant (%d lines)\n%s", strings.Join(got, "\n"), len(want), strings.Join(want, "\n"))
	}
}

// The shape of the chain, pinned by what it costs. Every count below is
// exact: Switches depends on the program alone.

// TestPingPongSwitchesOncePerHandoff: two processes that wake each other. The
// one that parks resumes its peer directly, the peer hands the next wake-up
// back by yielding: one switch per handoff, not a yield to Run's caller and a
// resume from there.
func TestPingPongSwitchesOncePerHandoff(t *testing.T) {
	e := NewEnv(1)
	defer e.Shutdown()
	ping, pong := NewQueue[int](), NewQueue[int]()
	const warm, rounds = 3, 100
	var from, to uint64
	e.Go("ping", func(p *Proc) {
		for i := 0; i < warm+rounds; i++ {
			if i == warm {
				from = e.Switches()
			}
			ping.Push(i)
			pong.Pop(p)
		}
		to = e.Switches()
	})
	e.Go("pong", func(p *Proc) {
		for {
			pong.Push(ping.Pop(p))
		}
	})
	e.Run()
	if got := to - from; got != 2*rounds {
		t.Fatalf("%d round trips (two handoffs each) took %d switches, want %d", rounds, got, 2*rounds)
	}
}

// TestRingSwitches: BenchmarkKernelProcessFanIn's shape, eight sleepers with
// one period at distinct phases. Each resumes the next, and the last one's
// yield of the first passes through the six between: N-1 resumes and N-1
// yields a lap.
func TestRingSwitches(t *testing.T) {
	const sleepers, laps = 8, 20
	e := NewEnv(1)
	defer e.Shutdown()
	var at []uint64 // Switches each time sleeper 0 wakes
	for s := 0; s < sleepers; s++ {
		e.Go(fmt.Sprintf("sleeper%d", s), func(p *Proc) {
			p.Sleep(Time(s) * us)
			for i := 0; i < laps; i++ {
				if s == 0 {
					at = append(at, e.Switches())
				}
				p.Sleep(sleepers * us)
			}
		})
	}
	e.Run()
	for i := 1; i < len(at); i++ {
		if got := at[i] - at[i-1]; got != 2*sleepers-2 {
			t.Fatalf("lap %d of a ring of %d took %d switches, want %d", i, sleepers, got, 2*sleepers-2)
		}
	}
}

// TestWakeFromBelowCostsTheDistance: a process woken by one it is driving k
// levels below is reached by k yields, each undoing one resume; it then
// resumes whoever is next directly, however deep that one had been.
func TestWakeFromBelowCostsTheDistance(t *testing.T) {
	for k := 1; k <= 5; k++ {
		e := NewEnv(1)
		var top, idle Cond
		var signalled, woken, resumed uint64
		e.Go("top", func(p *Proc) {
			top.Wait(p)
			woken = e.Switches()
			p.Sleep(2 * us) // the waker sleeps 1 us: next, and k levels away no longer
		})
		for i := 1; i < k; i++ {
			e.Go(fmt.Sprintf("between%d", i), idle.Wait)
		}
		e.Go("waker", func(p *Proc) {
			if n := e.chainLen(); n != k {
				t.Fatalf("k=%d: the waker runs with %d processes driving it", k, n)
			}
			top.Signal()
			signalled = e.Switches()
			p.Sleep(us)
			resumed = e.Switches()
		})
		e.Run()
		if woken-signalled != uint64(k) || resumed-woken != 1 {
			t.Fatalf("k=%d: waking the top took %d switches, resuming the waker from there %d; want %d and 1",
				k, woken-signalled, resumed-woken, k)
		}
		if n := e.chainLen(); n != 0 {
			t.Fatalf("k=%d: Run returned with %d processes still in the chain", k, n)
		}
		e.Shutdown()
	}
}

// TestSpawnAllocations puts the price of a process on record: spawn, run and
// exit of an empty body. The ceiling is the count measured on go1.24: the
// Proc and its body closure, and the twelve objects of iter.Pull (seven
// captured variables, four closures, the coro; the goroutine under it is
// recycled by the runtime). The channel kernel paid 5. A cheaper spawn shows
// as slack here, a dearer one fails. (AllocsPerRun divides in integers, which
// drops the amortised growth of Env.procs.)
func TestSpawnAllocations(t *testing.T) {
	e := NewEnv(1)
	defer e.Shutdown()
	spawn := func() {
		e.Go("empty", func(*Proc) {})
		e.Run()
	}
	spawn()
	const ceiling = 14
	if avg := testing.AllocsPerRun(100, spawn); avg > ceiling {
		t.Errorf("spawn-run-exit of an empty process allocates %.1f objects, ceiling %d", avg, ceiling)
	}
}
