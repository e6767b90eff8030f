package sim

import (
	"runtime"
	"testing"
	"time"
)

const ms = time.Millisecond

func TestClockAdvancesWithSleep(t *testing.T) {
	e := NewEnv(1)
	var at []Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * ms)
		at = append(at, p.Now())
		p.Sleep(10 * ms)
		at = append(at, p.Now())
	})
	e.Run()
	if len(at) != 2 || at[0] != 5*ms || at[1] != 15*ms {
		t.Fatalf("got %v, want [5ms 15ms]", at)
	}
}

func TestEventOrderingIsFIFOAtSameTime(t *testing.T) {
	e := NewEnv(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Go("p", func(p *Proc) {
			p.Sleep(1 * ms)
			order = append(order, i)
		})
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order %v not FIFO", order)
		}
	}
}

func TestAtCallbackRunsAtScheduledTime(t *testing.T) {
	e := NewEnv(1)
	var fired Time = -1
	e.At(7*ms, func() { fired = e.Now() })
	e.Run()
	if fired != 7*ms {
		t.Fatalf("callback fired at %v, want 7ms", fired)
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := NewEnv(1)
	n := 0
	e.Go("ticker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(1 * ms)
			n++
		}
	})
	e.RunUntil(10 * ms)
	if n != 10 {
		t.Fatalf("ticks at deadline = %d, want 10", n)
	}
	if e.Now() != 10*ms {
		t.Fatalf("now = %v, want 10ms", e.Now())
	}
	e.Run()
	if n != 100 {
		t.Fatalf("ticks after full run = %d, want 100", n)
	}
}

func TestStopHaltsSimulation(t *testing.T) {
	e := NewEnv(1)
	n := 0
	e.Go("ticker", func(p *Proc) {
		for {
			p.Sleep(1 * ms)
			n++
			if n == 5 {
				e.Stop()
				// The process parks forever after stopping; Run returns.
				var c Cond
				c.Wait(p)
			}
		}
	})
	e.Run()
	if n != 5 {
		t.Fatalf("n = %d, want 5", n)
	}
}

func TestQueueBlocksUntilPush(t *testing.T) {
	e := NewEnv(1)
	q := NewQueue[int]()
	var got int
	var when Time
	e.Go("consumer", func(p *Proc) {
		got = q.Pop(p)
		when = p.Now()
	})
	e.Go("producer", func(p *Proc) {
		p.Sleep(3 * ms)
		q.Push(42)
	})
	e.Run()
	if got != 42 || when != 3*ms {
		t.Fatalf("got %d at %v, want 42 at 3ms", got, when)
	}
}

func TestQueueFIFOAcrossManyItems(t *testing.T) {
	e := NewEnv(1)
	q := NewQueue[int]()
	var got []int
	e.Go("consumer", func(p *Proc) {
		for i := 0; i < 100; i++ {
			got = append(got, q.Pop(p))
		}
	})
	e.Go("producer", func(p *Proc) {
		for i := 0; i < 100; i++ {
			q.Push(i)
			if i%7 == 0 {
				p.Sleep(1 * ms)
			}
		}
	})
	e.Run()
	if len(got) != 100 {
		t.Fatalf("got %d items", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("item %d = %d", i, v)
		}
	}
}

func TestQueuePopTimeoutExpires(t *testing.T) {
	e := NewEnv(1)
	q := NewQueue[int]()
	var ok bool
	var when Time
	e.Go("consumer", func(p *Proc) {
		_, ok = q.PopTimeout(p, 5*ms)
		when = p.Now()
	})
	e.Run()
	if ok {
		t.Fatal("PopTimeout succeeded on empty queue")
	}
	if when != 5*ms {
		t.Fatalf("timed out at %v, want 5ms", when)
	}
}

func TestQueuePopTimeoutDeliveredBeforeDeadline(t *testing.T) {
	e := NewEnv(1)
	q := NewQueue[int]()
	var v int
	var ok bool
	e.Go("consumer", func(p *Proc) { v, ok = q.PopTimeout(p, 10*ms) })
	e.Go("producer", func(p *Proc) { p.Sleep(2 * ms); q.Push(7) })
	e.Run()
	if !ok || v != 7 {
		t.Fatalf("got (%d,%v), want (7,true)", v, ok)
	}
}

func TestStaleTimeoutDoesNotFireAfterNormalWake(t *testing.T) {
	e := NewEnv(1)
	q := NewQueue[int]()
	wakes := 0
	e.Go("consumer", func(p *Proc) {
		if _, ok := q.PopTimeout(p, 5*ms); ok {
			wakes++
		}
		// Park well past the stale timer; a buggy kernel would wake us.
		p.Sleep(20 * ms)
		wakes++
	})
	e.Go("producer", func(p *Proc) { p.Sleep(1 * ms); q.Push(1) })
	e.Run()
	if wakes != 2 {
		t.Fatalf("wakes = %d, want 2", wakes)
	}
	if e.Now() != 21*ms {
		t.Fatalf("end time %v, want 21ms", e.Now())
	}
}

func TestCondBroadcastWakesAll(t *testing.T) {
	e := NewEnv(1)
	var c Cond
	woken := 0
	for i := 0; i < 5; i++ {
		e.Go("waiter", func(p *Proc) {
			c.Wait(p)
			woken++
		})
	}
	e.Go("caller", func(p *Proc) {
		p.Sleep(1 * ms)
		if c.Waiting() != 5 {
			t.Errorf("waiting = %d, want 5", c.Waiting())
		}
		c.Broadcast()
	})
	e.Run()
	if woken != 5 {
		t.Fatalf("woken = %d, want 5", woken)
	}
}

func TestResourceSerialisesUse(t *testing.T) {
	e := NewEnv(1)
	r := NewResource(1)
	var ends []Time
	for i := 0; i < 3; i++ {
		e.Go("user", func(p *Proc) {
			r.Use(p, 10*ms)
			ends = append(ends, p.Now())
		})
	}
	e.Run()
	want := []Time{10 * ms, 20 * ms, 30 * ms}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

func TestResourceParallelCapacity(t *testing.T) {
	e := NewEnv(1)
	r := NewResource(2)
	var ends []Time
	for i := 0; i < 4; i++ {
		e.Go("user", func(p *Proc) {
			r.Use(p, 10*ms)
			ends = append(ends, p.Now())
		})
	}
	e.Run()
	want := []Time{10 * ms, 10 * ms, 20 * ms, 20 * ms}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

func TestPacerBackToBackReservations(t *testing.T) {
	var pc Pacer
	if end := pc.Reserve(0, 10*ms); end != 10*ms {
		t.Fatalf("first reserve end %v", end)
	}
	if end := pc.Reserve(0, 10*ms); end != 20*ms {
		t.Fatalf("second reserve end %v", end)
	}
	// Reserving after the device went idle starts immediately.
	if end := pc.Reserve(100*ms, 5*ms); end != 105*ms {
		t.Fatalf("idle reserve end %v", end)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []Time {
		e := NewEnv(42)
		q := NewQueue[int]()
		var log []Time
		for i := 0; i < 4; i++ {
			e.Go("w", func(p *Proc) {
				for j := 0; j < 20; j++ {
					d := Time(e.Rand().Intn(1000)) * time.Microsecond
					p.Sleep(d)
					q.Push(j)
				}
			})
		}
		e.Go("r", func(p *Proc) {
			for i := 0; i < 80; i++ {
				q.Pop(p)
				log = append(log, p.Now())
			}
		})
		e.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 80 {
		t.Fatalf("lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestLiveCountsProcesses(t *testing.T) {
	e := NewEnv(1)
	e.Go("a", func(p *Proc) { p.Sleep(1 * ms) })
	e.Go("b", func(p *Proc) { p.Sleep(2 * ms) })
	if e.Live() != 2 {
		t.Fatalf("live = %d before run", e.Live())
	}
	e.Run()
	if e.Live() != 0 {
		t.Fatalf("live = %d after run", e.Live())
	}
}

func TestGoFromWithinProcess(t *testing.T) {
	e := NewEnv(1)
	var childRan Time = -1
	e.Go("parent", func(p *Proc) {
		p.Sleep(4 * ms)
		e.Go("child", func(c *Proc) {
			c.Sleep(1 * ms)
			childRan = c.Now()
		})
		p.Sleep(10 * ms)
	})
	e.Run()
	if childRan != 5*ms {
		t.Fatalf("child ran at %v, want 5ms", childRan)
	}
}

func TestShutdownReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		e := NewEnv(1)
		q := NewQueue[int]()
		// A mix of parked shapes: queue waiters, sleepers, never-started.
		for i := 0; i < 50; i++ {
			e.Go("waiter", func(p *Proc) { q.Pop(p) })
			e.Go("sleeper", func(p *Proc) { p.Sleep(time.Hour) })
		}
		e.Go("driver", func(p *Proc) {
			p.Sleep(time.Millisecond)
			e.Stop()
		})
		e.Run()
		e.Shutdown()
	}
	waitGoroutines(t, before+5)
}

func TestShutdownRunsDeferredCleanups(t *testing.T) {
	e := NewEnv(1)
	cleaned := 0
	e.Go("holder", func(p *Proc) {
		defer func() { cleaned++ }()
		var c Cond
		c.Wait(p) // parked forever
	})
	e.Go("driver", func(p *Proc) { e.Stop() })
	e.Run()
	e.Shutdown()
	if cleaned != 1 {
		t.Fatalf("deferred cleanup ran %d times, want 1", cleaned)
	}
}
