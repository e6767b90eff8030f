package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestEventHeapOrdersLikeSort drives the 4-ary heap with random timestamps
// (many of them duplicated) and checks the pop order against a stable sort on
// (at, seq) — the kernel's determinism contract.
func TestEventHeapOrdersLikeSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h eventHeap
	var ref []event
	for seq := uint64(1); seq <= 5000; seq++ {
		ev := event{at: Time(rng.Intn(64)) * time.Microsecond, seq: seq}
		h.push(ev)
		ref = append(ref, ev)
		// Interleave pops so the heap sees shrink/grow cycles, not one
		// monotone fill.
		if rng.Intn(3) == 0 && h.len() > 0 {
			got := h.pop()
			// got must be the minimum of ref.
			sort.SliceStable(ref, func(i, j int) bool { return ref[i].before(&ref[j]) })
			if got.at != ref[0].at || got.seq != ref[0].seq {
				t.Fatalf("pop = (%v,%d), want (%v,%d)", got.at, got.seq, ref[0].at, ref[0].seq)
			}
			ref = ref[1:]
		}
	}
	sort.SliceStable(ref, func(i, j int) bool { return ref[i].before(&ref[j]) })
	for i := 0; h.len() > 0; i++ {
		got := h.pop()
		if got.at != ref[i].at || got.seq != ref[i].seq {
			t.Fatalf("drain %d: pop = (%v,%d), want (%v,%d)", i, got.at, got.seq, ref[i].at, ref[i].seq)
		}
	}
}

// TestQueueRingWraparound exercises the ring buffer across many grow and
// wrap cycles, checking FIFO order and that Len stays consistent.
func TestQueueRingWraparound(t *testing.T) {
	q := NewQueue[int]()
	next, expect := 0, 0
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 2000; round++ {
		for i := rng.Intn(17); i > 0; i-- {
			q.Push(next)
			next++
		}
		for i := rng.Intn(17); i > 0; i-- {
			v, ok := q.TryPop()
			if !ok {
				break
			}
			if v != expect {
				t.Fatalf("popped %d, want %d", v, expect)
			}
			expect++
		}
		if q.Len() != next-expect {
			t.Fatalf("Len = %d, want %d", q.Len(), next-expect)
		}
	}
	for {
		v, ok := q.TryPop()
		if !ok {
			break
		}
		if v != expect {
			t.Fatalf("drain popped %d, want %d", v, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("drained %d items, pushed %d", expect, next)
	}
}

// TestQueuePopZeroesVacatedSlot verifies popped payloads are not retained by
// the ring (the head-slice memory-retention fix): after a pop, the vacated
// slot holds the zero value.
func TestQueuePopZeroesVacatedSlot(t *testing.T) {
	q := NewQueue[*int]()
	v := new(int)
	q.Push(v)
	slot := q.head
	if got, ok := q.TryPop(); !ok || got != v {
		t.Fatal("TryPop lost the item")
	}
	if q.buf[slot] != nil {
		t.Fatal("vacated ring slot still references the popped payload")
	}
}

// TestExecutedCountsDispatchedEvents checks the kernel's event counter: one
// count per timer callback and per process resumption.
func TestExecutedCountsDispatchedEvents(t *testing.T) {
	e := NewEnv(1)
	if e.Executed() != 0 {
		t.Fatalf("fresh env executed = %d", e.Executed())
	}
	e.At(time.Millisecond, func() {})
	e.Go("p", func(p *Proc) { p.Sleep(2 * time.Millisecond) })
	e.Run()
	// Three dispatches: the At callback, the process start, the sleep wake.
	if e.Executed() != 3 {
		t.Fatalf("executed = %d, want 3", e.Executed())
	}
}

// TestPopTimeoutDoesNotAllocate pins both outcomes of a timed wait at zero
// allocations: the timer is an AtArg event whose record recycles through the
// env's free list, so neither arming it nor leaving it behind stale (the
// signalled case) costs a closure.
func TestPopTimeoutDoesNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		name string
		push bool // a callback pushes before every timeout expires
	}{{"timed out", false}, {"signalled", true}} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEnv(1)
			defer e.Shutdown()
			q := NewQueue[int]()
			got, expired := 0, 0
			e.Go("consumer", func(p *Proc) {
				for {
					if _, ok := q.PopTimeout(p, 10*time.Microsecond); ok {
						got++
					} else {
						expired++
					}
				}
			})
			var tick func()
			tick = func() {
				q.Push(1)
				e.After(4*time.Microsecond, tick)
			}
			if tc.push {
				e.After(4*time.Microsecond, tick)
			}
			slice := func() { e.RunUntil(e.Now() + time.Millisecond) }
			slice() // grow heap, ring, waiter list and timer free list
			got, expired = 0, 0
			if avg := testing.AllocsPerRun(10, slice); avg != 0 {
				t.Errorf("PopTimeout allocates %.1f times per 1 ms slice, want 0", avg)
			}
			if tc.push && (got < 2000 || expired != 0) || !tc.push && (got != 0 || expired < 1000) {
				t.Fatalf("drove the wrong path: %d delivered, %d expired", got, expired)
			}
		})
	}
}

// TestBroadcastKeepsWaiterList: Broadcast empties the waiter list in place,
// so the waits that follow it append into the same backing array.
func TestBroadcastKeepsWaiterList(t *testing.T) {
	e := NewEnv(1)
	defer e.Shutdown()
	var c Cond
	woken := 0
	for i := 0; i < 3; i++ {
		e.Go("waiter", func(p *Proc) {
			for {
				c.Wait(p)
				woken++
			}
		})
	}
	var tick func()
	tick = func() {
		c.Broadcast()
		e.After(time.Microsecond, tick)
	}
	e.After(time.Microsecond, tick)
	slice := func() { e.RunUntil(e.Now() + 100*time.Microsecond) }
	slice() // grow the heap and the waiter list
	if avg := testing.AllocsPerRun(10, slice); avg != 0 {
		t.Errorf("Broadcast and re-Wait allocate %.1f times per 100 rounds, want 0", avg)
	}
	if woken < 3000 {
		t.Fatalf("only %d wakeups: the waiters did not go round", woken)
	}
}
