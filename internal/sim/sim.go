//go:build go1.23

// Package sim implements a deterministic discrete-event simulation (DES)
// kernel with cooperative processes, one coroutine each.
//
// The kernel is the substrate for the whole KafkaDirect reproduction: the
// RDMA fabric, the TCP stack, brokers, and clients all run as sim processes
// exchanging real bytes while time advances virtually. A benchmark that
// "takes" 400 simulated seconds completes in milliseconds of wall time and is
// bit-for-bit reproducible for a given seed.
//
// Concurrency model: exactly one stack runs simulation code at a time. Every
// process is an iter.Pull coroutine. A process runs until it blocks (Sleep,
// Queue.Pop, Cond.Wait, Resource.Acquire, ...) or returns. A blocked process
// runs the event loop itself (Env.dispatch), on its own stack: it pops events
// from a time-ordered heap and invokes inline callbacks in place until an
// event resumes a process. If that process is the one running the loop, it
// simply returns from its blocking call — a self-wake is a heap push and pop,
// no switch of any kind. If it is another process, the loop resumes it on the
// spot (Env.drive) and stays blocked in that call, driving it, until it gets a
// process back. Run's caller runs the same loop with no process of its own.
//
// The processes blocked in such calls form a chain from Run's caller down to
// the one process that is running; every other process is suspended in a
// yield. The chain invariant: a process is resumed only by the stack that
// popped its event, and yields only to the stack that resumed it. So the
// running process resumes the next one directly unless that one is itself
// driving, higher in the chain; then — and when the run has ended (nil) — it
// yields the result upward, each driver passing it on until it reaches the
// process it names, or Run's caller. Two processes waking each other pay one
// coroutine switch per wake, a ring of N pays 2N-2 per lap, and no pattern
// pays more than two per wake, because every yield undoes one earlier resume.
// A switch stays on one thread, with no channel, no trip through the Go
// scheduler and no system call. A process that returns leaves the loop to its
// driver. When Run returns the chain is empty: every live process is
// suspended in a yield, and any goroutine may call Run next.
//
// Events with equal timestamps are ordered by insertion sequence, and every
// stack executes the same loop over the same heap, so the order of events —
// and with it the whole simulation — is fully deterministic and independent
// of which stack happens to run the loop.
//
// Inline callbacks therefore run on whatever stack is current. A panic in one
// (or in a process body) unwinds that stack, then every process driving it,
// then Run's caller, wrapped once with the stack it was raised on when that
// was a process's; runtime.Goexit (t.FailNow) likewise ends the process, its
// drivers and then the goroutine that called Run, running their deferred
// calls. So a process must not swallow a panic that crosses its blocking
// call: it is another process's, and a recover() there only delays it — the
// run stops and Run re-raises it all the same. Shutdown stops every coroutine
// still alive, so deferred cleanups run and nothing is left behind.
//
// iter is why this file needs a Go 1.23 toolchain although go.mod says 1.22
// (ROADMAP item 2(b)); there is no channel-based fallback for older ones.
package sim

import (
	"fmt"
	"iter"
	"math"
	"math/rand"
	"runtime/debug"
	"time"
)

// Time is a point in virtual time, measured from the start of the simulation.
type Time = time.Duration

// Env is a simulation environment: a virtual clock plus the event queue and
// process bookkeeping. Create one with NewEnv, spawn processes with Go, and
// drive it with Run or RunUntil.
type Env struct {
	now    Time
	events eventHeap
	seq    uint64
	// executed counts dispatched events (timer callbacks and process
	// resumptions); the benchmark harness reads it to report events/sec.
	executed uint64
	// switches counts coroutine switches, one per next or yield: like
	// executed it depends on the simulation alone, never on the host.
	switches uint64
	// failed is the panic that ended the current run, for RunUntil to re-raise
	// should a process it passes through recover it.
	failed *relayedPanic

	stopped bool
	// horizon is the last virtual time the current run may execute
	// (inclusive), set by RunUntil before it enters dispatch.
	horizon Time
	live    int // processes spawned and not yet exited

	rng *rand.Rand

	// procs tracks every spawned process so Shutdown can unwind them.
	procs []*Proc

	// timeoutFree recycles WaitTimeout timer records.
	timeoutFree []*timeout
}

// NewEnv returns a fresh environment with its clock at zero and a
// deterministic random source derived from seed.
func NewEnv(seed int64) *Env {
	return &Env{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Rand returns the environment's deterministic random source. It must only
// be used from within simulation processes (or before Run), never from
// foreign goroutines.
func (e *Env) Rand() *rand.Rand { return e.rng }

// event is a scheduled occurrence: either resume a parked process or invoke
// an inline callback (which must not block). Inline callbacks are the fast
// path: the event loop invokes them in place, with no switch.
// An event carries either fn (a plain closure) or fnArg+arg (a shared
// function applied to a caller-pooled argument, see AtArg) — the latter lets
// hot paths schedule work without allocating a closure per event.
type event struct {
	at    Time
	seq   uint64
	proc  *Proc
	fn    func()
	fnArg func(any)
	arg   any
}

// before orders events by time, then by insertion sequence (determinism).
func (ev *event) before(o *event) bool {
	return ev.at < o.at || (ev.at == o.at && ev.seq < o.seq)
}

// eventHeap is a concrete 4-ary min-heap of event values. Unlike
// container/heap it never boxes events into interface values, so pushing and
// popping allocate nothing (beyond amortised slice growth). A 4-ary layout
// halves the tree depth of a binary heap, trading slightly wider sibling
// scans — a win for the short, hot comparisons here.
type eventHeap struct {
	a []event
}

func (h *eventHeap) len() int { return len(h.a) }

func (h *eventHeap) push(ev event) {
	h.a = append(h.a, ev)
	a := h.a
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !ev.before(&a[p]) {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = ev
}

func (h *eventHeap) pop() event {
	a := h.a
	root := a[0]
	n := len(a) - 1
	last := a[n]
	a[n] = event{} // clear the vacated slot so proc/fn become collectable
	h.a = a[:n]
	if n > 0 {
		h.siftDown(last)
	}
	return root
}

// siftDown places ev, displaced from the tail, into the root's subtree.
func (h *eventHeap) siftDown(ev event) {
	a := h.a
	n := len(a)
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if a[j].before(&a[m]) {
				m = j
			}
		}
		if !a[m].before(&ev) {
			break
		}
		a[i] = a[m]
		i = m
	}
	a[i] = ev
}

func (e *Env) push(at Time, p *Proc, fn func()) {
	e.seq++
	e.events.push(event{at: at, seq: e.seq, proc: p, fn: fn})
}

// At schedules fn to run inline (inside the event loop, on whichever stack
// runs it at the time) at absolute virtual time t. fn must not block; it may
// wake processes.
func (e *Env) At(t Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.push(t, nil, fn)
}

// After schedules fn to run d from now. See At.
func (e *Env) After(d Time, fn func()) { e.At(e.now+d, fn) }

// AtArg schedules fn(arg) to run inline at absolute virtual time t. It is At
// for allocation-free hot paths: fn is a shared (package-level) function and
// arg a pooled record, so no closure is materialised per event. fn must not
// block.
func (e *Env) AtArg(t Time, fn func(any), arg any) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.events.push(event{at: t, seq: e.seq, fnArg: fn, arg: arg})
}

// AfterArg schedules fn(arg) to run d from now. See AtArg.
func (e *Env) AfterArg(d Time, fn func(any), arg any) { e.AtArg(e.now+d, fn, arg) }

// Proc is a simulation process: a coroutine resumed by whichever stack pops
// its event (Env.drive). All blocking operations take the process as receiver
// so that misuse (blocking outside a process) is impossible to write.
type Proc struct {
	env  *Env
	name string
	// next and stop are the iter.Pull pair of the process's coroutine. next
	// runs it until it yields the process to resume after it (nil: the run
	// has ended) and reports false once the body has returned; stop unwinds
	// it (Shutdown). yield is its own end of next, set when it starts.
	next   func() (*Proc, bool)
	stop   func()
	yield  func(*Proc) bool
	parked bool
	dead   bool
	// driving is set while the process is in drive, blocked in the next of a
	// process it resumed: it is in the chain and cannot be resumed itself.
	driving bool
	// waitToken guards against stale timeout events waking a process that
	// has already been woken for another reason and moved on.
	waitToken uint64
	// timedOut stages the timeout flag between the timer event firing and
	// the process resuming.
	timedOut bool
}

// killSentinel is the panic value used to unwind processes on Shutdown.
type killSentinel struct{}

// relayedPanic carries a panic that unwound a process — raised by the process
// body or by an inline callback the process ran while parked — to the caller
// of Run, with the stack it was raised on (iter.Pull re-panics the bare value
// from next, which alone would show only Run's caller).
type relayedPanic struct {
	val   any
	proc  string
	stack []byte
}

func (rp *relayedPanic) Error() string {
	return fmt.Sprintf("%v [recovered on sim process %q, re-raised from Run]\n%s", rp.val, rp.proc, rp.stack)
}

// Env returns the environment the process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Go spawns a new process running fn, scheduled to start at the current
// virtual time. It is safe to call before Run and from within processes.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{env: e, name: name}
	e.live++
	e.procs = append(e.procs, p)
	p.next, p.stop = iter.Pull(func(yield func(*Proc) bool) {
		p.yield = yield
		defer p.exit()
		fn(p)
	})
	e.push(e.now, p, nil)
	return p
}

// exit is deferred on every started process, so it runs when the body
// returns, when it aborts via runtime.Goexit (t.Fatal inside a process), when
// Shutdown unwinds it, and when it — or an inline callback it ran while
// parked, or a process it was driving — panics. iter.Pull carries a Goexit or
// a panic on to the caller of next or stop (the driver, Run's caller or
// Shutdown's), the panic without its stack: it is wrapped here, where the
// stack still stands, once — a driver passes on what it was handed. The run
// is stopped and the panic recorded, should a driver's recover() catch it.
func (p *Proc) exit() {
	p.dead = true
	p.env.live--
	if r := recover(); r != nil {
		if _, kill := r.(killSentinel); !kill {
			rp, relayed := r.(*relayedPanic)
			if !relayed {
				rp = &relayedPanic{val: r, proc: p.name, stack: debug.Stack()}
			}
			p.env.failed, p.env.stopped = rp, true
			panic(rp)
		}
	}
}

// park suspends the calling process until it is woken, driving the event
// loop in the meantime. Returns true if the wakeup was a timeout (see
// Cond.WaitTimeout).
func (p *Proc) park() bool {
	p.parked = true
	q := p.env.dispatch()
	if q != p { // not a self-wake
		p.driving = true
		q = p.env.drive(p, q)
		p.driving = false
	}
	// A process higher in the chain is next, or the run has ended: yield it
	// upward and wait until this one is resumed — or stopped.
	if q != p {
		p.env.switches++
		if !p.yield(q) {
			panic(killSentinel{})
		}
	}
	p.parked = false
	to := p.timedOut
	p.timedOut = false
	return to
}

// wake schedules a parked process to resume at the current time. It must only
// be called while p is parked and not otherwise scheduled.
func (p *Proc) wake() {
	p.waitToken++
	p.env.push(p.env.now, p, nil)
}

// Sleep advances the process by d of virtual time.
func (p *Proc) Sleep(d Time) {
	if d <= 0 {
		// Even zero-length sleeps yield, preserving round-robin fairness.
		d = 0
	}
	p.waitToken++
	p.env.push(p.env.now+d, p, nil)
	p.park()
}

// Yield reschedules the process at the current time, letting equally-timed
// events run first.
func (p *Proc) Yield() { p.Sleep(0) }

// dispatch is the event loop. Whichever stack is current runs it: a parked
// process, or Run's caller. It pops events in (at, seq) order and runs inline
// callbacks in place until an event resumes a live process, which it returns
// with the clock at that event; it returns nil when the run ends (no events,
// Stop, or the next event lies beyond the horizon). What the result costs is
// drive's business: nothing if it is the process running the loop itself.
func (e *Env) dispatch() *Proc {
	for e.events.len() > 0 && !e.stopped {
		if e.events.a[0].at > e.horizon {
			return nil
		}
		ev := e.events.pop()
		if ev.at > e.now {
			e.now = ev.at
		}
		e.executed++
		if ev.fn != nil {
			ev.fn()
			continue
		}
		if ev.fnArg != nil {
			ev.fnArg(ev.arg)
			continue
		}
		if p := ev.proc; !p.dead {
			return p
		}
	}
	return nil
}

// drive is what a stack does with q, the process its dispatch reached; self is
// the parked process on that stack, nil on Run's caller. Unless q is self, nil
// (the run has ended) or driving higher in the chain — all three for the
// caller to deal with — it resumes q on the spot and takes back the process
// q's own drive stopped at. A q that returned instead leaves the loop to be
// run here.
func (e *Env) drive(self, q *Proc) *Proc {
	for q != nil && q != self && !q.driving {
		e.switches++
		var parked bool
		if q, parked = q.next(); !parked {
			q = e.dispatch()
		}
	}
	return q
}

// Run executes the simulation until no events remain or Stop is called.
func (e *Env) Run() { e.RunUntil(-1) }

// RunUntil executes the simulation until no events remain, Stop is called, or
// the clock would pass deadline (deadline < 0 means no deadline). Events at
// exactly deadline still run. The calling goroutine is the root of the chain:
// a panic raised by a process or an inline callback has already unwound
// through here, and one that a process on its way recovered is re-raised now,
// so either surfaces on the caller's goroutine.
func (e *Env) RunUntil(deadline Time) {
	e.stopped = false
	e.failed = nil
	e.horizon = deadline
	if deadline < 0 {
		e.horizon = math.MaxInt64
	}
	e.drive(nil, e.dispatch())
	if e.failed != nil {
		panic(e.failed)
	}
	if deadline >= 0 && !e.stopped && e.events.len() > 0 {
		e.now = deadline // the run ended at the horizon with events beyond it
	}
}

// Stop makes Run return after the current event completes.
func (e *Env) Stop() { e.stopped = true }

// Shutdown unwinds every remaining process so the environment and the
// memory its processes pin become garbage-collectable. Call it after the
// last Run/RunUntil; the environment must not be used afterwards. Long-lived
// harnesses that build many simulations (the benchmark suite constructs one
// per data point) depend on this to keep memory bounded.
func (e *Env) Shutdown() {
	// Stopped, dispatch returns nil at once: a process that blocks in a
	// deferred cleanup while it unwinds is refused instead of running events.
	e.stopped = true
	// A cleanup that panics or Goexits leaves through stop: unwind the rest
	// on the way out.
	defer func() {
		if len(e.procs) > 0 {
			e.Shutdown()
		}
		e.procs, e.events = nil, eventHeap{}
	}()
	for len(e.procs) > 0 {
		p := e.procs[0]
		e.procs = e.procs[1:]
		if p.dead {
			continue
		}
		if p.driving {
			panic("sim: Shutdown inside Run: process " + p.name + " is driving")
		}
		p.stop()
		if !p.dead { // never started: there was no exit to run
			p.dead = true
			e.live--
		}
	}
}

// Pending reports the number of scheduled events (diagnostic).
func (e *Env) Pending() int { return e.events.len() }

// Executed reports the total number of events dispatched by Run/RunUntil so
// far (timer callbacks and process resumptions). The benchmark harness sums
// it across environments to report simulator events/sec.
func (e *Env) Executed() uint64 { return e.executed }

// Switches reports the coroutine switches made so far; exact, like Executed.
func (e *Env) Switches() uint64 { return e.switches }

// Live reports the number of spawned processes that have not exited.
func (e *Env) Live() int { return e.live }

// ---------------------------------------------------------------------------
// Condition variables
// ---------------------------------------------------------------------------

// Cond is a simulation-aware condition variable. There is no associated lock:
// because only one process runs at a time, state inspected immediately before
// Wait cannot change underneath the caller.
type Cond struct {
	waiters []*Proc
}

// Wait parks the calling process until Signal or Broadcast wakes it.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.park()
}

// WaitTimeout is Wait with a timeout; it reports whether the wait timed out.
// d < 0 waits forever.
func (c *Cond) WaitTimeout(p *Proc, d Time) (timedOut bool) {
	c.waiters = append(c.waiters, p)
	if d < 0 {
		return p.park()
	}
	p.waitToken++
	e := p.env
	t := e.getTimeout()
	t.p, t.c, t.token = p, c, p.waitToken
	e.AtArg(e.now+d, timeoutFire, t)
	return p.park()
}

// timeout is the argument record of one armed WaitTimeout timer. A process
// can have stale timers outstanding beside the live one (each wait that was
// signalled first leaves its timer in the heap), so the token a timer was
// armed with travels with the timer, not with the process. Records recycle
// through a per-Env free list when their timer fires.
type timeout struct {
	p     *Proc
	c     *Cond
	token uint64
}

func (e *Env) getTimeout() *timeout {
	if len(e.timeoutFree) == 0 {
		return &timeout{}
	}
	n := len(e.timeoutFree)
	t := e.timeoutFree[n-1]
	e.timeoutFree[n-1] = nil
	e.timeoutFree = e.timeoutFree[:n-1]
	return t
}

// timeoutFire runs when a WaitTimeout timer expires: unless the process was
// woken for another reason in the meantime, it takes the process off the
// cond's wait list and resumes it with timedOut reported true.
func timeoutFire(a any) {
	t := a.(*timeout)
	p, c, token := t.p, t.c, t.token
	e := p.env
	*t = timeout{}
	e.timeoutFree = append(e.timeoutFree, t)
	if p.waitToken != token || !p.parked {
		return // already woken for another reason
	}
	c.remove(p)
	p.wake()
	p.timedOut = true
}

func (c *Cond) remove(p *Proc) {
	for i, w := range c.waiters {
		if w == p {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			return
		}
	}
}

// Signal wakes the longest-waiting process, if any.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	p := c.waiters[0]
	// Shift down rather than reslice: c.waiters[1:] would shrink the
	// backing array's usable capacity on every Signal, forcing the next
	// Wait's append to reallocate — a hidden per-wakeup heap allocation.
	n := copy(c.waiters, c.waiters[1:])
	c.waiters[n] = nil
	c.waiters = c.waiters[:n]
	p.wake()
}

// Broadcast wakes all waiting processes. Like Signal it keeps the backing
// array for the next Wait; wake only pushes an event, so nothing re-enters
// the list while it is walked.
func (c *Cond) Broadcast() {
	for _, p := range c.waiters {
		p.wake()
	}
	clear(c.waiters)
	c.waiters = c.waiters[:0]
}

// Waiting reports the number of processes blocked on the condition.
func (c *Cond) Waiting() int { return len(c.waiters) }

// ---------------------------------------------------------------------------
// Queues
// ---------------------------------------------------------------------------

// Queue is an unbounded FIFO queue of T with blocking receive. It is the
// building block for request queues, completion queues, and message inboxes.
//
// Storage is a power-of-two ring buffer: popping advances a head index
// instead of re-slicing, so popped memory is neither retained nor does the
// backing array creep forward and reallocate. Vacated slots are zeroed so
// popped payloads become garbage-collectable immediately.
type Queue[T any] struct {
	buf  []T // len(buf) is always zero or a power of two
	head int // index of the oldest item
	n    int // number of queued items
	cond Cond
	// wakes counts receivers that have been signalled by Push but whose
	// resume event has not yet run. Push skips the signal while the queued
	// items are already covered by in-flight wakeups, so a pool of workers
	// batch-drains a burst of same-instant pushes instead of paying one
	// park/unpark handshake per item. This is invisible to virtual time: a
	// signalled receiver's resume is scheduled at the current instant, so
	// coalescing can only transfer an item to a receiver that would have
	// popped it at the same timestamp anyway.
	wakes int
}

// NewQueue returns an empty queue.
func NewQueue[T any]() *Queue[T] { return &Queue[T]{} }

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.n }

// grow doubles the ring, linearising the current contents at index 0.
func (q *Queue[T]) grow() {
	newCap := 2 * len(q.buf)
	if newCap == 0 {
		newCap = 8
	}
	nb := make([]T, newCap)
	if q.n > 0 {
		tail := copy(nb, q.buf[q.head:])
		copy(nb[tail:], q.buf[:q.head])
	}
	q.buf = nb
	q.head = 0
}

// Push appends an item and wakes one waiting receiver, unless enough
// receivers are already on their way (see the wakes field). It never blocks
// and is callable from inline events as well as processes.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
	if q.n > q.wakes && q.cond.Waiting() > 0 {
		q.wakes++
		q.cond.Signal()
	}
}

// pop removes and returns the head item; the queue must be non-empty.
func (q *Queue[T]) pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// TryPop removes and returns the head item without blocking.
func (q *Queue[T]) TryPop() (T, bool) {
	if q.n == 0 {
		var zero T
		return zero, false
	}
	return q.pop(), true
}

// signalled accounts for one signalled receiver resuming; every return from
// a signalled (non-timed-out) wait must pass through here to keep the
// Push-side wake accounting exact.
func (q *Queue[T]) signalled() {
	if q.wakes > 0 {
		q.wakes--
	}
}

// Pop blocks the calling process until an item is available, then removes and
// returns the head item.
func (q *Queue[T]) Pop(p *Proc) T {
	for q.n == 0 {
		q.cond.Wait(p)
		q.signalled()
	}
	return q.pop()
}

// PopTimeout is Pop with a timeout. ok is false if the timeout elapsed first.
// d < 0 waits forever.
func (q *Queue[T]) PopTimeout(p *Proc, d Time) (v T, ok bool) {
	deadline := p.env.now + d
	for q.n == 0 {
		if d < 0 {
			q.cond.Wait(p)
			q.signalled()
			continue
		}
		remain := deadline - p.env.now
		if remain < 0 || q.cond.WaitTimeout(p, remain) {
			var zero T
			return zero, false
		}
		q.signalled()
	}
	return q.pop(), true
}

// ---------------------------------------------------------------------------
// Resources
// ---------------------------------------------------------------------------

// Resource models a pool of identical servers (CPU threads, an RNIC atomic
// unit, ...). Acquire takes one unit, blocking when none are free. Waiters
// queue in arrival order but the hand-off is NOT FIFO: Release wakes the
// oldest waiter, and a process that calls Acquire before that waiter has run
// takes the unit, sending the waiter to the back of the queue. Callers that
// need units granted in request order must sequence the requests themselves
// (DESIGN.md §6 records the one place this has bitten).
type Resource struct {
	capacity int
	inUse    int
	cond     Cond
}

// NewResource returns a resource pool with the given capacity.
func NewResource(capacity int) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource capacity %d", capacity))
	}
	return &Resource{capacity: capacity}
}

// Acquire blocks until a unit is free and takes it.
func (r *Resource) Acquire(p *Proc) {
	for r.inUse >= r.capacity {
		r.cond.Wait(p)
	}
	r.inUse++
}

// Release returns a unit and wakes one waiter.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release of idle resource")
	}
	r.inUse--
	r.cond.Signal()
}

// Use acquires a unit, holds it for service time d, and releases it. This is
// the common pattern for charging CPU or NIC processing time.
func (r *Resource) Use(p *Proc, d Time) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release()
}

// ---------------------------------------------------------------------------
// Pacer
// ---------------------------------------------------------------------------

// Pacer serialises access to a rate-limited serial device (a network link, a
// memory bus). Reserve books the next slot of length d and returns the time
// the booked interval ends; the device is busy until then. It does not block:
// callers that want to experience the delay sleep until the returned time.
type Pacer struct {
	freeAt Time
}

// Reserve books an interval of length d starting no earlier than now, and
// returns the interval's end time.
func (pc *Pacer) Reserve(now, d Time) Time {
	start := now
	if pc.freeAt > start {
		start = pc.freeAt
	}
	pc.freeAt = start + d
	return pc.freeAt
}
