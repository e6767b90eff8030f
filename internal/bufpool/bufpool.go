// Package bufpool recycles large byte buffers across simulation runs.
//
// The benchmark harness builds one simulated cluster per data point, and a
// cluster's large buffers — a preallocated segment file per partition, a
// verbs target region, megabyte wire frames — are sized for the largest
// workload, not for the bytes a data point moves. With
// plain make([]byte, n) the runtime clears every such span on allocation and
// the collector then frees it, so host cost follows the bytes provisioned.
// The pool makes it follow the bytes moved: a buffer is returned with an
// explicit "dirty prefix" length, only that prefix is cleared, and the next
// rig gets the same span back without the runtime touching it.
//
// The pool is one process-wide free list per exact buffer size, guarded by a
// mutex and holding its buffers strongly: a collection never empties it.
// Every pooled buffer was live in some rig before it was returned, so the
// pool never holds more than the largest set of buffers that were live at
// once, and needs neither a cap nor a setting. Rigs return their buffers in
// one place, when the simulation has shut down (fabric.Network.Release,
// which core.Cluster.Release calls).
//
// Invariant: every buffer handed out by Get is fully zero, exactly like a
// fresh make([]byte, n) — so pooling is invisible to simulation behaviour.
// Callers must report a dirty length covering every byte they wrote, or the
// invariant (and simulation determinism) breaks.
package bufpool

import "sync"

// free holds the clean buffers, keyed by their exact length.
var (
	mu   sync.Mutex
	free = map[int][][]byte{}
)

// Get returns a zeroed buffer of exactly size bytes.
func Get(size int) []byte {
	if size <= 0 {
		return nil
	}
	mu.Lock()
	if s := free[size]; len(s) > 0 {
		buf := s[len(s)-1]
		s[len(s)-1] = nil
		free[size] = s[:len(s)-1]
		mu.Unlock()
		return buf
	}
	mu.Unlock()
	return make([]byte, size)
}

// Put returns buf to the pool. dirty is the caller's write high-water mark:
// every byte the caller may have written must lie in buf[:dirty]. The dirty
// prefix is zeroed here so the pool invariant holds; passing a dirty value
// smaller than the true written extent corrupts later Get callers. Put of a
// nil or empty buffer is a no-op.
func Put(buf []byte, dirty int) {
	if len(buf) == 0 {
		return
	}
	if dirty > len(buf) {
		dirty = len(buf)
	}
	if dirty > 0 {
		clear(buf[:dirty])
	}
	mu.Lock()
	free[len(buf)] = append(free[len(buf)], buf[:len(buf):len(buf)])
	mu.Unlock()
}

// ---------------------------------------------------------------------------
// Wire-buffer free lists
// ---------------------------------------------------------------------------

// List is a size-classed free list for short-lived wire buffers: modeled
// kernel copies, RDMA staging buffers, encoded RPC frames. It differs from
// the package-level pool in two deliberate ways:
//
//   - Buffers are NOT zeroed on Get. Wire buffers are always fully
//     overwritten (a copy or an encode of exactly len bytes) before anyone
//     reads them, so re-zeroing would be pure overhead. Callers must write
//     every byte of the returned buffer before handing it to a reader.
//   - It is not safe for concurrent use. Each simulation environment owns
//     its own List (reached through fabric.Network), and a simulation runs
//     exactly one process at a time, so no locking is needed even when the
//     benchmark harness runs many simulations on parallel OS threads.
//
// Capacities are rounded up to powers of two between minClass and maxClass;
// requests larger than maxClass fall through to plain make and are dropped
// on Put. Classes of 64 KiB and up draw their buffers from the package-level
// pool and Release hands them back, so a rig's megabyte frames are the
// previous rig's.
type List struct {
	classes [listClasses][][]byte
}

const (
	listMinBits = 6  // smallest class: 64 B
	listMaxBits = 24 // largest class: 16 MiB
	listClasses = listMaxBits - listMinBits + 1
	// listSharedClass is the first class backed by the package-level pool.
	listSharedClass = 16 - listMinBits // 64 KiB
)

// listClass returns the class index whose capacity (1 << (listMinBits+c))
// holds n bytes, or -1 if n is too large to pool.
func listClass(n int) int {
	c := 0
	for n > 1<<(listMinBits+c) {
		c++
		if c >= listClasses {
			return -1
		}
	}
	return c
}

// Get returns a buffer of length n whose contents are UNSPECIFIED — the
// caller must overwrite all n bytes before any reader sees them. A nil *List
// degrades to plain allocation.
func (l *List) Get(n int) []byte {
	if n <= 0 {
		return nil
	}
	c := listClass(n)
	if l == nil || c < 0 {
		return make([]byte, n)
	}
	if s := l.classes[c]; len(s) > 0 {
		buf := s[len(s)-1]
		s[len(s)-1] = nil
		l.classes[c] = s[:len(s)-1]
		return buf[:n]
	}
	if c >= listSharedClass {
		return Get(1 << (listMinBits + c))[:n]
	}
	return make([]byte, n, 1<<(listMinBits+c))
}

// Put recycles a buffer previously handed out by Get. The caller must not
// retain any reference to buf — a later Get may hand it to someone else.
// Buffers whose capacity is not poolable are dropped.
func (l *List) Put(buf []byte) {
	if l == nil {
		return
	}
	c := cap(buf)
	if c < 1<<listMinBits || c > 1<<listMaxBits {
		return
	}
	// File under the largest class the capacity fully covers, so a Get on
	// that class can always slice to the class's nominal size.
	cls := 0
	for cls+1 < listClasses && 1<<(listMinBits+cls+1) <= c {
		cls++
	}
	l.classes[cls] = append(l.classes[cls], buf[:0:c])
}

// Release hands the list's buffers of 64 KiB and up back to the package-level
// pool, cleared whole (a wire buffer carries no write high-water mark), and
// drops its reference to them. Call it once the owning simulation has shut
// down. Buffers still in flight then, and buffers of a foreign capacity that
// Put adopted, are left to the collector.
func (l *List) Release() {
	for c := listSharedClass; c < listClasses; c++ {
		for _, buf := range l.classes[c] {
			if cap(buf) == 1<<(listMinBits+c) {
				Put(buf[:cap(buf)], cap(buf))
			}
		}
		l.classes[c] = nil
	}
}
