package bufpool

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// firstNonZero returns the index of the first non-zero byte of b, or -1:
// the check every test applies to what Get hands out.
func firstNonZero(b []byte) int {
	for i := range b {
		if b[i] != 0 {
			return i
		}
	}
	return -1
}

func TestGetReturnsZeroedBuffer(t *testing.T) {
	b := Get(1 << 12)
	if len(b) != 1<<12 {
		t.Fatalf("len = %d", len(b))
	}
	if i := firstNonZero(b); i >= 0 {
		t.Fatalf("fresh buffer dirty at %d", i)
	}
}

// A pooled buffer is held strongly: two collections (which empty a sync.Pool,
// victim generation included) do not lose it, and it comes back fully zero.
func TestPutSurvivesCollections(t *testing.T) {
	const size = 3<<20 + 17 // a size no other test uses
	b := Get(size)
	b[0], b[size/2] = 1, 2
	base := unsafe.SliceData(b)
	Put(b, size/2+1)
	runtime.GC()
	runtime.GC()
	c := Get(size)
	if unsafe.SliceData(c) != base {
		t.Fatal("the pooled buffer did not survive two collections")
	}
	if i := firstNonZero(c); i >= 0 {
		t.Fatalf("recycled buffer dirty at %d", i)
	}
	Put(c, 0)
}

// A dirty length short of a written byte breaks the invariant, and the
// all-zero check is what notices: the tests that guard callers' dirty
// accounting (klog, rdma, core) rely on exactly this.
func TestShortDirtyIsCaughtByZeroCheck(t *testing.T) {
	const size = 1<<16 + 3
	b := Get(size)
	b[100] = 0xff
	Put(b, 100) // one byte short
	c := Get(size)
	if i := firstNonZero(c); i != 100 {
		t.Fatalf("zero check reported %d, want the stale byte at 100", i)
	}
	Put(c, 101)
}

// Get and Put from many goroutines at once, as the figure harness's workers
// do; run under -race.
func TestConcurrentGetPut(t *testing.T) {
	sizes := []int{64, 4096, 1<<16 + 1, 1 << 20}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				size := sizes[(g+i)%len(sizes)]
				b := Get(size)
				if len(b) != size {
					t.Errorf("Get(%d) returned %d bytes", size, len(b))
					return
				}
				if at := firstNonZero(b); at >= 0 {
					t.Errorf("Get(%d) dirty at %d", size, at)
					return
				}
				b[size-1], b[i%size] = 1, 1
				Put(b, size)
			}
		}(g)
	}
	wg.Wait()
}

func TestPutZeroesDirtyPrefixOnly(t *testing.T) {
	b := Get(1 << 12)
	for i := 0; i < 100; i++ {
		b[i] = 0xff
	}
	Put(b, 100)
	// The recycled buffer (whether we get the same one back or not) must be
	// fully zero again.
	for round := 0; round < 4; round++ {
		c := Get(1 << 12)
		if i := firstNonZero(c); i >= 0 {
			t.Fatalf("round %d: recycled buffer dirty at %d", round, i)
		}
		c[len(c)-1] = 1
		Put(c, len(c))
	}
}

func TestPutClampsOversizedDirty(t *testing.T) {
	b := Get(64)
	Put(b, 1<<20) // must not panic
}

func TestZeroSize(t *testing.T) {
	if b := Get(0); b != nil {
		t.Fatal("Get(0) != nil")
	}
	Put(nil, 10) // no-op
}

func TestDistinctSizesDoNotMix(t *testing.T) {
	a := Get(128)
	Put(a, 0)
	b := Get(256)
	if len(b) != 256 {
		t.Fatalf("got %d-byte buffer from 256 pool", len(b))
	}
	Put(b, 0)
}

// The list's large classes come from the package-level pool and go back to
// it, fully cleared, on Release; small classes and foreign capacities do not.
func TestListReleaseReturnsLargeClasses(t *testing.T) {
	var l List
	big := l.Get(100 << 10) // 128 KiB class
	if cap(big) != 128<<10 {
		t.Fatalf("cap = %d, want the 128 KiB class", cap(big))
	}
	for i := range big {
		big[i] = 0xaa
	}
	base := unsafe.SliceData(big)
	small := l.Get(100)
	l.Put(big)
	l.Put(small)
	l.Put(make([]byte, 0, 100<<10)) // adopted, but of no pooled capacity
	l.Release()
	got := Get(128 << 10)
	if unsafe.SliceData(got) != base {
		t.Fatal("Release did not return the 128 KiB buffer to the pool")
	}
	if i := firstNonZero(got); i >= 0 {
		t.Fatalf("released wire buffer dirty at %d", i)
	}
	if again := l.Get(100 << 10); unsafe.SliceData(again) == base {
		t.Fatal("the list kept a reference to a buffer it released")
	}
	Put(got, 0)
}
