package core_test

import (
	"runtime"
	"testing"

	"kafkadirect/internal/client"
	"kafkadirect/internal/core"
	"kafkadirect/internal/sim"
)

// allocatedBy returns the heap bytes fn allocated.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A rig built after another was released is built from the first one's
// buffers: Release returns the segment files, and neither a collection nor
// anything else takes them out of the pool in between.
func TestSecondRigReusesReleasedSegments(t *testing.T) {
	rig := func() {
		r := newRig(t, 3, func(o *core.Options) { o.Config.SegmentSize = 64 << 20 })
		if err := r.cl.CreateTopic("t", 1, 3); err != nil {
			t.Fatal(err)
		}
		r.drive(func(p *sim.Proc) {
			pr, err := client.NewTCPProducer(p, r.endpoint("cli"), "t", 0, -1, 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := pr.Produce(p, recordsOf(4, 1000, 'r')...); err != nil {
				t.Fatal(err)
			}
		})
		r.env.Shutdown()
		r.cl.Release()
	}
	rig()
	runtime.GC()
	runtime.GC()
	if got := allocatedBy(rig); got >= 1<<20 {
		t.Fatalf("the second rf=3 rig allocated %d KiB, want under 1 MiB (three fresh 64 MiB segments are 192 MiB)", got>>10)
	}
}

// The same for a two-sided connection: its receive rings, 64 slots that each
// take up to 1 MiB, hold what landed in them and nothing more, and the wire
// buffers that did land come back from the rig before.
func TestSecondOSUConnectionReusesReleasedRings(t *testing.T) {
	dial := func() {
		r := newRig(t, 1, nil)
		if err := r.cl.CreateTopic("t", 1, 1); err != nil {
			t.Fatal(err)
		}
		r.drive(func(p *sim.Proc) {
			pr, err := client.NewOSUProducer(p, r.endpoint("cli"), "t", 0, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := pr.Produce(p, recordsOf(2, 5000, 'o')...); err != nil {
				t.Fatal(err)
			}
		})
		r.env.Shutdown()
		r.cl.Release()
	}
	dial()
	runtime.GC()
	runtime.GC()
	if got := allocatedBy(dial); got >= 1<<20 {
		t.Fatalf("the second OSU connection allocated %d KiB, want under 1 MiB (two rings provisioned in full are 128 MiB)", got>>10)
	}
}

// A steady pull fetch costs the follower no allocation that grows with the
// fetch: the request is encoded into a scratch, the response decoded into a
// reused message, the frame recycled, the kernel copies drawn from the wire
// free list. Before, every 1 MiB fetch left a 2 MiB frame and a 1 MiB
// payload copy to the collector.
func TestPullFetchAllocationIsFlat(t *testing.T) {
	const warm, fetches, size = 3, 60, 1 << 20
	r := newRig(t, 2, func(o *core.Options) { o.Config.SegmentSize = 64 << 20 })
	if err := r.cl.CreateTopic("t", 1, 2); err != nil {
		t.Fatal(err)
	}
	var perFetch uint64
	r.drive(func(p *sim.Proc) {
		pr, err := client.NewTCPProducer(p, r.endpoint("cli"), "t", 0, -1, 1)
		if err != nil {
			t.Fatal(err)
		}
		rec := recordsOf(1, size, 'f')
		produce := func(n int) {
			for i := 0; i < n; i++ {
				// acks=all: the produce returns once the follower's fetcher
				// has pulled and appended the record.
				if _, err := pr.Produce(p, rec...); err != nil {
					t.Fatal(err)
				}
			}
		}
		produce(warm)
		perFetch = allocatedBy(func() { produce(fetches) }) / fetches
	})
	r.env.Shutdown()
	follower := r.cl.Brokers()[1].Partition("t", 0).Log()
	if got := follower.NextOffset(); got != warm+fetches {
		t.Fatalf("follower log ends at %d, want %d", got, warm+fetches)
	}
	r.cl.Release()
	if perFetch > 4<<10 {
		t.Fatalf("a replicated 1 MiB produce allocated %d bytes, want at most 4 KiB", perFetch)
	}
}
