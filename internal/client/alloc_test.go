package client_test

import (
	"bytes"
	"runtime"
	"testing"

	"kafkadirect/internal/client"
	"kafkadirect/internal/core"
	"kafkadirect/internal/krecord"
	"kafkadirect/internal/kwire"
	"kafkadirect/internal/sim"
)

// A pipelined one-sided produce allocates nothing that grows with the
// record: the private copy a WRITE needs until it is delivered comes from
// the pipeline's ring, the wait for window room reuses the cond's waiter list
// and the broker validates the records in place. What is left per record,
// over the whole deployment, is two small objects on the broker's commit path
// (the ack frame and the ack continuation; measured 2.02). The bound leaves
// room for -race, where sync.Pool drops a quarter of its Puts and kwire's
// pooled writer and reader add 0.5 (measured 2.51-2.58), and for nothing else.
func TestPipelinedOneSidedProduceAllocatesNoBatchCopies(t *testing.T) {
	const warm, n, size = 200, 1000, 32 << 10
	env := sim.NewEnv(3)
	opts := core.DefaultOptions()
	opts.Config = opts.Config.WithRDMA()
	opts.Config.SegmentSize = 64 << 20 // holds the run without a roll
	cl := core.NewCluster(env, opts)
	cl.AddBrokers(1)
	r := &rig{t: t, env: env, cl: cl}
	if err := cl.CreateTopic("t", 1, 1); err != nil {
		t.Fatal(err)
	}
	var allocs, bytesPer float64
	r.drive(func(p *sim.Proc) {
		pr, err := client.NewRDMAProducer(p, r.endpoint("cli"), "t", 0, kwire.AccessExclusive, 1)
		if err != nil {
			t.Fatal(err)
		}
		rec := krecord.Record{Value: bytes.Repeat([]byte{'v'}, size), Timestamp: 1}
		flood := func(n int) {
			for i := 0; i < n; i++ {
				if err := pr.ProduceAsync(p, rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := pr.Drain(p); err != nil {
				t.Fatal(err)
			}
		}
		flood(warm) // several times the window: every ring buffer has its size
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		flood(n)
		runtime.ReadMemStats(&after)
		allocs = float64(after.Mallocs-before.Mallocs) / n
		bytesPer = float64(after.TotalAlloc-before.TotalAlloc) / n
	})
	env.Shutdown()
	cl.Release()
	if allocs > 2.9 || bytesPer > 1<<10 {
		t.Fatalf("a pipelined 32 KiB produce cost %.2f allocations and %.0f bytes, want at most 2 and 1 KiB", allocs, bytesPer)
	}
}
