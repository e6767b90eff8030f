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
// and the broker validates the records in place. Nothing is left per record
// over the whole deployment: the parked request is its own continuation and
// the ack is encoded into the session's scratch and staged by QP.SendCopy
// (measured 0.00). The bound leaves room for -race, where sync.Pool drops a
// quarter of its Puts and kwire's pooled codec adds 0.5 (measured 0.49-0.51),
// and for nothing else.
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
	if allocs > 0.9 || bytesPer > 1<<10 {
		t.Fatalf("a pipelined 32 KiB produce cost %.2f allocations and %.0f bytes, want none and at most 1 KiB", allocs, bytesPer)
	}
}

// A Poll allocates nothing, however many records it returns: the fetched
// bytes land in a buffer the consumer keeps — the fetch response's on the RPC
// path, the cursor's on the one-sided one — and are decoded where they lie
// into a slice the consumer keeps too; both are rewritten by the next Poll.
// Each round produces one batch and polls until it arrives; only the polls
// are counted.
func TestPollAllocatesNothing(t *testing.T) {
	const warm, n = 100, 400
	perRound := func(oneSided bool, perBatch int) float64 {
		r := newRig(t, 1)
		if err := r.cl.CreateTopic("t", 1, 1); err != nil {
			t.Fatal(err)
		}
		var objects uint64
		r.drive(func(p *sim.Proc) {
			pr, err := client.NewTCPProducer(p, r.endpoint("pr"), "t", 0, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			var co client.Consumer
			if oneSided {
				co, err = client.NewRDMAConsumer(p, r.endpoint("co"), "t", 0, 0)
			} else {
				co, err = client.NewTCPConsumer(p, r.endpoint("co"), "t", 0, 0, "g")
			}
			if err != nil {
				t.Fatal(err)
			}
			batch := make([]krecord.Record, perBatch)
			for i := range batch {
				batch[i] = krecord.Record{Value: []byte("0123456789abcdef"), Timestamp: 1}
			}
			var before, after runtime.MemStats
			for round := 0; round < warm+n; round++ {
				if _, err := pr.Produce(p, batch...); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&before)
				for got := 0; got < perBatch; {
					recs, err := co.Poll(p)
					if err != nil {
						t.Fatal(err)
					}
					got += len(recs)
				}
				runtime.ReadMemStats(&after)
				if round >= warm {
					objects += after.Mallocs - before.Mallocs
				}
			}
		})
		r.env.Shutdown()
		r.cl.Release()
		return float64(objects) / n
	}
	for _, oneSided := range []bool{false, true} {
		one, many := perRound(oneSided, 1), perRound(oneSided, 64)
		t.Logf("one-sided %v: %.3f objects per fetch of 1 record, %.3f per fetch of 64", oneSided, one, many)
		if !raceDetector && (one > 0.05 || many > 0.05) {
			t.Errorf("one-sided %v: a fetch of 1 record costs %.2f objects and one of 64 costs %.2f, want none", oneSided, one, many)
		}
	}
}

// A commit allocates nothing either: its request and response are the
// consumer's, like a fetch's, and the broker answers it from pooled state.
func TestCommitOffsetAllocatesNothing(t *testing.T) {
	const warm, n = 20, 400
	r := newRig(t, 1)
	if err := r.cl.CreateTopic("t", 1, 1); err != nil {
		t.Fatal(err)
	}
	var objects uint64
	r.drive(func(p *sim.Proc) {
		pr, err := client.NewTCPProducer(p, r.endpoint("pr"), "t", 0, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pr.Produce(p, rec("x")); err != nil {
			t.Fatal(err)
		}
		co, err := client.NewTCPConsumer(p, r.endpoint("co"), "t", 0, 0, "g")
		if err != nil {
			t.Fatal(err)
		}
		for co.Position() < 1 {
			if _, err := co.Poll(p); err != nil {
				t.Fatal(err)
			}
		}
		commit := func(k int) {
			for i := 0; i < k; i++ {
				if err := co.CommitOffset(p); err != nil {
					t.Fatal(err)
				}
			}
		}
		commit(warm)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		commit(n)
		runtime.ReadMemStats(&after)
		objects = after.Mallocs - before.Mallocs
	})
	r.env.Shutdown()
	r.cl.Release()
	perCommit := float64(objects) / n
	t.Logf("%.3f objects per commit", perCommit)
	if !raceDetector && perCommit > 0.05 {
		t.Errorf("a commit costs %.2f objects, want none", perCommit)
	}
}
