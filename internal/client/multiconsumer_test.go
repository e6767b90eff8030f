package client_test

import (
	"fmt"
	"testing"
	"time"

	"kafkadirect/internal/client"
	"kafkadirect/internal/core"
	"kafkadirect/internal/krecord"
	"kafkadirect/internal/kwire"
	"kafkadirect/internal/sim"
)

// multiRig builds a single-broker cluster with several partitions so all
// subscriptions share one leader (and therefore one slot region).
func multiRig(t *testing.T, partitions int) *rig {
	r := newRig(t, 1)
	if err := r.cl.CreateTopic("multi", partitions, 1); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestMultiConsumerReadsAllPartitions(t *testing.T) {
	const parts = 3
	const perPart = 15
	r := multiRig(t, parts)
	r.drive(func(p *sim.Proc) {
		for pi := 0; pi < parts; pi++ {
			pr, err := client.NewRDMAProducer(p, r.endpoint(fmt.Sprintf("pr-%d", pi)), "multi", int32(pi), kwire.AccessExclusive, int64(pi))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < perPart; i++ {
				if _, err := pr.Produce(p, rec(fmt.Sprintf("p%d-m%d", pi, i))); err != nil {
					t.Fatal(err)
				}
			}
		}
		broker := r.cl.LeaderOf("multi", 0)
		co, err := client.NewMultiRDMAConsumer(p, r.endpoint("co"), broker)
		if err != nil {
			t.Fatal(err)
		}
		for pi := 0; pi < parts; pi++ {
			if err := co.Subscribe(p, "multi", int32(pi), 0); err != nil {
				t.Fatal(err)
			}
		}
		perPartSeen := map[int32]int{}
		next := map[int32]int64{}
		total := 0
		for total < parts*perPart {
			recs, err := co.Poll(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range recs {
				if tr.Offset != next[tr.Partition] {
					t.Fatalf("partition %d: offset %d, want %d", tr.Partition, tr.Offset, next[tr.Partition])
				}
				next[tr.Partition]++
				want := fmt.Sprintf("p%d-m%d", tr.Partition, perPartSeen[tr.Partition])
				if string(tr.Value) != want {
					t.Fatalf("partition %d record %q, want %q", tr.Partition, tr.Value, want)
				}
				perPartSeen[tr.Partition]++
				total++
			}
		}
		for pi := int32(0); pi < parts; pi++ {
			if co.Position("multi", pi) != perPart {
				t.Fatalf("partition %d position %d", pi, co.Position("multi", pi))
			}
		}
	})
}

func TestMultiConsumerSingleReadRefreshesAllSlots(t *testing.T) {
	// Figure 9's point: checking N idle partitions costs ONE RDMA read, not N.
	const parts = 5
	r := multiRig(t, parts)
	r.drive(func(p *sim.Proc) {
		broker := r.cl.LeaderOf("multi", 0)
		co, err := client.NewMultiRDMAConsumer(p, r.endpoint("co"), broker)
		if err != nil {
			t.Fatal(err)
		}
		for pi := 0; pi < parts; pi++ {
			if err := co.Subscribe(p, "multi", int32(pi), 0); err != nil {
				t.Fatal(err)
			}
		}
		const polls = 12
		for i := 0; i < polls; i++ {
			recs, err := co.Poll(p)
			if err != nil || len(recs) != 0 {
				t.Fatalf("idle poll returned %v, %v", recs, err)
			}
		}
		if co.StatMetaReads != polls {
			t.Fatalf("meta reads %d for %d idle polls over %d partitions — want one per poll",
				co.StatMetaReads, polls, parts)
		}
	})
}

func TestMultiConsumerDiscoversNewRecordsOnAnyPartition(t *testing.T) {
	const parts = 4
	r := multiRig(t, parts)
	r.drive(func(p *sim.Proc) {
		broker := r.cl.LeaderOf("multi", 0)
		co, err := client.NewMultiRDMAConsumer(p, r.endpoint("co"), broker)
		if err != nil {
			t.Fatal(err)
		}
		for pi := 0; pi < parts; pi++ {
			if err := co.Subscribe(p, "multi", int32(pi), 0); err != nil {
				t.Fatal(err)
			}
		}
		co.Poll(p) // idle round
		// Publish to partition 2 only.
		pr, _ := client.NewRDMAProducer(p, r.endpoint("pr"), "multi", 2, kwire.AccessExclusive, 9)
		if _, err := pr.Produce(p, rec("surprise")); err != nil {
			t.Fatal(err)
		}
		deadline := p.Now() + 10*time.Millisecond
		for p.Now() < deadline {
			recs, err := co.Poll(p)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) > 0 {
				if recs[0].Partition != 2 || string(recs[0].Value) != "surprise" {
					t.Fatalf("got %+v", recs[0])
				}
				return
			}
		}
		t.Fatal("record never discovered")
	})
}

func TestMultiConsumerRejectsForeignPartition(t *testing.T) {
	r := newRig(t, 2)
	// With 2 brokers and round-robin assignment, partitions 0 and 1 land on
	// different leaders.
	if err := r.cl.CreateTopic("spread", 2, 1); err != nil {
		t.Fatal(err)
	}
	r.drive(func(p *sim.Proc) {
		b0 := r.cl.LeaderOf("spread", 0)
		b1 := r.cl.LeaderOf("spread", 1)
		if b0 == b1 {
			t.Skip("assignment put both partitions on one broker")
		}
		co, err := client.NewMultiRDMAConsumer(p, r.endpoint("co"), b0)
		if err != nil {
			t.Fatal(err)
		}
		if err := co.Subscribe(p, "spread", 0, 0); err != nil {
			t.Fatal(err)
		}
		if err := co.Subscribe(p, "spread", 1, 0); err == nil {
			t.Fatal("subscription to a partition on another broker should fail")
		}
	})
}

func TestMultiConsumerFollowsSegmentRolls(t *testing.T) {
	r := newRig(t, 1)
	env := sim.NewEnv(3)
	opts := core.DefaultOptions()
	opts.Config = opts.Config.WithRDMA()
	opts.Config.SegmentSize = 4096
	r.env = env
	r.cl = core.NewCluster(env, opts)
	r.cl.AddBrokers(1)
	r.cl.CreateTopic("multi", 2, 1)
	r.drive(func(p *sim.Proc) {
		const perPart = 20
		for pi := int32(0); pi < 2; pi++ {
			pr, _ := client.NewRDMAProducer(p, r.endpoint(fmt.Sprintf("pr%d", pi)), "multi", pi, kwire.AccessExclusive, int64(pi))
			for i := 0; i < perPart; i++ {
				if _, err := pr.Produce(p, krecord512()); err != nil {
					t.Fatal(err)
				}
			}
		}
		broker := r.cl.LeaderOf("multi", 0)
		if broker.Partition("multi", 0).Log().NumSegments() < 3 {
			t.Fatal("expected segment rolls")
		}
		co, _ := client.NewMultiRDMAConsumer(p, r.endpoint("co"), broker)
		co.Subscribe(p, "multi", 0, 0)
		co.Subscribe(p, "multi", 1, 0)
		total := 0
		for total < 2*perPart {
			recs, err := co.Poll(p)
			if err != nil {
				t.Fatal(err)
			}
			total += len(recs)
		}
	})
}

func krecord512() krecord.Record {
	return krecord.Record{Value: make([]byte, 512), Timestamp: 1}
}

// TestMultiConsumerWithOneSubscriptionMatchesSingle: both consumers are a
// read session plus cursors under the session's one poll policy, so on
// identical rigs a one-subscription multi consumer must deliver the same
// records in the same batches, from the same number of data reads, and leave
// the broker with the same memory registered — every sealed file released.
func TestMultiConsumerWithOneSubscriptionMatchesSingle(t *testing.T) {
	const n = 300
	type outcome struct {
		batches    [][]int64 // offsets per non-empty poll
		dataReads  int
		registered uint64
	}
	run := func(multi bool) outcome {
		r := pinRig(t, 128<<10)
		var out outcome
		r.drive(func(p *sim.Proc) {
			pr, err := client.NewTCPProducer(p, r.endpoint("pr"), "t", 0, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < n; k++ {
				if _, err := pr.Produce(p, krecord.Record{Value: make([]byte, 1024), Timestamp: int64(k)}); err != nil {
					t.Fatal(err)
				}
			}
			broker := r.cl.LeaderOf("t", 0)
			if broker.Partition("t", 0).Log().NumSegments() < 3 {
				t.Fatal("expected the preload to span segment rolls")
			}
			var poll func() []int64
			var reads func() int
			if multi {
				co, err := client.NewMultiRDMAConsumer(p, r.endpoint("co"), broker)
				if err != nil {
					t.Fatal(err)
				}
				if err := co.Subscribe(p, "t", 0, 0); err != nil {
					t.Fatal(err)
				}
				poll = func() (offs []int64) {
					recs, err := co.Poll(p)
					if err != nil {
						t.Fatal(err)
					}
					for _, rc := range recs {
						offs = append(offs, rc.Offset)
					}
					return offs
				}
				reads = func() int { return co.StatDataReads }
			} else {
				co, err := client.NewRDMAConsumer(p, r.endpoint("co"), "t", 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				poll = func() (offs []int64) {
					recs, err := co.Poll(p)
					if err != nil {
						t.Fatal(err)
					}
					for _, rc := range recs {
						offs = append(offs, rc.Offset)
					}
					return offs
				}
				reads = func() int { return co.StatDataReads }
			}
			for got := 0; got < n; {
				if offs := poll(); len(offs) > 0 {
					out.batches = append(out.batches, offs)
					got += len(offs)
				}
			}
			out.dataReads = reads()
			out.registered = broker.Device().RegisteredBytes()
		})
		return out
	}
	single, multi := run(false), run(true)
	if fmt.Sprint(single.batches) != fmt.Sprint(multi.batches) {
		t.Fatalf("batches differ:\nsingle %v\nmulti  %v", single.batches, multi.batches)
	}
	if single.dataReads != multi.dataReads {
		t.Fatalf("data reads: single %d, multi %d", single.dataReads, multi.dataReads)
	}
	if single.registered != multi.registered {
		t.Fatalf("broker registered bytes: single %d, multi %d — a sealed file was not released", single.registered, multi.registered)
	}
}
