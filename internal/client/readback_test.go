package client_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"kafkadirect/internal/client"
	"kafkadirect/internal/core"
	"kafkadirect/internal/krecord"
	"kafkadirect/internal/sim"
)

// mixedStream is one seeded record stream with sizes drawn log-uniformly from
// 16 B to 256 KiB — real producers do not send one size, and every figure
// does — and contents no two records share.
func mixedStream(n int) []krecord.Record {
	rng := rand.New(rand.NewSource(22))
	recs := make([]krecord.Record, n)
	for i := range recs {
		size := int(16 * math.Pow(256<<10/16, rng.Float64()))
		val := make([]byte, size)
		rng.Read(val)
		recs[i] = krecord.Record{Value: val, Timestamp: int64(i + 1)}
	}
	return recs
}

// readbackSkips are the cells that fail for the reason DESIGN.md §6 gives:
// the partition lock is a sim.Resource, Resource is not FIFO, so with more
// than one request in flight and more than one API worker two requests can
// take the lock in swapped order. Under an exclusive grant the second commit
// then parses mid-record (INVALID_RECORD, the producer dies); on the RPC
// paths the log silently holds the records out of order. With Release handing
// the unit straight to the oldest waiter every cell passes. ROADMAP item 1
// fixes it; its PR deletes this table and the cells are its acceptance test.
var readbackSkips = map[string]bool{
	"kafka/window=16/workers=2":    true,
	"kafka/window=16/workers=8":    true,
	"kafka/window=512/workers=2":   true,
	"kafka/window=512/workers=8":   true,
	"osu/window=16/workers=2":      true,
	"osu/window=16/workers=8":      true,
	"osu/window=512/workers=2":     true,
	"osu/window=512/workers=8":     true,
	"kd_excl/window=16/workers=2":  true,
	"kd_excl/window=16/workers=8":  true,
	"kd_excl/window=512/workers=2": true,
	"kd_excl/window=512/workers=8": true,
}

// TestMixedSizeReadback is the append-only-sequence oracle: whatever the
// datapath, the window and the broker's parallelism, what a producer sent is
// what both consumers read back — same bytes, same order, offsets dense. With
// mixed sizes a receive-ring slot takes a small message after a large one and
// the other way round, and a receive queue is consumed and reposted far past
// its depth.
func TestMixedSizeReadback(t *testing.T) {
	const n = 150
	stream := mixedStream(n)
	for _, stack := range producerStacks {
		for _, window := range []int{1, 2, 16, 512} { // 1: synchronous Produce
			for _, workers := range []int{1, 2, 8} {
				name := fmt.Sprintf("%s/window=%d/workers=%d", stack, window, workers)
				t.Run(name, func(t *testing.T) {
					if readbackSkips[name] {
						t.Skip("DESIGN.md §6: the partition lock is not FIFO (ROADMAP item 1)")
					}
					env := sim.NewEnv(7)
					opts := core.DefaultOptions()
					opts.Config = opts.Config.WithRDMA()
					opts.Config.SegmentSize = 2 << 20 // the stream rolls it
					opts.Config.APIWorkers = workers
					cl := core.NewCluster(env, opts)
					cl.AddBrokers(1)
					if err := cl.CreateTopic("t", 1, 1); err != nil {
						t.Fatal(err)
					}
					r := &rig{t: t, env: env, cl: cl}
					cfg := client.DefaultConfig()
					cfg.MaxInFlight, cfg.RPCMaxInFlight = window, window
					r.drive(func(p *sim.Proc) {
						pr, err := newProducer(p, client.NewEndpoint(cl, "pr", cfg), stack)
						if err != nil {
							t.Fatal(err)
						}
						for i, rc := range stream {
							if window == 1 {
								var base int64
								if base, err = pr.Produce(p, rc); err == nil && base != int64(i) {
									t.Fatalf("record %d acknowledged at offset %d", i, base)
								}
							} else {
								err = pr.ProduceAsync(p, rc)
							}
							if err != nil {
								t.Fatalf("record %d (%d B): %v", i, len(rc.Value), err)
							}
						}
						if err := pr.Drain(p); err != nil {
							t.Fatalf("drain: %v", err)
						}
						if hw := cl.LeaderOf("t", 0).Partition("t", 0).Log().HighWatermark(); hw != n {
							t.Fatalf("high watermark %d after %d records", hw, n)
						}
						rpc, err := client.NewTCPConsumer(p, r.endpoint("rpc"), "t", 0, 0, "g")
						if err != nil {
							t.Fatal(err)
						}
						oneSided, err := client.NewRDMAConsumer(p, r.endpoint("one-sided"), "t", 0, 0)
						if err != nil {
							t.Fatal(err)
						}
						for which, co := range []client.Consumer{rpc, oneSided} {
							for got := 0; got < n; {
								recs, err := co.Poll(p)
								if err != nil {
									t.Fatalf("consumer %d at %d: %v", which, got, err)
								}
								for _, rc := range recs {
									if rc.Offset != int64(got) || !bytes.Equal(rc.Value, stream[got].Value) {
										t.Fatalf("consumer %d: record %d read back at offset %d with %d bytes, sent %d",
											which, got, rc.Offset, len(rc.Value), len(stream[got].Value))
									}
									got++
								}
							}
						}
					})
				})
			}
		}
	}
}
