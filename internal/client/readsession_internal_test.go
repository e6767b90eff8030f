package client

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"kafkadirect/internal/core"
	"kafkadirect/internal/krecord"
	"kafkadirect/internal/sim"
)

// The one-sided consumer decodes records where its Reads landed, and a Read
// lands in the same buffer as the incomplete batch before it. Every record a
// Poll returns must read back as sent until the next Poll, and every record
// must be delivered exactly once: with batches that straddle Reads (sizes
// from 16 B to 8 KiB against 2 KiB Reads), one Read deep and eight, across
// file hops, and across a QP failure that strikes the Reads in flight while
// the buffer holds an incomplete batch, so recover has to drop that tail and
// read it again.
func TestOneSidedRecordsHoldUntilTheNextPoll(t *testing.T) {
	const n = 400
	rng := rand.New(rand.NewSource(29))
	sent := make([][]byte, n)
	for i := range sent {
		sent[i] = make([]byte, int(16*math.Pow(8<<10/16, rng.Float64())))
		rng.Read(sent[i])
	}
	for _, depth := range []int{1, 8} {
		t.Run(fmt.Sprintf("pipeline=%d", depth), func(t *testing.T) {
			env := sim.NewEnv(3)
			opts := core.DefaultOptions()
			opts.Config = opts.Config.WithRDMA()
			opts.Config.SegmentSize = 64 << 10
			cl := core.NewCluster(env, opts)
			cl.AddBrokers(1)
			if err := cl.CreateTopic("t", 1, 1); err != nil {
				t.Fatal(err)
			}
			broker := cl.LeaderOf("t", 0)
			finished := false
			env.Go("driver", func(p *sim.Proc) {
				defer env.Stop()
				pr, err := NewTCPProducer(p, NewEndpoint(cl, "pr", DefaultConfig()), "t", 0, 1, 1)
				if err != nil {
					t.Error(err)
					return
				}
				for i, v := range sent {
					if _, err := pr.Produce(p, krecord.Record{Value: v, Timestamp: int64(i + 1)}); err != nil {
						t.Errorf("produce %d: %v", i, err)
						return
					}
				}
				co, err := NewRDMAConsumer(p, NewEndpoint(cl, "co", DefaultConfig()), "t", 0, 0)
				if err != nil {
					t.Error(err)
					return
				}
				co.Pipeline = depth
				firstQP := co.qp
				faulted := false
				for got := 0; got < n; {
					tail := len(co.cur.partial) > co.cur.delivered
					if !faulted && got > n/3 && tail {
						faulted = true
						env.After(time.Microsecond, func() { broker.Device().FailAllQPs("test") })
					}
					recs, err := co.Poll(p)
					if err != nil {
						t.Errorf("poll at record %d: %v", got, err)
						return
					}
					for _, rc := range recs {
						if rc.Offset != int64(got) || !bytes.Equal(rc.Value, sent[got]) {
							t.Errorf("record %d delivered at offset %d with %d bytes, sent %d", got, rc.Offset, len(rc.Value), len(sent[got]))
							return
						}
						got++
					}
				}
				if !faulted || co.qp == firstQP {
					t.Errorf("the QP failure never struck with a tail buffered (faulted %v) or was never recovered", faulted)
				}
				if co.cur.file.FileID == 0 {
					t.Error("the consumer never hopped off the first file")
				}
				if recs, err := co.Poll(p); err != nil || len(recs) != 0 {
					t.Errorf("a poll past the end returned %d records, %v", len(recs), err)
				}
				finished = true
			})
			env.RunUntil(time.Minute)
			env.Shutdown()
			cl.Release()
			if !finished {
				t.Fatal("driver did not finish")
			}
		})
	}
}
