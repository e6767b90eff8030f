// Log aggregation: many application servers append log lines to ONE shared
// topic partition. This is the shared RDMA/TCP produce mode of §4.2.2 —
// writers coordinate through a single RDMA Fetch-and-Add on the broker's
// order|offset word, and the broker commits their interleaved batches in
// order with no holes. A TCP legacy producer participates in the same file
// to show the mixed mode.
//
//	go run ./examples/log-aggregation
package main

import (
	"fmt"

	"kafkadirect/internal/client"
	"kafkadirect/internal/core"
	"kafkadirect/internal/krecord"
	"kafkadirect/internal/kwire"
	"kafkadirect/internal/sim"
)

const (
	appServers   = 6
	linesPerApp  = 40
	legacyLines  = 20
	totalRecords = appServers*linesPerApp + legacyLines
)

func main() {
	env := sim.NewEnv(1)
	opts := core.DefaultOptions()
	opts.Config = opts.Config.WithRDMA()
	cl := core.NewCluster(env, opts)
	cl.AddBrokers(1)
	if err := cl.CreateTopic("applogs", 1, 1); err != nil {
		panic(err)
	}
	// Each client machine is an endpoint named client-N; a producer's id is
	// its N.
	endpoints := 0
	endpoint := func() (*client.Endpoint, int64) {
		endpoints++
		return client.NewEndpoint(cl, fmt.Sprintf("client-%d", endpoints), client.DefaultConfig()), int64(endpoints)
	}

	env.Go("driver", func(p *sim.Proc) {
		defer env.Stop()
		finished := sim.NewQueue[string]()

		// RDMA application servers share the partition via FAA reservations.
		for app := 0; app < appServers; app++ {
			app := app
			env.Go(fmt.Sprintf("app-%d", app), func(pp *sim.Proc) {
				e, id := endpoint()
				producer, err := client.NewRDMAProducer(pp, e, "applogs", 0, kwire.AccessShared, id)
				if err != nil {
					panic(err)
				}
				for line := 0; line < linesPerApp; line++ {
					_, err := producer.Produce(pp, krecord.Record{
						Value:     []byte(fmt.Sprintf("app-%d line %d: request served", app, line)),
						Timestamp: int64(pp.Now()),
					})
					if err != nil {
						panic(err)
					}
				}
				finished.Push(fmt.Sprintf("app-%d", app))
			})
		}
		// One legacy service still publishes over TCP into the same file;
		// the broker routes it through the same atomic word (§4.2.2).
		env.Go("legacy", func(pp *sim.Proc) {
			e, id := endpoint()
			producer, err := client.NewTCPProducer(pp, e, "applogs", 0, 1, id)
			if err != nil {
				panic(err)
			}
			for line := 0; line < legacyLines; line++ {
				if _, err := producer.Produce(pp, krecord.Record{
					Value:     []byte(fmt.Sprintf("legacy line %d", line)),
					Timestamp: int64(pp.Now()),
				}); err != nil {
					panic(err)
				}
			}
			finished.Push("legacy")
		})

		for i := 0; i < appServers+1; i++ {
			fmt.Printf("%s finished publishing\n", finished.Pop(p))
		}

		// The aggregator tails the shared log with one-sided reads.
		e, _ := endpoint()
		aggregator, err := client.NewRDMAConsumer(p, e, "applogs", 0, 0)
		if err != nil {
			panic(err)
		}
		perApp := map[string]int{}
		seen := 0
		var lastOffset int64 = -1
		for seen < totalRecords {
			records, err := aggregator.Poll(p)
			if err != nil {
				panic(err)
			}
			for _, r := range records {
				if r.Offset != lastOffset+1 {
					panic("offset gap: the log has holes")
				}
				lastOffset = r.Offset
				var tag string
				fmt.Sscanf(string(r.Value), "%s", &tag)
				perApp[tag]++
				seen++
			}
		}
		fmt.Printf("aggregated %d records, dense offsets 0..%d\n", seen, lastOffset)
		fmt.Printf("sources seen: %d (want %d)\n", len(perApp), appServers+1)
	})
	env.Run()
}
