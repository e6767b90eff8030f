// Quickstart: bring up a single-broker KafkaDirect deployment, produce a few
// records over the zero-copy RDMA datapath, and read them back with
// one-sided RDMA Reads — all in a deterministic simulation that runs in
// milliseconds.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"kafkadirect/internal/client"
	"kafkadirect/internal/core"
	"kafkadirect/internal/krecord"
	"kafkadirect/internal/kwire"
	"kafkadirect/internal/sim"
)

func main() {
	env := sim.NewEnv(1)
	opts := core.DefaultOptions()
	opts.Config = opts.Config.WithRDMA()
	cl := core.NewCluster(env, opts)
	cl.AddBrokers(1)
	if err := cl.CreateTopic("greetings", 1, 1); err != nil {
		panic(err)
	}

	env.Go("driver", func(p *sim.Proc) {
		defer env.Stop()
		pe := client.NewEndpoint(cl, "client-1", client.DefaultConfig())
		producer, err := client.NewRDMAProducer(p, pe, "greetings", 0, kwire.AccessExclusive, 1)
		if err != nil {
			panic(err)
		}
		for i := 0; i < 5; i++ {
			offset, err := producer.Produce(p, krecord.Record{
				Value:     []byte(fmt.Sprintf("hello #%d over RDMA", i)),
				Timestamp: int64(p.Now()),
			})
			if err != nil {
				panic(err)
			}
			fmt.Printf("produced at offset %d (t=%v)\n", offset, p.Now())
		}

		ce := client.NewEndpoint(cl, "client-2", client.DefaultConfig())
		consumer, err := client.NewRDMAConsumer(p, ce, "greetings", 0, 0)
		if err != nil {
			panic(err)
		}
		got := 0
		for got < 5 {
			records, err := consumer.Poll(p)
			if err != nil {
				panic(err)
			}
			for _, r := range records {
				fmt.Printf("consumed offset %d: %s\n", r.Offset, r.Value)
				got++
			}
		}
		fmt.Printf("broker-side RDMA reads: %d data, %d metadata — zero broker CPU\n",
			consumer.StatDataReads, consumer.StatMetaReads)
	})
	env.Run()
	fmt.Printf("simulated time: %v\n", env.Now())
}
