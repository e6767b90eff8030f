// Fan-out consumers: the §5.3 "thousands of clients with no CPU cost" claim
// as a runnable example. A crowd of RDMA consumers subscribes to one topic
// and keeps checking for new records. With the TCP stack every check is a
// fetch request the broker must process; with KafkaDirect every check is a
// one-sided read of a metadata slot the RNIC serves by itself. The example
// counts broker-side requests to make the offload visible.
//
//	go run ./examples/fanout-consumers
package main

import (
	"fmt"
	"time"

	"kafkadirect/internal/client"
	"kafkadirect/internal/core"
	"kafkadirect/internal/krecord"
	"kafkadirect/internal/kwire"
	"kafkadirect/internal/sim"
)

const consumers = 120

func main() {
	env := sim.NewEnv(1)
	opts := core.DefaultOptions()
	opts.Config = opts.Config.WithRDMA()
	cl := core.NewCluster(env, opts)
	cl.AddBrokers(1)
	if err := cl.CreateTopic("feed", 1, 1); err != nil {
		panic(err)
	}
	broker := cl.Brokers()[0]

	env.Go("driver", func(p *sim.Proc) {
		defer env.Stop()
		stop := false
		done := sim.NewQueue[int]()

		var crowd []*client.RDMAConsumer
		for i := 0; i < consumers; i++ {
			e := client.NewEndpoint(cl, fmt.Sprintf("client-%d", i+1), client.DefaultConfig())
			c, err := client.NewRDMAConsumer(p, e, "feed", 0, 0)
			if err != nil {
				panic(err)
			}
			crowd = append(crowd, c)
		}
		reqsBefore, _, _ := broker.Stats()

		totalChecks := 0
		for i, c := range crowd {
			i, c := i, c
			env.Go(fmt.Sprintf("consumer-%d", i), func(pp *sim.Proc) {
				checks := 0
				for !stop {
					if _, err := c.Poll(pp); err != nil {
						break
					}
					checks++
				}
				done.Push(checks)
			})
		}

		// Let the crowd poll an idle topic for a while.
		p.Sleep(20 * time.Millisecond)
		stop = true
		for range crowd {
			totalChecks += done.Pop(p)
		}
		reqsAfter, _, _ := broker.Stats()

		rate := float64(totalChecks) / (20 * time.Millisecond).Seconds()
		fmt.Printf("%d consumers performed %d availability checks in 20ms of simulated time\n", consumers, totalChecks)
		fmt.Printf("aggregate check rate: %.1f M checks/s (paper: 8.3 M/s, RNIC-bound)\n", rate/1e6)
		fmt.Printf("broker requests processed during the storm: %d (the RNIC served everything)\n", reqsAfter-reqsBefore)

		// Now publish one record and watch the whole crowd discover it
		// through their metadata slots.
		pe := client.NewEndpoint(cl, fmt.Sprintf("client-%d", consumers+1), client.DefaultConfig())
		producer, err := client.NewRDMAProducer(p, pe, "feed", 0, kwire.AccessExclusive, consumers+1)
		if err != nil {
			panic(err)
		}
		if _, err := producer.Produce(p, krecord.Record{Value: []byte("breaking news"), Timestamp: int64(p.Now())}); err != nil {
			panic(err)
		}
		start := p.Now()
		delivered := 0
		for _, c := range crowd {
			for {
				recs, err := c.Poll(p)
				if err != nil {
					panic(err)
				}
				if len(recs) > 0 {
					delivered++
					break
				}
			}
		}
		fmt.Printf("one record fanned out to %d consumers in %v of simulated time\n",
			delivered, (p.Now() - start).Round(time.Microsecond))
	})
	env.Run()
}
