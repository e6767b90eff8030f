// Command kdquick runs a one-shot produce/consume demo on a simulated
// cluster, printing per-stage timings. It is the fastest way to see the
// datapaths side by side:
//
//	kdquick                       # RDMA datapaths, 1 broker
//	kdquick -mode tcp             # original Kafka baseline
//	kdquick -mode osu             # OSU Kafka baseline
//	kdquick -brokers 3 -rf 3      # replicated topic
//	kdquick -records 100 -size 4096
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"kafkadirect/internal/client"
	"kafkadirect/internal/core"
	"kafkadirect/internal/krecord"
	"kafkadirect/internal/kwire"
	"kafkadirect/internal/sim"
)

func main() {
	mode := flag.String("mode", "rdma", "datapath: rdma | tcp | osu")
	brokers := flag.Int("brokers", 1, "cluster size")
	rf := flag.Int("rf", 1, "replication factor")
	records := flag.Int("records", 20, "records to produce")
	size := flag.Int("size", 128, "record value size in bytes")
	shared := flag.Bool("shared", false, "use shared RDMA produce access")
	flag.Parse()

	fail := func(what string, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", what, err)
			os.Exit(1)
		}
	}
	env := sim.NewEnv(1)
	opts := core.DefaultOptions()
	opts.Config = opts.Config.WithRDMA()
	cl := core.NewCluster(env, opts)
	cl.AddBrokers(*brokers)
	fail("create topic", cl.CreateTopic("demo", 1, *rf))

	env.Go("driver", func(p *sim.Proc) {
		defer env.Stop()
		acks := int8(1)
		if *rf > 1 {
			acks = -1
		}
		pe := client.NewEndpoint(cl, "client-1", client.DefaultConfig())
		var producer client.Producer
		var err error
		switch *mode {
		case "rdma":
			m := kwire.AccessExclusive
			if *shared {
				m = kwire.AccessShared
			}
			producer, err = client.NewRDMAProducer(p, pe, "demo", 0, m, 1)
		case "tcp":
			producer, err = client.NewTCPProducer(p, pe, "demo", 0, acks, 1)
		case "osu":
			producer, err = client.NewOSUProducer(p, pe, "demo", 0, acks, 1)
		default:
			fmt.Fprintf(os.Stderr, "kdquick: unknown mode %q\n", *mode)
			os.Exit(2)
		}
		fail("producer", err)

		value := make([]byte, *size)
		start := p.Now()
		for i := 0; i < *records; i++ {
			_, err := producer.Produce(p, krecord.Record{Value: value, Timestamp: int64(p.Now())})
			fail("produce", err)
		}
		produceTime := p.Now() - start
		fmt.Printf("produced %d x %dB records via %s: %v total, %v per record\n",
			*records, *size, *mode, produceTime.Round(time.Microsecond),
			(produceTime / time.Duration(*records)).Round(100*time.Nanosecond))

		var consumed int
		start = p.Now()
		ce := client.NewEndpoint(cl, "client-2", client.DefaultConfig())
		var co client.Consumer
		var rco *client.RDMAConsumer
		if *mode == "rdma" {
			rco, err = client.NewRDMAConsumer(p, ce, "demo", 0, 0)
			co = rco
		} else {
			co, err = client.NewTCPConsumer(p, ce, "demo", 0, 0, "group")
		}
		fail("consumer", err)
		for consumed < *records {
			recs, err := co.Poll(p)
			fail("poll", err)
			consumed += len(recs)
		}
		if rco != nil {
			fmt.Printf("consumer issued %d data reads, %d metadata reads — zero broker CPU\n",
				rco.StatDataReads, rco.StatMetaReads)
		}
		consumeTime := p.Now() - start
		fmt.Printf("consumed %d records: %v total\n", consumed, consumeTime.Round(time.Microsecond))

		for _, b := range cl.Brokers() {
			reqs, rdmaProd, empty := b.Stats()
			fmt.Printf("%s: %d requests processed (%d RDMA produces, %d empty fetches)\n",
				b.ID(), reqs, rdmaProd, empty)
		}
	})
	env.Run()
	fmt.Printf("simulated time total: %v\n", env.Now().Round(time.Microsecond))
}
