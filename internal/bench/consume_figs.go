package bench

import (
	"fmt"
	"time"

	"kafkadirect/internal/client"
	"kafkadirect/internal/sim"
)

// preload appends n records of the given size through the fast path (direct
// log writes via a local RDMA producer) and waits until committed.
func preload(p *sim.Proc, r *sysRig, topic string, n, size int) {
	pr := newProducer(p, r.endpoint("loader"), sysKDExcl, topic, 0, 1, 999)
	flood(p, pr, n, same(payload(size, 'd')))
	pr.Close()
	p.Sleep(time.Millisecond)
}

// newRPCConsumer opens a classic fetch-RPC consumer (TCP, or OSU's two-sided
// RDMA transport) on the consume figures' partition, from offset 0.
func newRPCConsumer(p *sim.Proc, e *client.Endpoint, osu bool) *client.RPCConsumer {
	open := client.NewTCPConsumer
	if osu {
		open = client.NewOSUConsumer
	}
	co, err := open(p, e, "t", 0, 0, "g")
	must(err)
	return co
}

// newRDMAConsumer opens a one-sided consumer on the same partition.
func newRDMAConsumer(p *sim.Proc, e *client.Endpoint) *client.RDMAConsumer {
	co, err := client.NewRDMAConsumer(p, e, "t", 0, 0)
	must(err)
	return co
}

// fig18 reproduces consumer latency on preloaded data: the paper preloads
// 10 000 records and fetches them one by one; Kafka needs a fetch RPC per
// record (~200 µs+), the RDMA consumer a 2 KiB read (~4.2 µs).
func fig18(st *Stats) *Table {
	t := &Table{
		ID:      "fig18",
		Title:   "Consumer latency per record (us), preloaded TP",
		Columns: []string{"size", "kafka", "kd"},
	}
	sizes := []int{32, 128, 512, 2048, 8192, 32768, 131072}
	t.addGrid(labels(sizes, sizeLabel), grid(len(sizes), 2, func(r, c int) any {
		if c == 0 {
			return consumeLatencyTCP(st, sizes[r])
		}
		return consumeLatencyRDMA(st, sizes[r], 0)
	}))
	t.Note("paper: Kafka >=200us everywhere; KafkaDirect 4.2us small (50x), growing with record size")
	return t
}

func consumeLatencyTCP(st *Stats, size int) time.Duration {
	const n = 40
	r := newSysRig(rigConfig{brokers: 1, segmentSize: segmentFor(n+5, size), stats: st})
	r.topic("t", 1, 1)
	var lat time.Duration
	r.run(func(p *sim.Proc) {
		preload(p, r, "t", n+5, size)
		co := newRPCConsumer(p, r.endpoint("cli"), false)
		// One record per fetch, like the paper's latency setup.
		co.LongPoll = false
		co.MaxBytesOverride = 1
		// The warm-up fetch is the first of the n records.
		lat = mean(closedLoop(p, 1, n-1, nil, func() { pollRecords(p, co) }))
	})
	return lat
}

// emptyFetch reproduces the §5.3 empty-fetch results: the latency of
// checking for new records on an idle TP (TCP fetch RPC vs RDMA metadata
// slot read), and how many such checks per second the broker side sustains.
func emptyFetch(st *Stats) *Table {
	t := &Table{
		ID:      "emptyfetch",
		Title:   "Empty fetch: check-for-new-records cost on an idle TP",
		Columns: []string{"metric", "kafka_tcp", "kd_rdma"},
	}
	const consumers = 48
	const window = 40 * time.Millisecond
	var tcpLat, rdmaLat time.Duration
	var tcpRate, rdmaRate float64
	forEach(3, func(i int) {
		switch i {
		case 0:
			tcpLat, rdmaLat = emptyFetchLatency(st)
		case 1:
			tcpRate = emptyFetchRate(st, consumers, window, false)
		case 2:
			rdmaRate = emptyFetchRate(st, consumers, window, true)
		}
	})
	t.AddRow("latency_us", tcpLat, rdmaLat)
	// Throughput: many consumers hammering an idle TP; measure completed
	// checks per second. TCP consumes broker threads; RDMA only the RNIC.
	t.AddRow("checks_per_sec", fmt.Sprintf("%.0fK", tcpRate/1e3), fmt.Sprintf("%.0fK", rdmaRate/1e3))
	t.AddRow("broker_requests", "one per check", "zero")
	t.Note("paper: 53K/s (TCP, network-module bound) vs 8300K/s (RDMA, RNIC bound) — 156x")
	return t
}

// emptyFetchLatency measures one consumer polling an idle TP over both paths.
func emptyFetchLatency(st *Stats) (tcpLat, rdmaLat time.Duration) {
	r := newSysRig(rigConfig{brokers: 1, stats: st})
	r.topic("t", 1, 1)
	r.run(func(p *sim.Proc) {
		const n = 20
		tc := newRPCConsumer(p, r.endpoint("cli-tcp"), false)
		tc.LongPoll = false
		tcpLat = mean(closedLoop(p, 1, n, nil, func() { mustPoll(p, tc) }))
		rc := newRDMAConsumer(p, r.endpoint("cli-rdma"))
		rdmaLat = mean(closedLoop(p, 1, n, nil, func() { mustPoll(p, rc) }))
	})
	return tcpLat, rdmaLat
}

func emptyFetchRate(st *Stats, consumers int, window time.Duration, viaRDMA bool) float64 {
	r := newSysRig(rigConfig{brokers: 1, stats: st})
	r.topic("t", 1, 1)
	var checks int
	r.run(func(p *sim.Proc) {
		stop := false
		done := sim.NewQueue[struct{}]()
		for i := 0; i < consumers; i++ {
			r.env.Go(fmt.Sprintf("cons-%d", i), func(pp *sim.Proc) {
				e := r.endpoint(fmt.Sprintf("cli-%d", i))
				var co client.Consumer
				if viaRDMA {
					co = newRDMAConsumer(pp, e)
				} else {
					tc := newRPCConsumer(pp, e, false)
					tc.LongPoll = false
					co = tc
				}
				for !stop {
					mustPoll(pp, co)
					checks++
				}
				done.Push(struct{}{})
			})
		}
		p.Sleep(5 * time.Millisecond) // let consumers connect
		checks = 0
		p.Sleep(window)
		stop = true
		for i := 0; i < consumers; i++ {
			done.Pop(p)
		}
	})
	return float64(checks) / window.Seconds()
}

// fig19 reproduces the end-to-end latency experiment: one client produces a
// record and fetches it back; RDMA can be enabled on either or both sides.
func fig19(st *Stats) *Table {
	t := &Table{
		ID:      "fig19",
		Title:   "End-to-end produce+consume latency (us)",
		Columns: []string{"size", "kafka", "osu", "rdma_prod", "rdma_cons", "rdma_both"},
	}
	sizes := []int{32, 128, 512, 2048, 8192, 32768}
	combos := []struct {
		name     string
		prodKind systemKind
		consRDMA bool
	}{
		{"kafka", sysKafka, false},
		{"osu", sysOSU, false},
		{"rdma_prod", sysKDExcl, false},
		{"rdma_cons", sysKafka, true},
		{"rdma_both", sysKDExcl, true},
	}
	t.addGrid(labels(sizes, sizeLabel), grid(len(sizes), len(combos), func(r, c int) any {
		return endToEndLatency(st, combos[c].prodKind, combos[c].consRDMA, sizes[r])
	}))
	t.Note("paper: Kafka ~600us small; either RDMA module saves >=200us; both ~100us (5.8x)")
	return t
}

func endToEndLatency(st *Stats, prodKind systemKind, consRDMA bool, size int) time.Duration {
	const warm, n = 1, 20
	r := newSysRig(rigConfig{brokers: 1, segmentSize: segmentFor(warm+n, size), stats: st})
	r.topic("t", 1, 1)
	var lat time.Duration
	r.run(func(p *sim.Proc) {
		e := r.endpoint("cli")
		pr := newProducer(p, e, prodKind, "t", 0, 1, 1)
		var co client.Consumer
		if consRDMA {
			co = newRDMAConsumer(p, e)
		} else {
			co = newRPCConsumer(p, e, false)
		}
		rec := payload(size, 'e')
		lat = mean(closedLoop(p, warm, n, nil, func() {
			mustProduce(p, pr, rec)
			pollRecords(p, co)
		}))
	})
	return lat
}

// fig20 reproduces consume goodput: the TP is preloaded; the TCP broker
// replies with one record per fetch (the paper's anti-batching setting); the
// RDMA consumer reads at its configured fetch size.
func fig20(st *Stats) *Table {
	t := &Table{
		ID:      "fig20",
		Title:   "Consume goodput (MiB/s), preloaded TP, one record per TCP fetch",
		Columns: []string{"size", "kafka", "osu", "kd"},
	}
	sizes := []int{32, 128, 512, 2048, 8192, 32768}
	kinds := []systemKind{sysKafka, sysOSU, sysKDExcl}
	t.addGrid(labels(sizes, sizeLabel), grid(len(sizes), len(kinds), func(r, c int) any {
		return consumeGoodput(st, kinds[c], sizes[r], 0)
	}))
	t.Note("paper: Kafka and OSU <150 MiB/s; RDMA consumer ~9x, reaching ~1 GiB/s (client-bound, broker CPU idle)")
	return t
}

// consumeGoodput drains a preloaded partition through one system's consumer
// and reports MiB/s. The RPC consumers get one record per fetch, and half
// the byte volume, since every record costs them a round trip; the RDMA
// consumer pipelines reads of fetchSize bytes (0 = the client default).
func consumeGoodput(st *Stats, kind systemKind, size, fetchSize int) float64 {
	r := newSysRig(rigConfig{brokers: 1, stats: st})
	r.topic("t", 1, 1)
	oneSided := kind == sysKDExcl
	n := max(100, min(1200, 3<<20/size))
	if oneSided {
		n = max(100, min(2000, 6<<20/size))
	}
	var elapsed time.Duration
	r.run(func(p *sim.Proc) {
		preload(p, r, "t", n, size)
		e := r.endpoint("cli")
		var co client.Consumer
		if oneSided {
			if fetchSize > 0 {
				cfg := e.Config()
				cfg.FetchSize = fetchSize
				e = client.NewEndpoint(r.cl, "cli-fs", cfg)
			}
			rc := newRDMAConsumer(p, e)
			rc.Pipeline = 8 // bandwidth mode pipelines outstanding reads (§7)
			co = rc
		} else {
			rc := newRPCConsumer(p, e, kind == sysOSU)
			rc.MaxBytesOverride = 1 // any value < batch size returns one batch
			co = rc
		}
		elapsed = drain(p, co, n)
	})
	return mibps(n*size, elapsed)
}

// ablationFetchSize sweeps the RDMA consumer's fetch size (§4.4.2 fixes it
// at 2 KiB as a latency/bandwidth tradeoff).
func ablationFetchSize(st *Stats) *Table {
	t := &Table{
		ID:      "ablation-fetchsize",
		Title:   "RDMA consumer fetch size: per-record latency (us, 32 B records) and goodput (MiB/s, 2 KiB records)",
		Columns: []string{"fetch_size", "latency_us", "goodput_MiBs"},
	}
	fetchSizes := []int{512, 1024, 2048, 4096, 8192, 16384}
	t.addGrid(labels(fetchSizes, sizeLabel), grid(len(fetchSizes), 2, func(r, c int) any {
		if c == 0 {
			return consumeLatencyRDMA(st, 32, fetchSizes[r])
		}
		return consumeGoodput(st, sysKDExcl, 2048, fetchSizes[r])
	}))
	t.Note("2 KiB is the paper's default: <3us reads while sustaining >5 GiB/s on the wire")
	return t
}

// consumeLatencyRDMA measures the mean time of one "fetch round": the polls
// needed until the next record(s) arrive, at the given fetch size (0 = the
// client default). For records smaller than the fetch size this is one RDMA
// read (the paper's 4.2 us); for larger records it spans the multiple reads
// needed to assemble one record.
func consumeLatencyRDMA(st *Stats, size, fetchSize int) time.Duration {
	const rounds = 30
	cfg := client.DefaultConfig()
	if fetchSize > 0 {
		cfg.FetchSize = fetchSize
	}
	// Each round consumes up to one fetch worth of data (or one whole
	// record if records are bigger); preload enough that no round ever
	// waits for new data.
	perRound := max(cfg.FetchSize, size+192)
	records := (rounds+4)*perRound/(size+46) + 8
	r := newSysRig(rigConfig{brokers: 1, segmentSize: segmentFor(records, size), stats: st})
	r.topic("t", 1, 1)
	var lat time.Duration
	r.run(func(p *sim.Proc) {
		preload(p, r, "t", records, size)
		co := newRDMAConsumer(p, client.NewEndpoint(r.cl, "cli", cfg))
		lat = mean(closedLoop(p, 1, rounds, nil, func() { pollRecords(p, co) }))
	})
	return lat
}
