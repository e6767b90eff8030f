package bench

import (
	"fmt"
	"time"

	"kafkadirect/internal/client"
	"kafkadirect/internal/krecord"
	"kafkadirect/internal/kwire"
	"kafkadirect/internal/sim"
)

func init() {
	register("fig18", "Consumer fetch latency, preloaded records (us)",
		"Closed-loop fetch RTT of each system over preloaded records, swept by record size", fig18)
	register("emptyfetch", "Empty-fetch cost: latency and broker-side throughput (§5.3)",
		"Cost of polling an empty partition: RPC fetch vs one-sided metadata-slot read", emptyFetch)
	register("fig19", "End-to-end produce->consume latency (us)",
		"Producer-to-consumer delivery latency with both sides live, swept by record size", fig19)
	register("fig20", "Consume goodput (MiB/s)",
		"Open-loop consume bandwidth per system, swept by record size", fig20)
	register("ablation-fetchsize", "Ablation: RDMA consumer fetch size vs latency and goodput",
		"Sweeps the RDMA consumer's fetch window to expose the latency/goodput trade-off", ablationFetchSize)
}

// preload appends n records of the given size through the fast path (direct
// log writes via a local RDMA producer) and waits until committed.
func preload(p *sim.Proc, r *sysRig, topic string, n, size int) {
	pr, err := client.NewRDMAProducer(p, r.endpoint("loader"), topic, 0, kwire.AccessExclusive, 999)
	if err != nil {
		panic(err)
	}
	rec := payload(size, 'd')
	for i := 0; i < n; i++ {
		if err := pr.ProduceAsync(p, rec); err != nil {
			panic(err)
		}
	}
	if err := pr.Drain(p); err != nil {
		panic(err)
	}
	pr.Close()
	p.Sleep(time.Millisecond)
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
	vals := make([]time.Duration, len(sizes)*2)
	forEach(len(vals), func(i int) {
		size := sizes[i/2]
		if i%2 == 0 {
			vals[i] = consumeLatencyTCP(st, size)
		} else {
			vals[i] = consumeLatencyRDMA(st, size)
		}
	})
	for si, size := range sizes {
		t.AddRow(sizeLabel(size), vals[si*2], vals[si*2+1])
	}
	t.Note("paper: Kafka >=200us everywhere; KafkaDirect 4.2us small (50x), growing with record size")
	return t
}

func consumeLatencyTCP(st *Stats, size int) time.Duration {
	r := newSysRig(rigConfig{brokers: 1, stats: st})
	r.topic("t", 1, 1)
	const n = 40
	var lat time.Duration
	r.run(func(p *sim.Proc) {
		preload(p, r, "t", n+5, size)
		co, err := client.NewTCPConsumer(p, r.endpoint("cli"), "t", 0, 0, "g")
		if err != nil {
			panic(err)
		}
		// One record per fetch, like the paper's latency setup.
		co.LongPoll = false
		co.MaxBytesOverride = 1
		fetchOne := func() {
			for {
				recs, err := co.Poll(p)
				if err != nil {
					panic(err)
				}
				if len(recs) > 0 {
					return
				}
			}
		}
		fetchOne() // warm-up
		start := p.Now()
		fetched := 1
		for fetched < n {
			fetchOne()
			fetched++
		}
		lat = (p.Now() - start) / time.Duration(n-1)
	})
	return lat
}

func consumeLatencyRDMA(st *Stats, size int) time.Duration {
	return consumeLatencyRDMAFetch(st, size, 0)
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
		tc, err := client.NewTCPConsumer(p, r.endpoint("cli-tcp"), "t", 0, 0, "g")
		if err != nil {
			panic(err)
		}
		tc.LongPoll = false
		tc.Poll(p) // warm-up
		start := p.Now()
		const n = 20
		for i := 0; i < n; i++ {
			tc.Poll(p)
		}
		tcpLat = (p.Now() - start) / n
		rc, err := client.NewRDMAConsumer(p, r.endpoint("cli-rdma"), "t", 0, 0)
		if err != nil {
			panic(err)
		}
		rc.Poll(p)
		start = p.Now()
		for i := 0; i < n; i++ {
			rc.Poll(p)
		}
		rdmaLat = (p.Now() - start) / n
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
			i := i
			r.env.Go(fmt.Sprintf("cons-%d", i), func(pp *sim.Proc) {
				if viaRDMA {
					rc, err := client.NewRDMAConsumer(pp, r.endpoint(fmt.Sprintf("cli-%d", i)), "t", 0, 0)
					if err != nil {
						panic(err)
					}
					for !stop {
						if _, err := rc.Poll(pp); err != nil {
							break
						}
						checks++
					}
				} else {
					tc, err := client.NewTCPConsumer(pp, r.endpoint(fmt.Sprintf("cli-%d", i)), "t", 0, 0, "g")
					if err != nil {
						panic(err)
					}
					tc.LongPoll = false
					for !stop {
						if _, err := tc.Poll(pp); err != nil {
							break
						}
						checks++
					}
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
	type combo struct {
		name     string
		prodKind systemKind
		consRDMA bool
	}
	combos := []combo{
		{"kafka", sysKafka, false},
		{"osu", sysOSU, false},
		{"rdma_prod", sysKDExcl, false},
		{"rdma_cons", sysKafka, true},
		{"rdma_both", sysKDExcl, true},
	}
	nc := len(combos)
	vals := make([]time.Duration, len(sizes)*nc)
	forEach(len(vals), func(i int) {
		c := combos[i%nc]
		vals[i] = endToEndLatency(st, c.prodKind, c.consRDMA, sizes[i/nc])
	})
	for si, size := range sizes {
		row := []any{sizeLabel(size)}
		for ci := 0; ci < nc; ci++ {
			row = append(row, vals[si*nc+ci])
		}
		t.AddRow(row...)
	}
	t.Note("paper: Kafka ~600us small; either RDMA module saves >=200us; both ~100us (5.8x)")
	return t
}

func endToEndLatency(st *Stats, prodKind systemKind, consRDMA bool, size int) time.Duration {
	r := newSysRig(rigConfig{brokers: 1, stats: st})
	r.topic("t", 1, 1)
	var lat time.Duration
	r.run(func(p *sim.Proc) {
		e := r.endpoint("cli")
		pr, err := newProducer(p, e, prodKind, "t", 0, 1, 1)
		if err != nil {
			panic(err)
		}
		var tcpCo *client.RPCConsumer
		var rdmaCo *client.RDMAConsumer
		if consRDMA {
			rdmaCo, err = client.NewRDMAConsumer(p, e, "t", 0, 0)
		} else {
			tcpCo, err = client.NewTCPConsumer(p, e, "t", 0, 0, "g")
		}
		if err != nil {
			panic(err)
		}
		rec := payload(size, 'e')
		roundTrip := func() {
			if _, err := pr.Produce(p, rec); err != nil {
				panic(err)
			}
			for {
				var recs []krecord.Record
				var err error
				if consRDMA {
					recs, err = rdmaCo.Poll(p)
				} else {
					recs, err = tcpCo.Poll(p)
				}
				if err != nil {
					panic(err)
				}
				if len(recs) > 0 {
					return
				}
			}
		}
		roundTrip() // warm-up
		const n = 20
		start := p.Now()
		for i := 0; i < n; i++ {
			roundTrip()
		}
		lat = (p.Now() - start) / n
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
	vals := make([]float64, len(sizes)*3)
	forEach(len(vals), func(i int) {
		size := sizes[i/3]
		switch i % 3 {
		case 0:
			vals[i] = consumeGoodputRPC(st, size, false)
		case 1:
			vals[i] = consumeGoodputRPC(st, size, true)
		case 2:
			vals[i] = consumeGoodputRDMA(st, size, 0)
		}
	})
	for si, size := range sizes {
		t.AddRow(sizeLabel(size), vals[si*3], vals[si*3+1], vals[si*3+2])
	}
	t.Note("paper: Kafka and OSU <150 MiB/s; RDMA consumer ~9x, reaching ~1 GiB/s (client-bound, broker CPU idle)")
	return t
}

func consumeGoodputRPC(st *Stats, size int, osu bool) float64 {
	r := newSysRig(rigConfig{brokers: 1, stats: st})
	r.topic("t", 1, 1)
	n := 3 << 20 / size
	if n > 1200 {
		n = 1200
	}
	if n < 100 {
		n = 100
	}
	var elapsed time.Duration
	r.run(func(p *sim.Proc) {
		preload(p, r, "t", n, size)
		e := r.endpoint("cli")
		var co *client.RPCConsumer
		var err error
		if osu {
			co, err = client.NewOSUConsumer(p, e, "t", 0, 0, "g")
		} else {
			co, err = client.NewTCPConsumer(p, e, "t", 0, 0, "g")
		}
		if err != nil {
			panic(err)
		}
		// One record per fetch: cap the fetch size at one batch.
		cfg := e.Config()
		_ = cfg
		co.MaxBytesOverride = 1 // any value < batch size returns one batch
		start := p.Now()
		got := 0
		for got < n {
			recs, err := co.Poll(p)
			if err != nil {
				panic(err)
			}
			got += len(recs)
		}
		elapsed = p.Now() - start
	})
	return mibps(n*size, elapsed)
}

func consumeGoodputRDMA(st *Stats, size, fetchSize int) float64 {
	r := newSysRig(rigConfig{brokers: 1, stats: st})
	r.topic("t", 1, 1)
	n := 6 << 20 / size
	if n > 2000 {
		n = 2000
	}
	if n < 100 {
		n = 100
	}
	var elapsed time.Duration
	r.run(func(p *sim.Proc) {
		preload(p, r, "t", n, size)
		e := r.endpoint("cli")
		if fetchSize > 0 {
			cfg := e.Config()
			cfg.FetchSize = fetchSize
			e = client.NewEndpoint(r.cl, "cli-fs", cfg)
		}
		co, err := client.NewRDMAConsumer(p, e, "t", 0, 0)
		if err != nil {
			panic(err)
		}
		// Bandwidth mode pipelines outstanding reads (§7).
		co.Pipeline = 8
		start := p.Now()
		got := 0
		for got < n {
			recs, err := co.Poll(p)
			if err != nil {
				panic(err)
			}
			got += len(recs)
		}
		elapsed = p.Now() - start
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
	lats := make([]time.Duration, len(fetchSizes))
	gputs := make([]float64, len(fetchSizes))
	forEach(len(fetchSizes)*2, func(i int) {
		fs := fetchSizes[i/2]
		if i%2 == 0 {
			lats[i/2] = consumeLatencyRDMAFetch(st, 32, fs)
		} else {
			gputs[i/2] = consumeGoodputRDMA(st, 2048, fs)
		}
	})
	for i, fs := range fetchSizes {
		t.AddRow(sizeLabel(fs), lats[i], gputs[i])
	}
	t.Note("2 KiB is the paper's default: <3us reads while sustaining >5 GiB/s on the wire")
	return t
}

// consumeLatencyRDMAFetch measures the mean time of one "fetch round": the
// polls needed until the next record(s) arrive. For records smaller than the
// fetch size this is one RDMA read (the paper's 4.2 us); for larger records
// it spans the multiple reads needed to assemble one record.
func consumeLatencyRDMAFetch(st *Stats, size, fetchSize int) time.Duration {
	r := newSysRig(rigConfig{brokers: 1, stats: st})
	r.topic("t", 1, 1)
	const rounds = 30
	var lat time.Duration
	r.run(func(p *sim.Proc) {
		cfg := client.DefaultConfig()
		if fetchSize > 0 {
			cfg.FetchSize = fetchSize
		}
		// Each round consumes up to one fetch worth of data (or one whole
		// record if records are bigger); preload enough that no round ever
		// waits for new data.
		perRound := cfg.FetchSize
		if size+192 > perRound {
			perRound = size + 192
		}
		count := (rounds+4)*perRound/(size+46) + 8
		preload(p, r, "t", count, size)
		e := client.NewEndpoint(r.cl, "cli", cfg)
		co, err := client.NewRDMAConsumer(p, e, "t", 0, 0)
		if err != nil {
			panic(err)
		}
		fetchRound := func() {
			for {
				recs, err := co.Poll(p)
				if err != nil {
					panic(err)
				}
				if len(recs) > 0 {
					return
				}
			}
		}
		fetchRound() // warm-up
		start := p.Now()
		for i := 0; i < rounds; i++ {
			fetchRound()
		}
		lat = (p.Now() - start) / rounds
	})
	return lat
}
