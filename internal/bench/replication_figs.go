package bench

import "strconv"

// replConfig is one line of Fig. 14/15: which produce datapath and which
// replication datapath are RDMA-accelerated.
type replConfig struct {
	name string
	kind systemKind
	repl replMode
}

var replLines = []replConfig{
	{"kafka", sysKafka, replPull},
	{"osu", sysOSU, replPull},
	{"rdma_prod", sysKDExcl, replPull},
	{"rdma_repl", sysKafka, replPush},
	{"rdma_both", sysKDExcl, replPush},
}

// floodRecords is how many records the single-producer replication floods
// (Fig. 16/17) send per data point.
const floodRecords = 2500

// fig14 reproduces produce latency under 3-way replication for the five
// configurations of §5.2.
func fig14(st *Stats) *Table {
	t := &Table{
		ID:      "fig14",
		Title:   "Produce latency (us), 3-way replication, acks=all",
		Columns: []string{"size", "kafka", "osu", "rdma_prod", "rdma_repl", "rdma_both"},
	}
	sizes := []int{32, 128, 512, 2048, 8192, 32768, 131072}
	t.addGrid(labels(sizes, sizeLabel), grid(len(sizes), len(replLines), func(r, c int) any {
		return produceLatency(replLines[c].kind, sizes[r], rigConfig{brokers: 3, repl: replLines[c].repl, stats: st})
	}))
	t.Note("paper: Kafka ~700us small; enabling either RDMA module saves ~300us; both enabled ~100us (7x)")
	return t
}

// fig15 reproduces produce goodput under 3-way replication.
func fig15(st *Stats) *Table {
	t := &Table{
		ID:      "fig15",
		Title:   "Produce goodput (MiB/s), 3-way replication, acks=all",
		Columns: []string{"size", "kafka", "osu", "rdma_prod", "rdma_repl", "rdma_both"},
	}
	sizes := []int{32, 128, 512, 2048, 8192, 32768}
	t.addGrid(labels(sizes, sizeLabel), grid(len(sizes), len(replLines), func(r, c int) any {
		return produceGoodput(replLines[c].kind, sizes[r], 1, 1, rigConfig{brokers: 3, repl: replLines[c].repl, stats: st})
	}))
	t.Note("paper: 9-14x KafkaDirect over Kafka; RDMA produce alone is capped by pull replication")
	return t
}

// fig16 reproduces goodput versus replication factor at 32 KiB.
func fig16(st *Stats) *Table {
	t := &Table{
		ID:      "fig16",
		Title:   "Produce goodput (MiB/s) vs replication factor, 32 KiB records",
		Columns: []string{"rf", "kafka", "rdma_prod", "rdma_repl", "rdma_both"},
	}
	const size = 32 << 10
	lines := []replConfig{
		{"kafka", sysKafka, replPull},
		{"rdma_prod", sysKDExcl, replPull},
		{"rdma_repl", sysKafka, replPush},
		{"rdma_both", sysKDExcl, replPush},
	}
	rfs := []int{1, 2, 3, 4}
	t.addGrid(labels(rfs, strconv.Itoa), grid(len(rfs), len(lines), func(r, c int) any {
		repl := lines[c].repl
		if rfs[r] == 1 {
			repl = replNone // a lone replica engages no replication datapath
		}
		return floodGoodput(lines[c].kind, size, rfs[r], floodRecords, rigConfig{brokers: 4, repl: repl, stats: st})
	}))
	t.Note("paper: RDMA producer drops 1.5 GiB/s -> 0.5 GiB/s once TCP pull replication engages; push replication avoids the slowdown")
	return t
}

// fig17 reproduces the push-replication batching sweep: an RDMA producer
// injects unbatched 32 B records; the leader's replication module merges
// contiguous writes up to the configured batch size (§4.3.2).
func fig17(st *Stats) *Table {
	t := &Table{
		ID:      "fig17",
		Title:   "Goodput (MiB/s) of 32 B produces vs replication max batch size",
		Columns: []string{"batch", "2way", "3way"},
	}
	batches := []int{32, 64, 128, 256, 512, 1024}
	rfs := []int{2, 3}
	t.addGrid(labels(batches, sizeLabel), grid(len(batches), len(rfs), func(r, c int) any {
		cfg := rigConfig{brokers: rfs[c], repl: replPush, pushBatch: batches[r], clientInFlight: 512, stats: st}
		return floodGoodput(sysKDExcl, 32, rfs[c], floodRecords, cfg)
	}))
	t.Note("paper: 3.8 MiB/s unbatched climbing to ~5.2 MiB/s, limited by the API worker's checksum+lock, not the network")
	return t
}

// ablationCredits sweeps the push-replication credit limit, the §4.3.2
// flow-control knob, under a 3-way replicated flood of 4 KiB records.
func ablationCredits(st *Stats) *Table {
	t := &Table{
		ID:      "ablation-credits",
		Title:   "Push replication: follower credit limit vs 3-way replicated goodput, 4 KiB records",
		Columns: []string{"credits", "goodput_MiBs"},
	}
	creditValues := []int{1, 2, 4, 8, 16, 32, 64}
	t.addGrid(labels(creditValues, strconv.Itoa), grid(len(creditValues), 1, func(r, _ int) any {
		return floodGoodput(sysKDExcl, 4096, 3, 1500, rigConfig{brokers: 3, repl: replPush, pushCredits: creditValues[r], stats: st})
	}))
	t.Note("a handful of credits suffices; the knob exists to prevent CQ overrun, not to tune throughput")
	return t
}
