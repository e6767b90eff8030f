package bench

import "strconv"

// latencySizes and bandwidthSizes mirror the paper's x axes.
var latencySizes = []int{32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072}
var bandwidthSizes = []int{32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768}

// produceKinds are the four compared systems of Fig. 10/11.
var produceKinds = []systemKind{sysKafka, sysOSU, sysKDExcl, sysKDShared}

// fig10 reproduces the produce latency comparison: Kafka vs OSU Kafka vs
// KafkaDirect exclusive vs shared, single unreplicated partition, closed
// loop, no client batching (§5.1). Every (size, system) point is its own
// deployment, so the points fan out over the worker pool.
func fig10(st *Stats) *Table {
	t := &Table{
		ID:      "fig10",
		Title:   "Produce latency (us), 1 TP, no replication",
		Columns: []string{"size", "kafka", "osu", "kd_excl", "kd_shared"},
	}
	cfg := rigConfig{brokers: 1, stats: st}
	t.addGrid(labels(latencySizes, sizeLabel), grid(len(latencySizes), len(produceKinds), func(r, c int) any {
		return produceLatency(produceKinds[c], latencySizes[r], cfg)
	}))
	t.Note("paper: Kafka ~300us small, OSU ~90us below Kafka, KafkaDirect ~90us; exclusive ~2.5us under shared")
	return t
}

// fig11 reproduces the single-partition produce goodput comparison.
func fig11(st *Stats) *Table {
	t := &Table{
		ID:      "fig11",
		Title:   "Produce goodput (MiB/s), 1 TP, no replication, open loop",
		Columns: []string{"size", "kafka", "osu", "kd_excl", "kd_shared"},
	}
	cfg := rigConfig{brokers: 1, stats: st}
	t.addGrid(labels(bandwidthSizes, sizeLabel), grid(len(bandwidthSizes), len(produceKinds), func(r, c int) any {
		return produceGoodput(produceKinds[c], bandwidthSizes[r], 1, 1, cfg)
	}))
	t.Note("paper: ~10x KD-exclusive vs Kafka at 512B; 1.65 GiB/s vs 280 MiB/s at 32K")
	return t
}

// fig12 reproduces goodput scaling with partitions (one producer per TP;
// each TP is limited to one API worker by locking, so parallelism grows with
// partitions until the worker pool saturates at 8).
func fig12(st *Stats) *Table {
	t := &Table{
		ID:      "fig12",
		Title:   "Produce goodput (GiB/s) vs partitions, 32 KiB records",
		Columns: []string{"partitions", "kafka", "kd_excl", "kd_shared"},
	}
	const size = 32 << 10
	cfg := rigConfig{brokers: 1, stats: st}
	kinds := []systemKind{sysKafka, sysKDExcl, sysKDShared}
	partCounts := []int{1, 2, 4, 8, 16}
	t.addGrid(labels(partCounts, strconv.Itoa), grid(len(partCounts), len(kinds), func(r, c int) any {
		return produceGoodput(kinds[c], size, partCounts[r], 1, cfg) / 1024
	}))
	t.Note("paper: saturates at 8 partitions (= API workers); KD-exclusive 4.5 GiB/s, shared 3 GiB/s, Kafka ~0.5 GiB/s")
	return t
}

// fig13 reproduces the single-API-worker scaling experiment: brokers with
// ONE worker, producers on private TPs, 4 KiB records.
func fig13(st *Stats) *Table {
	t := &Table{
		ID:      "fig13",
		Title:   "Total goodput (MiB/s) vs producers, 1 API worker, 4 KiB records, private TPs",
		Columns: []string{"producers", "kafka", "kd_excl"},
	}
	const size = 4 << 10
	cfg := rigConfig{brokers: 1, apiWorkers: 1, stats: st}
	kinds := []systemKind{sysKafka, sysKDExcl}
	producerCounts := []int{1, 2, 3, 4, 5, 6, 7}
	t.addGrid(labels(producerCounts, strconv.Itoa), grid(len(producerCounts), len(kinds), func(r, c int) any {
		return produceGoodput(kinds[c], size, producerCounts[r], 1, cfg)
	}))
	t.Note("paper: KD plateaus ~630 MiB/s, Kafka ~190 MiB/s — a 3.3x CPU-load reduction")
	return t
}
