package bench

import (
	"fmt"
	"time"

	"kafkadirect/internal/core"
	"kafkadirect/internal/obs"
	"kafkadirect/internal/sim"
)

// This file is the simulator-scaling figure: how fast the sharded
// conservative-parallel kernel (sim.ShardGroup) pushes one big simulated
// cluster, as a function of cluster size and shard count. Unlike every other
// figure it measures the harness, not the modelled systems — so the table
// carries only deterministic content (records produced/acked, state
// checksums, and the byte-identity of each cell against its shards=1
// baseline), while the wall-clock measurements (events/s, wall ms, handoff
// counts) are recorded as PerfPoints and land in BENCH_figs.json under
// "points". Wall-clock numbers in a table would break the tables-are-
// byte-identical invariant the whole bench suite is built on.
//
// Shard-execution parallelism comes from kdbench -shards (SetShardParallel):
// with -shards 1 every shard count runs on the inline sequential path; with
// -shards N the windows execute on up to N goroutines. Either way the table
// is identical — parallelism is a resource knob, never an input.

// scaleSizes are the swept cluster sizes. ClientsPerBroker comes from
// core.DefaultShardedConfig (4), so the node counts are 60, 320, and 1280.
// Sim horizons shrink with size to keep total work a few seconds of host
// time while still executing millions of events per cell.
var scaleSizes = []struct {
	brokers int
	horizon time.Duration
}{
	{12, 20 * time.Millisecond},
	{64, 10 * time.Millisecond},
	{256, 4 * time.Millisecond},
}

// scaleShards are the swept shard counts per cluster size.
var scaleShards = []int{1, 2, 4, 8}

// scaleCell is one (cluster size, shard count) run.
type scaleCell struct {
	brokers  int
	clients  int
	shards   int
	horizon  time.Duration
	produced uint64
	acked    uint64
	snapshot uint64
	events   uint64
	switches uint64
	handoffs uint64
	wall     time.Duration
}

func runScale(st *Stats) *Table {
	t := &Table{
		ID:    "scale",
		Title: "Sharded kernel scaling: one simulated cluster across shards (12/64/256 brokers)",
		Columns: []string{"brokers", "clients", "shards", "sim_ms",
			"produced", "acked", "acked/sim-s", "snapshot", "vs-shards1"},
	}

	cells := make([]scaleCell, 0, len(scaleSizes)*len(scaleShards))
	for _, sz := range scaleSizes {
		for _, shards := range scaleShards {
			cells = append(cells, scaleCell{
				brokers: sz.brokers,
				shards:  shards,
				horizon: sz.horizon,
			})
		}
	}
	forEach(len(cells), func(i int) { runScaleCell(&cells[i]) })

	// Baseline snapshot per cluster size: the shards=1 cell.
	base := map[int]uint64{}
	for _, c := range cells {
		if c.shards == 1 {
			base[c.brokers] = c.snapshot
		}
	}
	for _, c := range cells {
		match := "ok"
		if c.snapshot != base[c.brokers] {
			match = "DIVERGED"
		}
		simSec := c.horizon.Seconds()
		t.AddRow(fmt.Sprint(c.brokers), fmt.Sprint(c.clients), fmt.Sprint(c.shards),
			fmt.Sprintf("%.0f", float64(c.horizon)/float64(time.Millisecond)),
			fmt.Sprint(c.produced), fmt.Sprint(c.acked),
			fmt.Sprintf("%.0f", float64(c.acked)/simSec),
			fmt.Sprintf("%016x", c.snapshot), match)
		st.AddEvents(c.events, c.switches)
		st.AddPoint(PerfPoint{
			Label:    fmt.Sprintf("brokers=%d/shards=%d", c.brokers, c.shards),
			Shards:   c.shards,
			Parallel: min(c.shards, ShardParallel()),
			Events:   c.events,
			Handoffs: c.handoffs,
			WallMS:   float64(c.wall) / float64(time.Millisecond),
			PerSec:   float64(c.events) / c.wall.Seconds(),
			PerShard: float64(c.events) / c.wall.Seconds() / float64(c.shards),
		})
	}
	t.Note("vs-shards1 compares each cell's full-state snapshot against the shards=1 run of the same cluster: the sharded kernel is byte-deterministic, so sharding changes wall time only")
	t.Note("wall-clock measurements (events/s, wall ms, handoffs) are host-dependent and reported as per-cell points in BENCH_figs.json, not here")
	t.Note("shard-execution parallelism follows kdbench -shards; on a single-CPU host the inline path (-shards 1) is fastest because cross-shard barriers buy no real concurrency")
	return t
}

// runScaleCell builds and runs one sharded cluster, filling in the cell.
func runScaleCell(c *scaleCell) {
	cfg := core.DefaultShardedConfig(c.brokers)
	g := sim.NewShardGroup(c.shards, cfg.Net.PropDelay, cfg.Seed)
	defer g.Shutdown()
	g.SetParallel(ShardParallel())
	sc := core.NewShardedCluster(g, cfg)
	// Under global telemetry collection each shard gets a private registry
	// (spans are off: the sharded model emits metrics only) and the canonical
	// merge is folded into the collector after the run.
	carrier := newRigObs()
	if carrier != nil {
		carrier.Trace = nil
		per := make([]*obs.Obs, c.shards)
		for i := range per {
			per[i] = obs.New(0)
		}
		sc.SetObs(per)
	}
	c.clients = c.brokers * cfg.ClientsPerBroker
	sc.Start()
	//kdlint:allow simclock measures real elapsed runner time for the scaling points, not simulated time
	start := time.Now()
	g.RunUntil(c.horizon)
	//kdlint:allow simclock measures real elapsed runner time for the scaling points, not simulated time
	c.wall = time.Since(start)
	c.produced = sc.Produced()
	c.acked = sc.Acked()
	c.snapshot = sc.Snapshot()
	c.events, c.switches = g.Executed(), g.Switches()
	c.handoffs = g.Handoffs()
	if carrier != nil {
		carrier.Reg.MergeFrom(sc.Net().MergedRegistry())
		collectRigObs(carrier)
	}
}
