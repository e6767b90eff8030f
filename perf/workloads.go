package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/crc32"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"

	"kafkadirect/internal/bench"
	"kafkadirect/internal/client"
	"kafkadirect/internal/core"
	"kafkadirect/internal/krecord"
	"kafkadirect/internal/kwire"
	"kafkadirect/internal/obs"
	"kafkadirect/internal/sim"
	"kafkadirect/internal/stream"
)

// runConfig is what a workload is built from. The program under test only
// ever sees the inputs generated from it.
type runConfig struct {
	seed   int64
	short  bool   // -short: every count divided by 50
	golden string // path of results_all.txt, "" = search upwards from the cwd
}

// scaled divides a full-size count by 50 under -short (never below 2).
func (c runConfig) scaled(n int) int {
	if !c.short {
		return n
	}
	return max(2, n/50)
}

// failures counts failed operations and keeps one line per kind of failure.
type failures struct {
	failed int
	why    []string
}

func (f *failures) fail(n int, format string, args ...any) {
	f.failed += n
	f.why = append(f.why, fmt.Sprintf(format, args...))
}

// passOut is what one pass produced, apart from its host cost.
type passOut struct {
	failures
	ops      int
	sim      map[string]float64 // the sim_* end-to-end metrics
	events   uint64             // simulator events executed
	simTime  time.Duration      // simulated time, summed over the pass's rigs
	obsText  string             // rendered telemetry registry, "" when untraced
	queueMax int64              // broker/queue_depth high-water mark (traced)
	figs     []figRow           // figs only
}

// workload is one set of inputs the benchmark runs. prepare is the set-up
// the harness times as setup_s (together with one warm-up pass): it makes
// the inputs from the seed and returns the function that runs one pass.
type workload struct {
	name, why string
	// warmPass: set-up ends with one untimed pass. figs has none: its users
	// pay the cold cost on every run, so its passes are measured cold too.
	warmPass  bool
	minPasses int
	prepare   func(cfg runConfig) (pass func(traced bool) passOut, err error)
}

var workloads = []workload{
	{name: "produce_small", warmPass: true, minPasses: 3,
		why:     "~64 B records on all four datapaths of a 1-broker rig: event kernel, process switches, codec and per-message handling do the work; bytes do none",
		prepare: func(cfg runConfig) (func(bool) passOut, error) { return prepareProduce(cfg, smallSpec), nil }},
	{name: "replicate_bulk", warmPass: true, minPasses: 3,
		why:     "~32 KiB records, 3 brokers, rf=3, acks=all, pull and push replication: log append/roll, buffer pool, CRC, copies and pacing do the work; per-event cost does none",
		prepare: func(cfg runConfig) (func(bool) passOut, error) { return prepareProduce(cfg, bulkSpec), nil }},
	{name: "stream", warmPass: true, minPasses: 3,
		why:     "timer-driven publishers and polling consumers of the fig21 burst points: reads beside writes, dominated by process park/resume",
		prepare: prepareStream},
	{name: "figs", minPasses: 1,
		why:     "every kdbench experiment once, tables diffed against results_all.txt: hundreds of short-lived rigs, so rig construction and the harness dominate",
		prepare: prepareFigs},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ---------------------------------------------------------------------------
// produce_small and replicate_bulk
// ---------------------------------------------------------------------------

// combo is one datapath configuration exercised by a produce workload.
type combo struct {
	name     string
	producer string // kafka | osu | kd_excl | kd_shared
	push     bool   // RDMA push replication (else TCP pull when rf > 1)
	rdmaRead bool   // read back with the RDMA consumer (else the TCP one)
}

// produceSpec sizes a produce workload. One pass builds one rig per combo
// and runs a pipelined phase, a closed-loop phase and a full read-back on it.
type produceSpec struct {
	brokers, rf   int
	segment       int
	valueSize     int // every record's value; see generate for why it is fixed
	nAsync, nSync int // full-size record counts per combo
	asyncFirst    bool
	combos        []combo
	kd, baseline  string // combos behind sim_kd_* and the speed-up's denominator
}

var smallSpec = produceSpec{
	brokers: 1, rf: 1, segment: 16 << 20,
	valueSize: 64,
	nAsync:    24000, nSync: 12000, asyncFirst: true,
	combos: []combo{
		{name: "kafka", producer: "kafka"},
		{name: "osu", producer: "osu"},
		{name: "kd_excl", producer: "kd_excl", rdmaRead: true},
		{name: "kd_shared", producer: "kd_shared", rdmaRead: true},
	},
	kd: "kd_excl", baseline: "kafka",
}

var bulkSpec = produceSpec{
	brokers: 3, rf: 3, segment: 64 << 20,
	valueSize: 32 << 10,
	nAsync:    2048, nSync: 128, asyncFirst: false,
	combos: []combo{
		{name: "kafka+pull", producer: "kafka"},
		{name: "kd_excl+pull", producer: "kd_excl", rdmaRead: true},
		{name: "kd_excl+push", producer: "kd_excl", push: true, rdmaRead: true},
	},
	kd: "kd_excl+push", baseline: "kafka+pull",
}

// recordSet is the generated input of a produce workload.
type recordSet struct {
	seed  int64
	async []krecord.Record
	sync  []krecord.Record
	sum   uint64 // checksum of every value in produce order
	bytes int    // payload bytes of the async phase
}

// valueSum folds record values into an order-sensitive checksum: FNV-64a
// over each value's length and CRC-32C. (FNV over the raw bytes would cost
// the harness more host time on replicate_bulk than the brokers spend.)
type valueSum struct {
	h hash.Hash64
	n int
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func newValueSum() *valueSum { return &valueSum{h: fnv.New64a()} }

func (s *valueSum) add(v []byte) {
	var b [8]byte
	binary.LittleEndian.PutUint32(b[0:], uint32(len(v)))
	binary.LittleEndian.PutUint32(b[4:], crc32.Checksum(v, castagnoli))
	_, _ = s.h.Write(b[:]) // hash.Hash.Write never fails
	s.n++
}

// generate makes the records before any timing starts. Values are drawn from
// a small seeded pool, so 70 MB of bulk payload costs 0.5 MB of input. Every
// value of a workload has the same size: exclusive-mode pipelined RDMA
// produce fails at the parent commit when records of different sizes are in
// flight together (INVALID_RECORD, then the QP dies), and a benchmark's
// workloads must be ones on which no operation fails.
func generate(cfg runConfig, spec produceSpec) *recordSet {
	rng := rand.New(rand.NewSource(cfg.seed))
	const poolBufs = 16
	pool := make([][]byte, poolBufs)
	for i := range pool {
		pool[i] = make([]byte, spec.valueSize)
		rng.Read(pool[i])
	}
	set := &recordSet{seed: cfg.seed}
	sum := newValueSum()
	mk := func(n int) []krecord.Record {
		recs := make([]krecord.Record, n)
		for i := range recs {
			recs[i] = krecord.Record{Value: pool[rng.Intn(poolBufs)], Timestamp: 1}
		}
		return recs
	}
	set.async = mk(cfg.scaled(spec.nAsync))
	set.sync = mk(cfg.scaled(spec.nSync))
	first, second := set.sync, set.async
	if spec.asyncFirst {
		first, second = set.async, set.sync
	}
	for _, r := range first {
		sum.add(r.Value)
	}
	for _, r := range second {
		sum.add(r.Value)
	}
	for _, r := range set.async {
		set.bytes += len(r.Value)
	}
	set.sum = sum.h.Sum64()
	return set
}

// comboOut is what one rig of a produce pass measured, in simulated time.
type comboOut struct {
	failures
	rtts      []time.Duration // closed-loop produce round trips
	asyncTime time.Duration   // first ProduceAsync to Drain return
	events    uint64
	simEnd    time.Duration
}

func prepareProduce(cfg runConfig, spec produceSpec) func(traced bool) passOut {
	set := generate(cfg, spec)
	return func(traced bool) passOut {
		out := passOut{sim: map[string]float64{}}
		var merged *obs.Registry
		if traced {
			merged = obs.NewRegistry()
		}
		byName := map[string]comboOut{}
		for _, c := range spec.combos {
			var o *obs.Obs
			if traced {
				o = obs.New(0)
			}
			co := runCombo(spec, c, set, o)
			byName[c.name] = co
			out.ops += len(set.async) + len(set.sync)
			out.failed += co.failed
			for _, w := range co.why {
				out.why = append(out.why, c.name+": "+w)
			}
			out.events += co.events
			out.simTime += co.simEnd
			if traced {
				merged.MergeFrom(o.Reg)
			}
		}
		kd, base := byName[spec.kd], byName[spec.baseline]
		if len(kd.rtts) > 0 && kd.asyncTime > 0 && base.asyncTime > 0 {
			rtts := append([]time.Duration(nil), kd.rtts...)
			sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
			out.sim["sim_kd_p50_us"] = micros(rtts[len(rtts)/2])
			out.sim["sim_kd_p99_us"] = micros(rtts[len(rtts)*99/100])
			out.sim["sim_kd_mibps"] = float64(set.bytes) / (1 << 20) / kd.asyncTime.Seconds()
			out.sim["sim_kd_speedup"] = float64(base.asyncTime) / float64(kd.asyncTime)
		}
		if traced {
			var buf bytes.Buffer
			merged.Snapshot(0).Render(&buf)
			out.obsText = buf.String()
			out.queueMax = merged.Gauge("broker/queue_depth").Max()
		}
		return out
	}
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// rigSpec is one simulated deployment with a single-partition topic "t".
type rigSpec struct {
	seed        int64
	brokers, rf int
	segment     int
	push        bool     // RDMA push replication
	obs         *obs.Obs // nil = telemetry off
}

// newRig builds the cluster. The RDMA produce and consume modules are always
// enabled: they are passive until a client asks for RDMA access.
func newRig(r rigSpec) (*sim.Env, *core.Cluster, error) {
	env := sim.NewEnv(r.seed)
	opts := core.DefaultOptions()
	opts.Config.SegmentSize = r.segment
	opts.Config.RDMAProduce = true
	opts.Config.RDMAConsume = true
	opts.Config.RDMAReplication = r.push
	opts.Obs = r.obs
	cl := core.NewCluster(env, opts)
	cl.AddBrokers(r.brokers)
	return env, cl, cl.CreateTopic("t", 1, r.rf)
}

// driveRig runs fn as the rig's only client process, then tears the rig down
// the way the figure harness does after each data point.
func driveRig(env *sim.Env, cl *core.Cluster, fn func(p *sim.Proc)) {
	env.Go("driver", func(p *sim.Proc) {
		defer env.Stop()
		fn(p)
	})
	env.RunUntil(600 * time.Second)
	env.Shutdown()
	cl.Release()
}

// runCombo runs one datapath's three phases on a fresh rig.
func runCombo(spec produceSpec, c combo, set *recordSet, o *obs.Obs) comboOut {
	var out comboOut
	env, cl, err := newRig(rigSpec{seed: set.seed, brokers: spec.brokers, rf: spec.rf, segment: spec.segment, push: c.push, obs: o})
	if err != nil {
		out.fail(len(set.async)+len(set.sync), "create topic: %v", err)
		return out
	}
	driveRig(env, cl, func(p *sim.Proc) {
		async := func() {
			pr, err := newProducer(p, cl, c.producer, spec.rf, "async", 1)
			if err != nil {
				out.fail(len(set.async), "async producer: %v", err)
				return
			}
			defer pr.Close()
			start := p.Now()
			for i, r := range set.async {
				if err := pr.ProduceAsync(p, r); err != nil {
					out.fail(len(set.async)-i, "ProduceAsync #%d: %v", i, err)
					return
				}
			}
			if err := pr.Drain(p); err != nil {
				out.fail(1, "Drain: %v", err)
			}
			out.asyncTime = p.Now() - start
		}
		closed := func() {
			pr, err := newProducer(p, cl, c.producer, spec.rf, "sync", 2)
			if err != nil {
				out.fail(len(set.sync), "sync producer: %v", err)
				return
			}
			defer pr.Close()
			out.rtts = make([]time.Duration, 0, len(set.sync))
			for i, r := range set.sync {
				start := p.Now()
				if _, err := pr.Produce(p, r); err != nil {
					out.fail(len(set.sync)-i, "Produce #%d: %v", i, err)
					return
				}
				out.rtts = append(out.rtts, p.Now()-start)
			}
		}
		if spec.asyncFirst {
			async()
			closed()
		} else {
			closed()
			async()
		}
		if out.failed == 0 {
			readBack(p, cl, c.rdmaRead, set, &out.failures)
		}
	})
	out.events = env.Executed()
	out.simEnd = env.Now()
	return out
}

// newProducer opens the named datapath's producer on partition 0 of "t";
// the RPC producers wait for all replicas when the topic is replicated.
func newProducer(p *sim.Proc, cl *core.Cluster, kind string, rf int, who string, id int64) (client.Producer, error) {
	e := client.NewEndpoint(cl, "producer-"+who, client.DefaultConfig())
	acks := int8(1)
	if rf > 1 {
		acks = -1
	}
	switch kind {
	case "kafka":
		return client.NewTCPProducer(p, e, "t", 0, acks, id)
	case "osu":
		return client.NewOSUProducer(p, e, "t", 0, acks, id)
	case "kd_excl":
		return client.NewRDMAProducer(p, e, "t", 0, kwire.AccessExclusive, id)
	case "kd_shared":
		return client.NewRDMAProducer(p, e, "t", 0, kwire.AccessShared, id)
	}
	return nil, fmt.Errorf("unknown producer %q", kind)
}

// readBack consumes the partition from offset 0 and checks the record count
// and the value checksum against the generated input.
func readBack(p *sim.Proc, cl *core.Cluster, rdmaRead bool, set *recordSet, f *failures) {
	e := client.NewEndpoint(cl, "consumer", client.DefaultConfig())
	var co client.Consumer
	var err error
	if rdmaRead {
		co, err = client.NewRDMAConsumer(p, e, "t", 0, 0)
	} else {
		co, err = client.NewTCPConsumer(p, e, "t", 0, 0, "perf")
	}
	want := len(set.async) + len(set.sync)
	if err != nil {
		f.fail(want, "consumer: %v", err)
		return
	}
	defer co.Close()
	sum := newValueSum()
	for idle := 0; sum.n < want && idle < 1000; {
		recs, err := co.Poll(p)
		if err != nil {
			f.fail(want-sum.n, "Poll after %d records: %v", sum.n, err)
			return
		}
		if len(recs) == 0 {
			idle++
			p.Sleep(100 * time.Microsecond)
			continue
		}
		idle = 0
		for _, r := range recs {
			sum.add(r.Value)
		}
	}
	switch {
	case sum.n != want:
		f.fail(abs(want-sum.n), "read back %d records, produced %d", sum.n, want)
	case sum.h.Sum64() != set.sum:
		f.fail(1, "read-back checksum %016x, produced %016x", sum.h.Sum64(), set.sum)
	}
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}

// ---------------------------------------------------------------------------
// stream
// ---------------------------------------------------------------------------

// prepareStream runs the three systems of fig21's periodic-burst, 2x points.
// stream.Run fixes its own seed and takes no telemetry bundle, so neither
// -seed nor tracing reaches inside it.
func prepareStream(cfg runConfig) (func(traced bool) passOut, error) {
	duration := 12 * time.Second // one burst at 10 s; fig21 itself runs 40 s
	if cfg.short {
		duration /= 50
	}
	systems := []stream.System{stream.SysKafka, stream.SysOSU, stream.SysKafkaDirect}
	var first []stream.Result
	return func(bool) passOut {
		out := passOut{sim: map[string]float64{}}
		results := make([]stream.Result, len(systems))
		for i, sys := range systems {
			c := stream.DefaultConfig()
			c.System = sys
			c.Workload = stream.PeriodicBurst
			c.Replicas = 2
			c.Duration = duration
			res := stream.Run(c)
			res.Buckets = nil
			results[i] = res
			// Publishers sleep one interval between events and add a burst
			// every BurstGap; events still in flight when the clock stops
			// are not failures, so up to 3 % may be missing.
			published := c.Topics*int(duration/(time.Second/time.Duration(c.Rate/c.Topics))) +
				int(duration/c.BurstGap)*c.BurstSize
			out.ops += published
			if res.Events < published*97/100 || res.Events > published+c.Topics {
				out.fail(abs(published-res.Events), "%v delivered %d of %d events", sys, res.Events, published)
			}
			out.events += res.SimEvents
			out.simTime += duration
		}
		if first == nil {
			first = results
		}
		for i, res := range results {
			if !sameResult(res, first[i]) {
				out.fail(1, "%v: result differs from the first pass: %+v vs %+v", systems[i], res, first[i])
			}
		}
		kafka, kd := results[0], results[2]
		one, _ := json.Marshal(stream.SensorEvent{TimestampNanos: int64(duration / 2), Lane: 1, CarCount: 17, AvgSpeed: 61.5})
		out.sim["sim_kd_p50_us"] = micros(kd.P50)
		out.sim["sim_kd_p99_us"] = micros(kd.P99)
		out.sim["sim_kd_mibps"] = float64(kd.Events*len(one)) / (1 << 20) / duration.Seconds()
		if kd.Mean > 0 {
			out.sim["sim_kd_speedup"] = float64(kafka.Mean) / float64(kd.Mean)
		}
		return out
	}, nil
}

func sameResult(a, b stream.Result) bool {
	return a.Events == b.Events && a.Mean == b.Mean && a.P50 == b.P50 && a.P99 == b.P99 &&
		a.Max == b.Max && a.SimEvents == b.SimEvents
}

// ---------------------------------------------------------------------------
// figs
// ---------------------------------------------------------------------------

// figRow is the host cost of one experiment of the figs workload.
type figRow struct {
	ID      string  `json:"id"`
	WallMS  float64 `json:"wall_ms"`
	AllocMB float64 `json:"alloc_mb"`
	Events  uint64  `json:"events"`
	Same    bool    `json:"table_identical"`
}

// shortFigs are the experiments -short keeps: the three that finish in
// under 50 ms each.
var shortFigs = map[string]bool{"fig18": true, "chaos": true, "attr": true}

func prepareFigs(cfg runConfig) (func(traced bool) passOut, error) {
	text, err := readGolden(cfg.golden)
	if err != nil {
		return nil, err
	}
	gold := splitTables(text)
	simCells, err := goldenSimMetrics(gold)
	if err != nil {
		return nil, err
	}
	var exps, quick []bench.Experiment
	for _, e := range bench.Experiments() {
		if shortFigs[e.ID] {
			quick = append(quick, e)
		}
		if !cfg.short || shortFigs[e.ID] {
			exps = append(exps, e)
		}
	}
	bench.SetShardParallel(1)
	// No warm-up pass (see workload.warmPass), but the three quickest figures
	// run once so that setup_s measures more than parsing a 16 KB file; the
	// other twenty still meet a cold process.
	bench.RunExperiments(quick, 1)
	return func(traced bool) passOut {
		out := passOut{sim: simCells}
		if traced {
			bench.SetObsMode(true, 0)
			defer bench.SetObsMode(false, 0)
		}
		got := map[string]string{}
		for _, e := range exps {
			before := readHost()
			res := bench.RunExperiments([]bench.Experiment{e}, 1)[0]
			cost := before.until(readHost())
			var buf bytes.Buffer
			res.Table.Print(&buf)
			got[e.ID] = buf.String()
			out.events += res.Events
			out.figs = append(out.figs, figRow{ID: e.ID, WallMS: cost.WallS * 1e3, AllocMB: cost.AllocMB,
				Events: res.Events, Same: got[e.ID] == gold[e.ID]})
		}
		out.ops = len(got)
		want := gold
		if cfg.short { // only the tables that ran can be missing
			want = map[string]string{}
			for id := range got {
				if g, ok := gold[id]; ok {
					want[id] = g
				}
			}
		}
		for _, d := range diffTables(want, got) {
			out.fail(1, "%s", d)
		}
		if traced {
			var buf bytes.Buffer
			bench.WriteObsMetrics(&buf)
			out.obsText = buf.String()
		}
		return out
	}, nil
}
