package bench

import (
	"fmt"
	"time"

	"kafkadirect/internal/client"
	"kafkadirect/internal/core"
	"kafkadirect/internal/krecord"
	"kafkadirect/internal/kwire"
	"kafkadirect/internal/obs"
	"kafkadirect/internal/sim"
)

// This file holds the shared scaffolding for the full-system benchmarks
// (Fig. 10–20): cluster construction per system configuration, the four
// measurement loops, and the produce measurements built from them.

// systemKind names the compared systems exactly as the paper's legends do.
type systemKind string

const (
	sysKafka    systemKind = "kafka"     // unmodified Kafka over TCP/IPoIB
	sysOSU      systemKind = "osu"       // OSU Kafka: two-sided RDMA RPC [33]
	sysKDExcl   systemKind = "kd_excl"   // KafkaDirect exclusive RDMA produce
	sysKDShared systemKind = "kd_shared" // KafkaDirect shared RDMA produce
)

// replMode selects the replication datapath for Fig. 14–17.
type replMode string

const (
	replNone replMode = "none"
	replPull replMode = "pull" // TCP pull replication (§4.3.1)
	replPush replMode = "push" // RDMA push replication (§4.3.2)
)

// sysRig is one benchmark deployment.
type sysRig struct {
	env            *sim.Env
	cl             *core.Cluster
	clientInFlight int
	st             *Stats

	// o is the rig's telemetry bundle (nil when collection is off); collect
	// marks it for the global collector at teardown (rig-local bundles, like
	// the attr figure's, stay private to their experiment).
	o       *obs.Obs
	collect bool
}

// rigConfig parameterises a deployment.
type rigConfig struct {
	brokers    int
	repl       replMode
	apiWorkers int
	// segmentSize is the preallocated size of every TP file; 0 means
	// rollSegment, which only the consume and notify rigs still take blind
	// (stream sets the same size itself). A rig that writes a known number
	// of records sets segmentFor or floodSegment of them, so that it does
	// not provision (and the pool does not retain) 64 MiB per partition to
	// hold a few KiB.
	segmentSize int
	pushBatch   int
	pushCredits int
	// clientInFlight deepens the RDMA producer pipeline (Fig. 17 floods the
	// replication module with far more records than the default window).
	clientInFlight int
	// stats, when set, receives the rig's executed-event count at teardown.
	stats *Stats
	// obs forces a rig-local telemetry bundle regardless of the global
	// collection mode (the attr figure reads its own registry directly).
	obs *obs.Obs
}

// segmentFor sizes the segments of a rig that must never roll: the smallest
// power of two, from 1 MiB, with room for n records of size bytes in one
// partition (each in a batch of its own, hence the per-record allowance) and
// a quarter to spare. Powers of two keep the rigs on a few pooled sizes.
func segmentFor(n, size int) int {
	need := n * (size + 128) * 5 / 4
	seg := 1 << 20
	for seg < need {
		seg <<= 1
	}
	return seg
}

// rollSegment is the segment size the flooding figures roll at.
const rollSegment = 64 << 20

// floodSegment sizes the segments of a flood of n records of size bytes per
// partition: a flood that fits in less than rollSegment provisions what it
// fills, one that does not rolls where it always did (fig15 and fig16's
// large cells).
func floodSegment(n, size int) int { return min(rollSegment, segmentFor(n, size)) }

func newSysRig(cfg rigConfig) *sysRig {
	env := sim.NewEnv(11)
	opts := core.DefaultOptions()
	opts.Config.SegmentSize = rollSegment
	if cfg.segmentSize > 0 {
		opts.Config.SegmentSize = cfg.segmentSize
	}
	if cfg.apiWorkers > 0 {
		opts.Config.APIWorkers = cfg.apiWorkers
	}
	if cfg.pushBatch > 0 {
		opts.Config.PushMaxBatch = cfg.pushBatch
	}
	if cfg.pushCredits > 0 {
		opts.Config.PushCredits = cfg.pushCredits
	}
	// The produce and consume modules are enabled throughout: they are
	// passive unless a client requests RDMA access, so the TCP baselines
	// are unaffected ("the RDMA modules of KafkaDirect can be enabled at
	// need", §1). Which datapath a run exercises is decided by the client.
	opts.Config.RDMAProduce = true
	opts.Config.RDMAConsume = true
	opts.Config.RDMAReplication = cfg.repl == replPush
	if cfg.brokers <= 0 {
		cfg.brokers = 1
	}
	o, collect := cfg.obs, false
	if o == nil {
		o, collect = newRigObs(), true
	}
	opts.Obs = o
	cl := core.NewCluster(env, opts)
	cl.AddBrokers(cfg.brokers)
	return &sysRig{env: env, cl: cl, clientInFlight: cfg.clientInFlight, st: cfg.stats,
		o: o, collect: collect}
}

func (r *sysRig) topic(name string, partitions, rf int) {
	must(r.cl.CreateTopic(name, partitions, rf))
}

func (r *sysRig) endpoint(name string) *client.Endpoint {
	cfg := client.DefaultConfig()
	if r.clientInFlight > 0 {
		cfg.MaxInFlight = r.clientInFlight
	}
	return client.NewEndpoint(r.cl, name, cfg)
}

// run drives the rig until fn returns (virtual deadline as a backstop),
// then unwinds every process, records the executed-event count, and releases
// the cluster: its segment files and large wire buffers (what its receive
// rings hold among them) go back to the process-wide pool, and the next data
// point's rig is built from them. The harness builds one rig per data point;
// without this a point's host cost is the memory it provisions, not the
// bytes it moves.
func (r *sysRig) run(fn func(p *sim.Proc)) {
	r.env.Go("driver", func(p *sim.Proc) {
		fn(p)
		r.env.Stop()
	})
	r.env.RunUntil(600 * time.Second)
	r.env.Shutdown()
	r.st.AddEvents(r.env.Executed(), r.env.Switches())
	if r.collect {
		collectRigObs(r.o)
	}
	r.cl.Release()
}

// newProducer builds the producer matching a system kind. acks applies to
// the RPC producers; RDMA producers follow the partition's replication.
func newProducer(p *sim.Proc, e *client.Endpoint, kind systemKind, topic string, part int32, acks int8, id int64) client.Producer {
	var pr client.Producer
	var err error
	switch kind {
	case sysKafka:
		pr, err = client.NewTCPProducer(p, e, topic, part, acks, id)
	case sysOSU:
		pr, err = client.NewOSUProducer(p, e, topic, part, acks, id)
	case sysKDExcl:
		pr, err = client.NewRDMAProducer(p, e, topic, part, kwire.AccessExclusive, id)
	case sysKDShared:
		pr, err = client.NewRDMAProducer(p, e, topic, part, kwire.AccessShared, id)
	default:
		err = fmt.Errorf("bench: unknown system %q", kind)
	}
	must(err)
	return pr
}

// rf is the replication factor the produce figures give their topic: every
// broker of the rig holds a replica once a replication datapath is selected.
func (cfg rigConfig) rf() int {
	if cfg.repl == replNone {
		return 1
	}
	return cfg.brokers
}

// acksFor is the RPC producers' acks setting: leader-only on an unreplicated
// topic, all in-sync replicas (-1) on a replicated one.
func acksFor(rf int) int8 {
	if rf > 1 {
		return -1
	}
	return 1
}

// payload builds one record of the given value size.
func payload(size int, tag byte) krecord.Record {
	v := make([]byte, size)
	for i := range v {
		v[i] = tag
	}
	return krecord.Record{Value: v, Timestamp: 1}
}

// ---------------------------------------------------------------------------
// Measurement loops
// ---------------------------------------------------------------------------
//
// The evaluation's vocabulary is four loops, each written once here. Rigs
// never inject faults into the measured path (the chaos figure, which does,
// counts its errors itself), so every loop panics on an error exactly as
// mustPost does for raw verbs: a figure measured over failed operations
// would be silently wrong.

// must panics on an error from a fault-free rig.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// mustProduce is one checked synchronous produce.
func mustProduce(p *sim.Proc, pr client.Producer, rec krecord.Record) {
	_, err := pr.Produce(p, rec)
	must(err)
}

// poller is what the consume loops need of a consumer: client.Consumer
// yields krecord.Record, the group consumer client.TopicRecord.
type poller[R any] interface {
	Poll(p *sim.Proc) ([]R, error)
}

// mustPoll is one checked poll; the batch may be empty.
func mustPoll[R any](p *sim.Proc, co poller[R]) []R {
	recs, err := co.Poll(p)
	must(err)
	return recs
}

// same is the flood source that sends one record every time.
func same(rec krecord.Record) func(int) krecord.Record {
	return func(int) krecord.Record { return rec }
}

// flood is the open-loop produce: n records, record i being next(i), through
// the producer's asynchronous window, then a wait for the last
// acknowledgement. It returns the time from the first send to that
// acknowledgement.
func flood(p *sim.Proc, pr client.Producer, n int, next func(i int) krecord.Record) time.Duration {
	batch := make([]krecord.Record, 1) // one argument slice for the flood, not one per record
	start := p.Now()
	for i := 0; i < n; i++ {
		batch[0] = next(i)
		must(pr.ProduceAsync(p, batch...))
	}
	must(pr.Drain(p))
	return p.Now() - start
}

// closedLoop is the closed-loop latency measurement: op runs warm times
// unmeasured (grants, registrations, connections), then n times with each
// run's duration sampled. Callers reduce the samples with median, or with
// mean — which, the measured ops running back to back, is the elapsed time
// over n. before, when non-nil, readies every op outside its measurement
// (the commit figure produces and fetches the record each commit covers).
func closedLoop(p *sim.Proc, warm, n int, before, op func()) []time.Duration {
	samples := make([]time.Duration, 0, n)
	for i := 0; i < warm+n; i++ {
		if before != nil {
			before()
		}
		start := p.Now()
		op()
		if i >= warm {
			samples = append(samples, p.Now()-start)
		}
	}
	return samples
}

// pollRecords polls until a batch with records arrives and returns it: one
// fetch round of the consume-latency figures.
func pollRecords[R any](p *sim.Proc, co poller[R]) []R {
	for {
		if recs := mustPoll(p, co); len(recs) > 0 {
			return recs
		}
	}
}

// drain is the open-loop consume: poll until n records have arrived, and
// return how long that took.
func drain(p *sim.Proc, co client.Consumer, n int) time.Duration {
	start := p.Now()
	for got := 0; got < n; {
		got += len(mustPoll(p, co))
	}
	return p.Now() - start
}

// produceLatency measures the median closed-loop produce RTT for one system
// and record size. acks=-1 when the topic is replicated.
func produceLatency(kind systemKind, recordSize int, cfg rigConfig) time.Duration {
	const warm, n = 3, 31
	cfg.segmentSize = segmentFor(warm+n, recordSize)
	r := newSysRig(cfg)
	rf := cfg.rf()
	r.topic("t", 1, rf)
	var med time.Duration
	r.run(func(p *sim.Proc) {
		pr := newProducer(p, r.endpoint("cli"), kind, "t", 0, acksFor(rf), 1)
		rec := payload(recordSize, 'x')
		med = median(closedLoop(p, warm, n, nil, func() { mustProduce(p, pr, rec) }))
	})
	return med
}

// produceGoodput measures open-loop produce goodput (MiB/s) for one system:
// one producer process per partition (times producersPerTP), each flooding
// its own window. Unlike the single-producer floods it is timed from the
// driver: the clock starts before the producers have connected and stops
// when the last of them has drained, so connection set-up of a whole fleet
// is part of what the partition-scaling figures measure.
func produceGoodput(kind systemKind, recordSize, partitions, producersPerTP int, cfg rigConfig) float64 {
	// Scale the record count so each run moves a comparable byte volume.
	perProducer := max(200, min(3000, 6<<20/recordSize))
	nProducers := partitions * producersPerTP
	cfg.segmentSize = floodSegment(perProducer*producersPerTP, recordSize)
	r := newSysRig(cfg)
	rf := cfg.rf()
	r.topic("t", partitions, rf)
	var elapsed time.Duration
	done := sim.NewQueue[struct{}]()
	r.run(func(p *sim.Proc) {
		for pi := 0; pi < nProducers; pi++ {
			r.env.Go(fmt.Sprintf("prod-%d", pi), func(pp *sim.Proc) {
				pr := newProducer(pp, r.endpoint(fmt.Sprintf("cli-%d", pi)), kind, "t", int32(pi%partitions), acksFor(rf), int64(pi))
				flood(pp, pr, perProducer, same(payload(recordSize, byte('a'+pi%26))))
				done.Push(struct{}{})
			})
		}
		start := p.Now()
		for i := 0; i < nProducers; i++ {
			done.Pop(p)
		}
		elapsed = p.Now() - start
	})
	return mibps(nProducers*perProducer*recordSize, elapsed)
}

// floodGoodput measures the goodput (MiB/s) of one producer flooding n
// records into a single partition of explicit replication factor, timed
// inside the producer once it is connected.
func floodGoodput(kind systemKind, recordSize, rf, n int, cfg rigConfig) float64 {
	cfg.segmentSize = floodSegment(n, recordSize)
	r := newSysRig(cfg)
	r.topic("t", 1, rf)
	var elapsed time.Duration
	r.run(func(p *sim.Proc) {
		pr := newProducer(p, r.endpoint("cli"), kind, "t", 0, acksFor(rf), 1)
		elapsed = flood(p, pr, n, same(payload(recordSize, 'r')))
	})
	return mibps(n*recordSize, elapsed)
}
