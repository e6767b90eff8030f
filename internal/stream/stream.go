// Package stream reproduces the event-processing workload of §5.4: an IoT
// traffic sensor publishes JSON events (cars counted and their average speed
// per road lane) into two topics, which an event-processing engine polls.
// The metric is the delay between an event's generation timestamp and the
// moment the engine reads it — deliberately excluding the engine's own
// processing speed, exactly as the paper does.
//
// Two publishers are modelled: constant-rate (400 messages/s) and
// periodic-burst (every ten seconds an enlarged batch on top of the base
// rate).
package stream

import (
	"fmt"
	"sort"
	"time"

	"kafkadirect/internal/client"
	"kafkadirect/internal/core"
	"kafkadirect/internal/krecord"
	"kafkadirect/internal/kwire"
	"kafkadirect/internal/obs"
	"kafkadirect/internal/sim"
)

// SensorEvent is the IoT measurement published as JSON. The run itself writes
// and reads it with the fixed-shape codec of event.go; the tags say what that
// codec must match, byte for byte.
type SensorEvent struct {
	TimestampNanos int64   `json:"ts"`
	Lane           int     `json:"lane"`
	CarCount       int     `json:"count"`
	AvgSpeed       float64 `json:"speed"`
}

// Workload selects the publishing pattern.
type Workload int

// Workloads of Fig. 21.
const (
	ConstantRate Workload = iota
	PeriodicBurst
)

func (w Workload) String() string {
	if w == ConstantRate {
		return "constant-rate"
	}
	return "periodic-burst"
}

// System selects the messaging stack under test.
type System int

// Systems compared in Fig. 21.
const (
	SysKafka System = iota
	SysOSU
	SysKafkaDirect
)

func (s System) String() string {
	switch s {
	case SysKafka:
		return "kafka"
	case SysOSU:
		return "osu"
	}
	return "kafkadirect"
}

// Config parameterises one Fig. 21 run.
type Config struct {
	System    System
	Workload  Workload
	Replicas  int           // 1 = no replication, 2 = the paper's 2x setting
	Rate      int           // base events/s (paper: 400)
	BurstSize int           // extra events per burst (periodic-burst only)
	BurstGap  time.Duration // paper: every 10 s
	Duration  time.Duration
	Topics    int // paper: two separate topics
	// Obs collects the cluster's telemetry (nil = disabled). It is passive:
	// the result is the same with it set or not.
	Obs *obs.Obs
}

// DefaultConfig mirrors §5.4 with a shortened run.
func DefaultConfig() Config {
	return Config{
		Rate:      400,
		BurstSize: 2000,
		BurstGap:  10 * time.Second,
		Duration:  60 * time.Second,
		Topics:    2,
	}
}

// Result summarises event delays.
type Result struct {
	Events  int
	Mean    time.Duration
	P50     time.Duration
	P99     time.Duration
	Max     time.Duration
	Buckets []Bucket // per-second mean delay, for the time-series view
	// SimEvents and SimSwitches are the simulator events the run executed
	// and the coroutine switches it made (performance accounting, not part
	// of the delay distribution).
	SimEvents, SimSwitches uint64
}

// Bucket is one second of the run.
type Bucket struct {
	Second int
	Events int
	Mean   time.Duration
}

// Run executes one configuration and gathers the delay distribution.
func Run(cfg Config) Result {
	env := sim.NewEnv(23)
	opts := core.DefaultOptions()
	opts.Config.SegmentSize = 64 << 20
	opts.Config.RDMAProduce = true
	opts.Config.RDMAConsume = true
	opts.Config.RDMAReplication = cfg.System == SysKafkaDirect && cfg.Replicas > 1
	opts.Obs = cfg.Obs
	brokers := cfg.Replicas
	if brokers < 1 {
		brokers = 1
	}
	cl := core.NewCluster(env, opts)
	cl.AddBrokers(brokers)
	for ti := 0; ti < cfg.Topics; ti++ {
		if err := cl.CreateTopic(topicName(ti), 1, cfg.Replicas); err != nil {
			panic(err)
		}
	}

	var delays []time.Duration
	bucketSum := map[int]time.Duration{}
	bucketN := map[int]int{}
	stop := false

	// Publishers: one per topic, paced by the workload.
	for ti := 0; ti < cfg.Topics; ti++ {
		ti := ti
		env.Go(fmt.Sprintf("sensor-%d", ti), func(p *sim.Proc) {
			e := client.NewEndpoint(cl, fmt.Sprintf("sensor-ep-%d", ti), client.DefaultConfig())
			pub := publisher{pr: newProducer(p, e, cfg, topicName(ti), int64(ti))}
			interval := time.Second / time.Duration(cfg.Rate/cfg.Topics)
			lane := ti
			nextBurst := cfg.BurstGap
			for !stop {
				now := p.Now()
				pub.publish(p, now, lane)
				if cfg.Workload == PeriodicBurst && now >= nextBurst {
					for i := 0; i < cfg.BurstSize/cfg.Topics; i++ {
						pub.publish(p, p.Now(), lane)
					}
					nextBurst += cfg.BurstGap
				}
				p.Sleep(interval)
			}
		})
	}

	// The event-processing engine: one consumer per topic.
	for ti := 0; ti < cfg.Topics; ti++ {
		ti := ti
		env.Go(fmt.Sprintf("engine-%d", ti), func(p *sim.Proc) {
			e := client.NewEndpoint(cl, fmt.Sprintf("engine-ep-%d", ti), client.DefaultConfig())
			co := newConsumer(p, e, cfg, topicName(ti))
			polled := 0
			for !stop {
				recs, err := co.Poll(p)
				if err != nil {
					return
				}
				for _, rec := range recs {
					ev, err := parseEvent(rec.Value)
					if err != nil {
						continue
					}
					d := p.Now() - time.Duration(ev.TimestampNanos)
					delays = append(delays, d)
					sec := int(p.Now() / time.Second)
					bucketSum[sec] += d
					bucketN[sec]++
				}
				polled++
				if len(recs) == 0 {
					// Idle pacing: the engine polls continuously but not
					// hotter than once per 100 µs when there is nothing.
					p.Sleep(100 * time.Microsecond)
				}
				// Commit progress now and then (§5.4: the commit offset
				// request stays on the TCP path even in KafkaDirect).
				if polled%256 == 0 {
					co.Commit(p)
				}
			}
		})
	}

	env.Go("clock", func(p *sim.Proc) {
		p.Sleep(cfg.Duration)
		stop = true
		env.Stop()
	})
	env.RunUntil(cfg.Duration + time.Second)
	env.Shutdown()
	cl.Release() // return the rig's pooled buffers; the cluster is done

	res := summarise(delays, bucketSum, bucketN)
	res.SimEvents, res.SimSwitches = env.Executed(), env.Switches()
	return res
}

func topicName(i int) string { return fmt.Sprintf("iot-%d", i) }

// pubsub adapters: the engine only needs Poll+Commit; publishers Produce.

type consumer interface {
	Poll(p *sim.Proc) ([]krecord.Record, error)
	Commit(p *sim.Proc)
}

type rpcConsumer struct{ c *client.RPCConsumer }

func (r rpcConsumer) Poll(p *sim.Proc) ([]krecord.Record, error) { return r.c.Poll(p) }
func (r rpcConsumer) Commit(p *sim.Proc)                         { _ = r.c.CommitOffset(p) }

type rdmaConsumer struct {
	c   *client.RDMAConsumer
	ctl *client.RPCConsumer // offset commits still travel over TCP (§5.4)
}

func (r rdmaConsumer) Poll(p *sim.Proc) ([]krecord.Record, error) { return r.c.Poll(p) }
func (r rdmaConsumer) Commit(p *sim.Proc) {
	if r.ctl != nil {
		_ = r.ctl.CommitOffset(p)
	}
}

func newConsumer(p *sim.Proc, e *client.Endpoint, cfg Config, topic string) consumer {
	switch cfg.System {
	case SysKafka:
		c, err := client.NewTCPConsumer(p, e, topic, 0, 0, "engine")
		if err != nil {
			panic(err)
		}
		return rpcConsumer{c: c}
	case SysOSU:
		c, err := client.NewOSUConsumer(p, e, topic, 0, 0, "engine")
		if err != nil {
			panic(err)
		}
		return rpcConsumer{c: c}
	default:
		c, err := client.NewRDMAConsumer(p, e, topic, 0, 0)
		if err != nil {
			panic(err)
		}
		ctl, err := client.NewTCPConsumer(p, e, topic, 0, 0, "engine")
		if err != nil {
			panic(err)
		}
		return rdmaConsumer{c: c, ctl: ctl}
	}
}

func newProducer(p *sim.Proc, e *client.Endpoint, cfg Config, topic string, id int64) client.Producer {
	acks := int8(1)
	if cfg.Replicas > 1 {
		acks = -1
	}
	switch cfg.System {
	case SysKafka:
		pr, err := client.NewTCPProducer(p, e, topic, 0, acks, id)
		if err != nil {
			panic(err)
		}
		return pr
	case SysOSU:
		pr, err := client.NewOSUProducer(p, e, topic, 0, acks, id)
		if err != nil {
			panic(err)
		}
		return pr
	default:
		pr, err := client.NewRDMAProducer(p, e, topic, 0, kwire.AccessExclusive, id)
		if err != nil {
			panic(err)
		}
		return pr
	}
}

// publisher is one sensor: its producer, the buffer its events are encoded
// into and the one-record argument of every produce. Both are reused — the
// producer's batch builder has copied the value by the time ProduceAsync
// returns (§5.1's defensive copy), and a sensor publishes one event at a time.
type publisher struct {
	pr  client.Producer
	buf []byte
	one [1]krecord.Record
}

func (pub *publisher) publish(p *sim.Proc, now time.Duration, lane int) {
	pub.buf = appendEvent(pub.buf[:0], SensorEvent{
		TimestampNanos: int64(now),
		Lane:           lane,
		CarCount:       17,
		AvgSpeed:       61.5,
	})
	pub.one[0] = krecord.Record{Value: pub.buf, Timestamp: int64(now)}
	if err := pub.pr.ProduceAsync(p, pub.one[:]...); err != nil {
		panic(err)
	}
}

func summarise(delays []time.Duration, bucketSum map[int]time.Duration, bucketN map[int]int) Result {
	res := Result{Events: len(delays)}
	if len(delays) == 0 {
		return res
	}
	sorted := append([]time.Duration(nil), delays...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	res.Mean = sum / time.Duration(len(sorted))
	res.P50 = sorted[len(sorted)/2]
	res.P99 = sorted[len(sorted)*99/100]
	res.Max = sorted[len(sorted)-1]
	secs := make([]int, 0, len(bucketN))
	for s := range bucketN {
		secs = append(secs, s)
	}
	sort.Ints(secs)
	for _, s := range secs {
		res.Buckets = append(res.Buckets, Bucket{
			Second: s,
			Events: bucketN[s],
			Mean:   bucketSum[s] / time.Duration(bucketN[s]),
		})
	}
	return res
}
