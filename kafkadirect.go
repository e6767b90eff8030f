// Package kafkadirect is a faithful, simulation-hosted reproduction of
// KafkaDirect (Taranov, Byan, Marathe, Hoefler — SIGMOD 2022): Apache Kafka's
// produce, replication, and consume datapaths accelerated with one-sided
// RDMA, next to the original TCP datapaths and the OSU two-sided-RDMA
// baseline, all running on a deterministic discrete-event network simulator.
//
// A Sim bundles the environment, a broker cluster, and client endpoints:
//
//	s := kafkadirect.NewSim(kafkadirect.Options{Brokers: 3, RDMA: true})
//	s.MustCreateTopic("events", 1, 3)
//	s.Run(func(p *sim.Proc) {
//		prod := s.MustRDMAProducer(p, "events", 0, kafkadirect.Exclusive)
//		prod.Produce(p, krecord.Record{Value: []byte("hello"), Timestamp: 1})
//		cons := s.MustRDMAConsumer(p, "events", 0, 0)
//		recs, _ := cons.Poll(p) // valid until the next cons.Poll
//		...
//	})
//
// The slice a consumer's Poll returns is the consumer's and is rewritten by
// its next Poll; copy records out to keep them longer. The bytes a record's
// Key and Value point to are the caller's and stay valid.
//
// Everything below the facade is exported through the subpackages:
// internal/sim (the DES kernel), internal/fabric and internal/rdma (the
// network and verbs simulators), internal/core (the broker), and
// internal/client (the four client stacks). See DESIGN.md for the map.
package kafkadirect

import (
	"fmt"
	"time"

	"kafkadirect/internal/client"
	"kafkadirect/internal/core"
	"kafkadirect/internal/krecord"
	"kafkadirect/internal/kwire"
	"kafkadirect/internal/sim"
)

// Record is the user-facing record type.
type Record = krecord.Record

// Access modes for RDMA producers (§4.2.2).
const (
	Exclusive = kwire.AccessExclusive
	Shared    = kwire.AccessShared
)

// Options configures a simulation.
type Options struct {
	// Brokers is the cluster size (default 1).
	Brokers int
	// RDMA enables all three KafkaDirect modules; leave false for the
	// original-Kafka baseline. Use Core to toggle modules individually.
	RDMA bool
	// Seed fixes the deterministic random source (default 1).
	Seed int64
	// Core optionally overrides the full broker/cost configuration.
	Core *core.Options
	// Client optionally overrides the client cost model.
	Client *client.Config
}

// Sim is a runnable KafkaDirect deployment.
type Sim struct {
	env       *sim.Env
	cluster   *core.Cluster
	clientCfg client.Config
	endpoints int
}

// NewSim builds a cluster per the options. Brokers start immediately.
func NewSim(o Options) *Sim {
	if o.Brokers <= 0 {
		o.Brokers = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	env := sim.NewEnv(o.Seed)
	copts := core.DefaultOptions()
	if o.Core != nil {
		copts = *o.Core
	} else if o.RDMA {
		copts.Config = copts.Config.WithRDMA()
	}
	ccfg := client.DefaultConfig()
	if o.Client != nil {
		ccfg = *o.Client
	}
	cl := core.NewCluster(env, copts)
	cl.AddBrokers(o.Brokers)
	return &Sim{env: env, cluster: cl, clientCfg: ccfg}
}

// Env exposes the simulation environment.
func (s *Sim) Env() *sim.Env { return s.env }

// Cluster exposes the broker cluster.
func (s *Sim) Cluster() *core.Cluster { return s.cluster }

// CreateTopic creates a topic.
func (s *Sim) CreateTopic(name string, partitions, replicationFactor int) error {
	return s.cluster.CreateTopic(name, partitions, replicationFactor)
}

// MustCreateTopic creates a topic or panics.
func (s *Sim) MustCreateTopic(name string, partitions, replicationFactor int) {
	if err := s.CreateTopic(name, partitions, replicationFactor); err != nil {
		panic(err)
	}
}

// NewEndpoint attaches a fresh client machine.
func (s *Sim) NewEndpoint() *client.Endpoint {
	s.endpoints++
	return client.NewEndpoint(s.cluster, fmt.Sprintf("client-%d", s.endpoints), s.clientCfg)
}

// Run executes fn as the driver process and runs the simulation until fn
// returns (brokers idle forever, so the driver decides when we are done).
// It returns the virtual time consumed.
func (s *Sim) Run(fn func(p *sim.Proc)) time.Duration {
	return s.RunFor(-1, fn)
}

// RunFor is Run with a virtual-time deadline (use for open-ended workloads).
func (s *Sim) RunFor(deadline time.Duration, fn func(p *sim.Proc)) time.Duration {
	s.env.Go("driver", func(p *sim.Proc) {
		fn(p)
		s.env.Stop()
	})
	s.env.RunUntil(deadline)
	return s.env.Now()
}

// Go spawns an auxiliary process (extra producers, consumers, load).
func (s *Sim) Go(name string, fn func(p *sim.Proc)) { s.env.Go(name, fn) }

// Shutdown unwinds all simulation processes; the Sim must not be used
// afterwards. Call it when constructing many Sims in one Go process.
func (s *Sim) Shutdown() { s.env.Shutdown() }

// The Must helpers below wrap client constructors for concise examples.

// MustTCPProducer builds an original-Kafka producer on a fresh endpoint.
func (s *Sim) MustTCPProducer(p *sim.Proc, topic string, part int32, acks int8) *client.RPCProducer {
	pr, err := client.NewTCPProducer(p, s.NewEndpoint(), topic, part, acks, int64(s.endpoints))
	if err != nil {
		panic(err)
	}
	return pr
}

// MustOSUProducer builds an OSU-Kafka producer on a fresh endpoint.
func (s *Sim) MustOSUProducer(p *sim.Proc, topic string, part int32, acks int8) *client.RPCProducer {
	pr, err := client.NewOSUProducer(p, s.NewEndpoint(), topic, part, acks, int64(s.endpoints))
	if err != nil {
		panic(err)
	}
	return pr
}

// MustRDMAProducer builds a KafkaDirect producer on a fresh endpoint.
func (s *Sim) MustRDMAProducer(p *sim.Proc, topic string, part int32, mode kwire.AccessMode) *client.RDMAProducer {
	pr, err := client.NewRDMAProducer(p, s.NewEndpoint(), topic, part, mode, int64(s.endpoints))
	if err != nil {
		panic(err)
	}
	return pr
}

// MustTCPConsumer builds an original-Kafka consumer on a fresh endpoint.
func (s *Sim) MustTCPConsumer(p *sim.Proc, topic string, part int32, offset int64) *client.RPCConsumer {
	co, err := client.NewTCPConsumer(p, s.NewEndpoint(), topic, part, offset, "group")
	if err != nil {
		panic(err)
	}
	return co
}

// MustRDMAConsumer builds a KafkaDirect consumer on a fresh endpoint.
func (s *Sim) MustRDMAConsumer(p *sim.Proc, topic string, part int32, offset int64) *client.RDMAConsumer {
	co, err := client.NewRDMAConsumer(p, s.NewEndpoint(), topic, part, offset)
	if err != nil {
		panic(err)
	}
	return co
}
