package core

import (
	"errors"
	"fmt"
	"sort"

	"kafkadirect/internal/fabric"
	"kafkadirect/internal/kwire"
	"kafkadirect/internal/obs"
	"kafkadirect/internal/rdma"
	"kafkadirect/internal/sim"
	"kafkadirect/internal/tcpnet"
)

// errTopicExists reports a duplicate topic creation.
var errTopicExists = errors.New("core: topic already exists")

// errNotEnoughBrokers reports a replication factor above the broker count.
var errNotEnoughBrokers = errors.New("core: replication factor exceeds broker count")

// Options bundle everything a Cluster deployment needs.
type Options struct {
	Config Config
	Fabric fabric.Config
	TCP    tcpnet.Config
	RDMA   rdma.Costs
	// Obs enables deployment-wide telemetry (nil = disabled). NewCluster
	// installs it on the fabric before any stack or broker is built, so
	// every layer caches live instrument handles (obs package docs).
	Obs *obs.Obs
}

// DefaultOptions is the calibrated testbed: 56 Gbit/s fabric, IPoIB-grade
// TCP stack, ConnectX-4-grade RNICs, Kafka-default broker parameters.
func DefaultOptions() Options {
	return Options{
		Config: DefaultConfig(),
		Fabric: fabric.DefaultConfig(),
		TCP:    tcpnet.DefaultConfig(),
		RDMA:   rdma.DefaultCosts(),
	}
}

// Cluster is a deployment: a fabric, a TCP stack, brokers, and the topic
// metadata a real deployment would keep in ZooKeeper/KRaft (the paper does
// not touch coordination, so a single in-process controller suffices).
type Cluster struct {
	env       *sim.Env
	cfg       Config
	net       *fabric.Network
	stack     *tcpnet.Stack
	rdmaCosts rdma.Costs

	brokers []*Broker
	byName  map[string]*Broker

	topics map[string]*clusterTopic
	rr     int

	// down marks crashed brokers (fault injection); see controller.go.
	down map[string]bool

	// groups is the consumer-group runtime (nil until EnableGroups);
	// see groups.go.
	groups *groupRuntime

	// Controller instruments, cached at construction (nil when telemetry
	// is disabled); see controller.go.
	obsISRChanges *obs.Counter
	obsElections  *obs.Counter
}

type clusterTopic struct {
	name  string
	parts []kwire.PartitionMeta
}

// NewCluster creates an empty cluster on the environment.
func NewCluster(env *sim.Env, opts Options) *Cluster {
	net := fabric.New(env, opts.Fabric)
	if opts.Obs != nil {
		net.SetObs(opts.Obs)
	}
	return &Cluster{
		env:       env,
		cfg:       opts.Config,
		net:       net,
		stack:     tcpnet.NewStack(net, opts.TCP),
		rdmaCosts: opts.RDMA,
		byName:    make(map[string]*Broker),
		topics:    make(map[string]*clusterTopic),

		obsISRChanges: net.Obs().Counter("core/isr_changes"),
		obsElections:  net.Obs().Counter("core/leader_elections"),
	}
}

// Env returns the simulation environment.
func (c *Cluster) Env() *sim.Env { return c.env }

// Network returns the fabric.
func (c *Cluster) Network() *fabric.Network { return c.net }

// Stack returns the TCP stack (for building client hosts).
func (c *Cluster) Stack() *tcpnet.Stack { return c.stack }

// RDMACosts returns the RNIC cost parameters (for building client devices).
func (c *Cluster) RDMACosts() rdma.Costs { return c.rdmaCosts }

// Config returns the broker configuration.
func (c *Cluster) Config() Config { return c.cfg }

// AddBroker starts broker-N and returns it.
func (c *Cluster) AddBroker() *Broker {
	id := fmt.Sprintf("broker-%d", len(c.brokers))
	b := newBroker(c, id)
	c.brokers = append(c.brokers, b)
	c.byName[id] = b
	return b
}

// AddBrokers starts n brokers.
func (c *Cluster) AddBrokers(n int) {
	for i := 0; i < n; i++ {
		c.AddBroker()
	}
}

// Brokers returns all brokers.
func (c *Cluster) Brokers() []*Broker { return c.brokers }

// Release is the deployment's one teardown: it returns every large buffer
// that lived as long as the rig to the process-wide buffer pool — each
// partition's segment files, what every receive ring still holds, and the
// large classes of the fabric's wire free list — so the next rig is
// built from them instead of from fresh, runtime-cleared memory. Call only
// after the simulation has shut down (no process may still read or write
// log storage or a frame); the cluster is unusable afterwards.
func (c *Cluster) Release() {
	for _, b := range c.brokers {
		b.release()
	}
	c.net.Release()
}

// broker returns the broker with the given id (panics on unknown ids —
// metadata and broker ids come from the same controller).
func (c *Cluster) broker(id string) *Broker {
	b, ok := c.byName[id]
	if !ok {
		panic("core: unknown broker " + id)
	}
	return b
}

// Broker returns the broker with the given id, or nil.
func (c *Cluster) Broker(id string) *Broker { return c.byName[id] }

// brokerName maps a replica index to a broker id.
func (c *Cluster) brokerName(idx int32) string {
	if idx < 0 || int(idx) >= len(c.brokers) {
		return ""
	}
	return c.brokers[idx].id
}

// brokerIndex maps a broker id to its replica index.
func (c *Cluster) brokerIndex(id string) int32 {
	for i, b := range c.brokers {
		if b.id == id {
			return int32(i)
		}
	}
	return -1
}

// CreateTopic creates a topic with the given partition count and replication
// factor, assigning partition leaders round-robin across brokers and
// starting the configured replication datapath for each partition.
func (c *Cluster) CreateTopic(name string, partitions, replicationFactor int) error {
	if _, dup := c.topics[name]; dup {
		return errTopicExists
	}
	if partitions <= 0 || replicationFactor <= 0 {
		return fmt.Errorf("core: invalid topic spec %d/%d", partitions, replicationFactor)
	}
	if replicationFactor > len(c.brokers) {
		return errNotEnoughBrokers
	}
	ct := &clusterTopic{name: name}
	for pi := 0; pi < partitions; pi++ {
		var replicas []string
		for r := 0; r < replicationFactor; r++ {
			replicas = append(replicas, c.brokers[(c.rr+r)%len(c.brokers)].id)
		}
		leader := replicas[0]
		c.rr++
		ct.parts = append(ct.parts, kwire.PartitionMeta{
			Partition: int32(pi),
			Leader:    leader,
			Replicas:  replicas,
		})
		// Instantiate the partition on every replica.
		for _, id := range replicas {
			c.broker(id).addPartition(name, int32(pi), leader, replicas)
		}
		// Wire the replication datapath.
		leaderBroker := c.broker(leader)
		pt := leaderBroker.Partition(name, int32(pi))
		if replicationFactor > 1 {
			if c.cfg.RDMAReplication {
				pt.pushRepl = newPushReplicator(leaderBroker, pt, false)
			} else {
				for _, id := range replicas[1:] {
					f := c.broker(id)
					f.startPullFetcher(f.Partition(name, int32(pi)))
				}
			}
		}
	}
	c.topics[name] = ct
	return nil
}

// LeaderOf returns the leader broker of a partition, or nil.
func (c *Cluster) LeaderOf(topic string, partition int32) *Broker {
	ct, ok := c.topics[topic]
	if !ok || int(partition) >= len(ct.parts) {
		return nil
	}
	return c.broker(ct.parts[partition].Leader)
}

// metadata builds a MetadataResp for the requested topics (all if empty).
func (c *Cluster) metadata(topics []string) *kwire.MetadataResp {
	resp := &kwire.MetadataResp{}
	if len(topics) == 0 {
		// Sorted so an all-topics response never leaks map iteration order
		// onto the wire (kdlint: maporder).
		for name := range c.topics {
			topics = append(topics, name)
		}
		sort.Strings(topics)
	}
	for _, name := range topics {
		ct, ok := c.topics[name]
		if !ok {
			resp.Topics = append(resp.Topics, kwire.TopicMeta{Name: name, Err: kwire.ErrUnknownTopic})
			continue
		}
		resp.Topics = append(resp.Topics, kwire.TopicMeta{Name: name, Partitions: ct.parts})
	}
	return resp
}

// addPartition instantiates partition state on a broker.
func (b *Broker) addPartition(topic string, idx int32, leader string, replicas []string) *Partition {
	ts, ok := b.topics[topic]
	if !ok {
		ts = &topicState{name: topic}
		b.topics[topic] = ts
	}
	for int32(len(ts.parts)) <= idx {
		ts.parts = append(ts.parts, nil)
	}
	pt := &Partition{
		broker:      b,
		topic:       topic,
		index:       idx,
		log:         newPartitionLog(b.cfg),
		leaderID:    leader,
		replicas:    replicas,
		lock:        sim.NewResource(1),
		followerLEO: make(map[string]int64),
		segWriteMRs: make(map[int]*rdma.MR),
		segReadMRs:  make(map[int]*rdma.MR),
		slotRefs:    make(map[int][]*slotRef),
		segReaders:  make(map[int]int),
	}
	ts.parts[idx] = pt
	return pt
}
