// Sharded fabric: the switch-fabric model running on a sim.ShardGroup, with
// nodes partitioned across shards. Same capacity model as Network — paced
// egress and ingress ports, propagation delay, store-and-forward at message
// granularity — but every inter-node message becomes a cross-shard handoff:
//
//   - the SENDER's shard books the egress port and computes the earliest
//     arrival start (txEnd + PropDelay − ser), then posts a handoff keyed by
//     (ready time, sender rank, sender sequence);
//   - the RECEIVER's shard books the ingress port when the handoff drains at
//     the next window boundary, in canonical key order, and schedules the
//     arrival callback on its own event heap.
//
// Splitting the reservation this way keeps both pacers strictly shard-local
// while reproducing the base model's contention behaviour, and — because
// drains are canonically ordered and ALL inter-node messages take this path,
// even between nodes that share a shard — the simulation is byte-identical
// for every shard count.
//
// The group's lookahead must not exceed PropDelay: it is exactly the
// guarantee that a message sent now cannot affect another shard sooner than
// one propagation delay from now.
//
// Fault state (node down, link cut) is replicated per shard and flipped by
// canonical broadcasts at the fault's virtual time, so every shard observes
// the same topology at every instant without sharing memory.
package fabric

import (
	"fmt"
	"time"

	"kafkadirect/internal/obs"
	"kafkadirect/internal/sim"
)

// ShardedNet is the sharded switch fabric.
type ShardedNet struct {
	g    *sim.ShardGroup
	cfg  Config
	node map[string]*SNode
	rank uint64 // next node rank (1-based; 0 is the broadcast rank)
	fseq uint64 // canonical sequence for fault/control broadcasts

	// views[shard] is that shard's replica of the fault topology.
	views []linkView

	// pools[shard] is the free list of in-flight delivery records owned by
	// shard. Records are taken by the sending shard and released into the
	// RECEIVING shard's pool at drain, so every pool access is shard-local.
	pools [][]*snDeliver

	// Per-shard telemetry, attached by SetObs. Each shard's instruments are
	// touched only by code running on that shard (DeliverArg on the sender's,
	// deliverStep on the receiver's), so no lock is needed; MergedRegistry
	// folds them in shard-index order after the run. The handle slices are
	// always g.Shards() long — nil elements record nothing.
	obsShards []*obs.Obs
	obsMsgs   []*obs.Counter
	obsBytes  []*obs.Counter
	obsTxBusy []*obs.Counter
	obsRxBusy []*obs.Counter
}

type linkView struct {
	down map[string]bool
	cut  map[linkKey]bool
}

// snDeliver is one in-flight message: everything the destination shard needs
// to finish the delivery at drain time.
type snDeliver struct {
	net   *ShardedNet
	to    *SNode
	ready sim.Time // earliest arrival start (tx done + propagation)
	ser   sim.Time // ingress port occupancy
	size  int
	fn    func()
	fnArg func(any)
	arg   any
}

// SNode is a machine attached to the sharded fabric, pinned to one shard.
// All of its state — port pacers, byte counters, handoff sequence — is owned
// by that shard.
type SNode struct {
	name  string
	net   *ShardedNet
	shard int
	rank  uint64
	seq   uint64    // per-node handoff sequence (canonical ordering key)
	tx    sim.Pacer // egress port occupancy
	rx    sim.Pacer // ingress port occupancy

	txBytes uint64
	rxBytes uint64
}

// NewSharded creates a fabric spanning the group's shards. The group's
// lookahead must be positive and at most cfg.PropDelay — the fabric's
// propagation delay is precisely what licenses the conservative window.
func NewSharded(g *sim.ShardGroup, cfg Config) *ShardedNet {
	if cfg.Bandwidth <= 0 {
		panic("fabric: bandwidth must be positive")
	}
	if cfg.PacketSize <= 0 {
		cfg.PacketSize = 2048
	}
	if cfg.MinFrame <= 0 {
		cfg.MinFrame = 64
	}
	if g.Lookahead() > cfg.PropDelay {
		panic(fmt.Sprintf("fabric: shard lookahead %v exceeds propagation delay %v; cross-shard causality would be violated", g.Lookahead(), cfg.PropDelay))
	}
	n := &ShardedNet{
		g:     g,
		cfg:   cfg,
		node:  make(map[string]*SNode),
		views: make([]linkView, g.Shards()),
		pools: make([][]*snDeliver, g.Shards()),
	}
	for i := range n.views {
		n.views[i] = linkView{down: make(map[string]bool), cut: make(map[linkKey]bool)}
	}
	s := g.Shards()
	n.obsShards = make([]*obs.Obs, s)
	n.obsMsgs = make([]*obs.Counter, s)
	n.obsBytes = make([]*obs.Counter, s)
	n.obsTxBusy = make([]*obs.Counter, s)
	n.obsRxBusy = make([]*obs.Counter, s)
	return n
}

// SetObs attaches one private registry per shard (index = shard). Every
// instrument stays shard-local, so the parallel kernel never contends on
// telemetry; a missing (nil) entry leaves that shard unobserved. Call before
// the run starts.
func (n *ShardedNet) SetObs(per []*obs.Obs) {
	for s := 0; s < len(n.obsShards) && s < len(per); s++ {
		o := per[s]
		n.obsShards[s] = o
		n.obsMsgs[s] = o.Counter("fabric/msgs")
		n.obsBytes[s] = o.Counter("fabric/bytes")
		n.obsTxBusy[s] = o.Counter("fabric/tx_busy_ns")
		n.obsRxBusy[s] = o.Counter("fabric/rx_busy_ns")
	}
}

// ShardObs returns shard's registry bundle (nil without SetObs).
func (n *ShardedNet) ShardObs(shard int) *obs.Obs { return n.obsShards[shard] }

// MergedRegistry folds every shard's registry into one, in shard-index
// order — the canonical merge that makes the aggregate independent of how
// shards interleaved at runtime. Call only after the run has stopped.
func (n *ShardedNet) MergedRegistry() *obs.Registry {
	out := obs.NewRegistry()
	for _, o := range n.obsShards {
		if o != nil {
			out.MergeFrom(o.Reg)
		}
	}
	return out
}

// Group returns the shard group the fabric runs on.
func (n *ShardedNet) Group() *sim.ShardGroup { return n.g }

// Config returns the fabric configuration.
func (n *ShardedNet) Config() Config { return n.cfg }

// NewNode registers a node on the given shard. Nodes must be created in a
// deterministic order (the creation rank is the canonical tie-breaker for
// simultaneous messages) and before the simulation runs.
func (n *ShardedNet) NewNode(name string, shard int) *SNode {
	if _, dup := n.node[name]; dup {
		panic(fmt.Sprintf("fabric: duplicate node %q", name))
	}
	n.rank++
	nd := &SNode{name: name, net: n, shard: shard, rank: n.rank}
	n.node[name] = nd
	return nd
}

// Lookup returns the node registered under name, or nil.
func (n *ShardedNet) Lookup(name string) *SNode { return n.node[name] }

// Name returns the node's name.
func (nd *SNode) Name() string { return nd.name }

// Shard returns the shard the node is pinned to.
func (nd *SNode) Shard() int { return nd.shard }

// Env returns the node's shard environment; all of the node's processes and
// events must run on it.
func (nd *SNode) Env() *sim.Env { return nd.net.g.Shard(nd.shard) }

// Rand returns a deterministic random stream keyed by the node's identity:
// independent of shard layout and execution order.
func (nd *SNode) Rand(seed int64) interface{ Int63n(int64) int64 } {
	return sim.KeyedRand(seed, nd.name)
}

// TxBytes and RxBytes report cumulative traffic counters. Each is owned by
// the node's shard; read them only from that shard or after the run.
func (nd *SNode) TxBytes() uint64 { return nd.txBytes }
func (nd *SNode) RxBytes() uint64 { return nd.rxBytes }

// Down reports whether the node is crashed, as observed by its own shard.
func (nd *SNode) Down() bool { return nd.net.views[nd.shard].down[nd.name] }

// serTime returns the serialisation delay of a message of the given size.
func (n *ShardedNet) serTime(bytes int) time.Duration {
	if bytes < n.cfg.MinFrame {
		bytes = n.cfg.MinFrame
	}
	return time.Duration(float64(bytes) / n.cfg.Bandwidth * 1e9)
}

// Reachable reports whether traffic can flow between the nodes, according to
// the topology replica of from's shard. Call it only from from's shard.
func (n *ShardedNet) Reachable(from, to *SNode) bool {
	v := &n.views[from.shard]
	if v.down[from.name] || v.down[to.name] {
		return false
	}
	if from == to {
		return true
	}
	return !v.cut[skeyFor(from, to)]
}

func skeyFor(a, b *SNode) linkKey {
	if a.name > b.name {
		a, b = b, a
	}
	return linkKey{a.name, b.name}
}

// take pops a delivery record from shard's free list (or allocates).
func (n *ShardedNet) take(shard int) *snDeliver {
	p := n.pools[shard]
	if len(p) == 0 {
		return &snDeliver{net: n}
	}
	d := p[len(p)-1]
	n.pools[shard] = p[:len(p)-1]
	return d
}

// DeliverArg transmits size bytes from one node to another and runs
// onArrive(arg) on the DESTINATION shard at the delivery time — in scheduler
// context; it must not block, typically it pushes into a queue. Successive
// sends from one node arrive in canonical (ready, rank, seq) order. Must be
// called from from's shard. onArrive must be a shared function so the hot
// path allocates nothing (the argument record is pooled).
//
// Loopback (from == to) skips the wire and arrives at the current instant,
// matching Network.Deliver.
func (n *ShardedNet) DeliverArg(from, to *SNode, size int, onArrive func(any), arg any) {
	// The caller's own shard; the only cross-shard reach is the PostArg below.
	env := n.g.Shard(from.shard)
	now := env.Now()
	from.txBytes += uint64(size)
	if from == to {
		from.rxBytes += uint64(size)
		env.AtArg(now, onArrive, arg)
		return
	}
	ser := n.serTime(size)
	txEnd := from.tx.Reserve(now, ser)
	ready := txEnd + n.cfg.PropDelay - ser
	n.obsMsgs[from.shard].Inc()
	n.obsBytes[from.shard].Add(uint64(size))
	n.obsTxBusy[from.shard].AddDur(ser)
	d := n.take(from.shard)
	d.to, d.ready, d.ser, d.size = to, ready, ser, size
	d.fn, d.fnArg, d.arg = nil, onArrive, arg
	from.seq++
	n.g.PostArg(from.shard, to.shard, ready, from.rank, from.seq, deliverStep, d)
}

// Deliver is DeliverArg with a plain callback (cold paths; the closure is the
// caller's allocation).
func (n *ShardedNet) Deliver(from, to *SNode, size int, onArrive func()) {
	env := n.g.Shard(from.shard)
	now := env.Now()
	from.txBytes += uint64(size)
	if from == to {
		from.rxBytes += uint64(size)
		env.At(now, onArrive)
		return
	}
	ser := n.serTime(size)
	txEnd := from.tx.Reserve(now, ser)
	ready := txEnd + n.cfg.PropDelay - ser
	n.obsMsgs[from.shard].Inc()
	n.obsBytes[from.shard].Add(uint64(size))
	n.obsTxBusy[from.shard].AddDur(ser)
	d := n.take(from.shard)
	d.to, d.ready, d.ser, d.size = to, ready, ser, size
	d.fn, d.fnArg, d.arg = onArrive, nil, nil
	from.seq++
	n.g.PostArg(from.shard, to.shard, ready, from.rank, from.seq, deliverStep, d)
}

// deliverStep finishes a delivery on the destination shard at drain time:
// books the ingress port (in canonical drain order, which makes receive-side
// contention deterministic), schedules the arrival, and recycles the record
// into the destination's pool.
func deliverStep(a any) {
	d := a.(*snDeliver)
	to := d.to
	arrive := to.rx.Reserve(d.ready, d.ser)
	to.rxBytes += uint64(d.size)
	d.net.obsRxBusy[to.shard].AddDur(d.ser)
	env := d.net.g.Shard(to.shard)
	if d.fn != nil {
		env.At(arrive, d.fn)
	} else {
		env.AtArg(arrive, d.fnArg, d.arg)
	}
	n := d.net
	d.to, d.fn, d.fnArg, d.arg = nil, nil, nil, nil
	n.pools[to.shard] = append(n.pools[to.shard], d)
}

// ScheduleBroadcast schedules fn(shard) to run once on every shard at
// virtual time at, in a canonical order shared with fault scheduling. Models
// use it (before the run starts) for control-plane state that must flip on
// every shard at the same instant. fn runs as an ordinary event on each
// shard's heap; it must only mutate that shard's replicas.
func (n *ShardedNet) ScheduleBroadcast(at sim.Time, fn func(shard int)) {
	n.fseq++
	n.g.Broadcast(at, n.fseq, func(shard int) {
		// Runs on shard between windows, so this schedules onto its own kernel.
		n.g.Shard(shard).At(at, func() { fn(shard) })
	})
}

// ScheduleSetDown marks the node crashed (or recovered) at virtual time at,
// on every shard's topology replica. Like CutLink on the base fabric,
// messages already on the wire still arrive; loss surfaces in the layers
// that consult Reachable. Must be called before the run starts.
func (n *ShardedNet) ScheduleSetDown(at sim.Time, nd *SNode, down bool) {
	name := nd.name
	n.ScheduleBroadcast(at, func(shard int) {
		n.views[shard].down[name] = down
	})
}

// ScheduleCutLink severs the link between two nodes at virtual time at, on
// every shard's replica. Must be called before the run starts.
func (n *ShardedNet) ScheduleCutLink(at sim.Time, a, b *SNode) {
	k := skeyFor(a, b)
	n.ScheduleBroadcast(at, func(shard int) {
		n.views[shard].cut[k] = true
	})
}

// ScheduleRestoreLink undoes ScheduleCutLink at virtual time at.
func (n *ShardedNet) ScheduleRestoreLink(at sim.Time, a, b *SNode) {
	k := skeyFor(a, b)
	n.ScheduleBroadcast(at, func(shard int) {
		delete(n.views[shard].cut, k)
	})
}
