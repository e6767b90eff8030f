// Package fabric models the cluster network: a non-blocking switch fabric
// connecting nodes, each with a full-duplex NIC port of configurable
// bandwidth. It corresponds to the paper's 12-node 56 Gbit/s InfiniBand
// cluster (§5, "Settings"): usable link bandwidth ~6 GiB/s. There are no
// packets: a message is delivered whole, store-and-forward, so the paper's
// 2 KiB MTU (§4.3.2) is not modelled.
//
// The model is deliberately simple but captures the effects the paper's
// evaluation depends on:
//
//   - serialisation delay: a message occupies the sender's egress port for
//     size/bandwidth, so goodput saturates at link rate;
//   - receive-side contention: the receiver's ingress port is also paced, so
//     incast (many producers, one broker) bottlenecks correctly;
//   - propagation plus one store-and-forward hop of latency;
//   - per-flow in-order delivery, which the RDMA RC transport and the
//     KafkaDirect ordering protocol (§4.2.2) rely on.
package fabric

import (
	"fmt"
	"time"

	"kafkadirect/internal/bufpool"
	"kafkadirect/internal/obs"
	"kafkadirect/internal/sim"
)

// Config holds fabric-wide parameters.
type Config struct {
	// Bandwidth is the per-port link bandwidth in bytes per second.
	// The paper's network sustains about 6 GiB/s of goodput.
	Bandwidth float64
	// PropDelay is the one-way propagation (plus switch) delay.
	PropDelay time.Duration
	// MinFrame is the smallest on-wire frame: shorter messages are padded
	// to it (headers dominate tiny sends).
	MinFrame int
}

// DefaultConfig mirrors the paper's testbed: 56 Gbit/s ConnectX-4 (≈6 GiB/s
// goodput), ~0.6 µs one-way delay (a 1.5 µs WriteWithImm round trip once NIC
// processing is added, Fig. 7).
func DefaultConfig() Config {
	return Config{
		Bandwidth: 6 << 30, // 6 GiB/s
		PropDelay: 600 * time.Nanosecond,
		MinFrame:  64,
	}
}

// Network is the switch fabric. All nodes hang off one Network.
type Network struct {
	env  *sim.Env
	cfg  Config
	node map[string]*Node

	// cut holds severed node pairs (fault injection). Messages already on
	// the wire when a link is cut still arrive — the model severs future
	// transmissions only; transport layers (tcpnet, rdma) consult
	// Reachable and fail their endpoints, which is where loss surfaces.
	cut map[linkKey]bool

	// wire recycles in-flight message buffers (modeled kernel copies, RDMA
	// staging, encoded frames) for everything running on this fabric. One
	// free list per Network is safe without locks: a simulation runs one
	// process at a time, and each simulation owns its own Network.
	wire bufpool.List

	// onRelease are the teardown hooks of everything on this fabric that
	// holds a pooled rig-lifetime buffer (OnRelease).
	onRelease []func()

	// o is the simulation's telemetry bundle (nil when disabled). The
	// Network is the one object every layer of a deployment can reach, so
	// it also distributes the obs handle: tcpnet stacks, RNICs, brokers,
	// and clients fetch it at construction (SetObs must precede them).
	o *obs.Obs

	// Fabric-wide instruments (nil when disabled): message/byte totals and
	// port busy time, from which link utilization over a window follows.
	obsMsgs   *obs.Counter
	obsBytes  *obs.Counter
	obsTxBusy *obs.Counter
	obsRxBusy *obs.Counter
}

// linkKey names an unordered node pair.
type linkKey struct{ a, b string }

func keyFor(a, b *Node) linkKey {
	if a.name > b.name {
		a, b = b, a
	}
	return linkKey{a.name, b.name}
}

// New creates a fabric on the given simulation environment.
func New(env *sim.Env, cfg Config) *Network {
	if cfg.Bandwidth <= 0 {
		panic("fabric: bandwidth must be positive")
	}
	if cfg.MinFrame <= 0 {
		cfg.MinFrame = 64
	}
	return &Network{env: env, cfg: cfg, node: make(map[string]*Node)}
}

// Env returns the simulation environment the fabric runs on.
func (n *Network) Env() *sim.Env { return n.env }

// SetObs enables telemetry on the fabric and everything built on top of it.
// Call once, right after New and before any node, stack, device, or broker
// is created — downstream layers cache their instrument handles at
// construction. A nil handle (the default) disables telemetry; all
// instrumented call sites degrade to nil checks (the zero-perturbation
// contract, obs package docs).
func (n *Network) SetObs(o *obs.Obs) {
	n.o = o
	n.obsMsgs = o.Counter("fabric/msgs")
	n.obsBytes = o.Counter("fabric/bytes")
	n.obsTxBusy = o.Counter("fabric/tx_busy_ns")
	n.obsRxBusy = o.Counter("fabric/rx_busy_ns")
}

// Obs returns the fabric's telemetry bundle (nil when disabled).
func (n *Network) Obs() *obs.Obs { return n.o }

// Config returns the fabric configuration.
func (n *Network) Config() Config { return n.cfg }

// WireBufs returns the fabric-wide free list for in-flight message buffers.
// Buffers from it are not zeroed; see bufpool.List.
func (n *Network) WireBufs() *bufpool.List { return &n.wire }

// OnRelease registers fn to run at Release. Whatever draws a buffer that
// lives as long as the deployment from the process-wide pool (a receive
// ring, a verbs target region) registers the function that returns it here,
// so that one call tears down a rig however it was assembled.
func (n *Network) OnRelease(fn func()) { n.onRelease = append(n.onRelease, fn) }

// Release returns every pooled buffer of the deployment to the process-wide
// pool: it runs the OnRelease hooks, then hands back the large classes of
// the wire free list. Call it only after the simulation has shut down — no
// process or scheduled delivery may still touch a buffer — and build nothing
// further on the Network afterwards.
func (n *Network) Release() {
	for _, fn := range n.onRelease {
		fn()
	}
	n.onRelease = nil
	n.wire.Release()
}

// CutLink severs the link between two nodes: subsequent Reachable calls for
// the pair report false until RestoreLink. The fabric itself keeps delivering
// messages already handed to Deliver — transports are expected to consult
// Reachable before transmitting and to fail their endpoints on a cut.
func (n *Network) CutLink(a, b *Node) {
	if n.cut == nil {
		n.cut = make(map[linkKey]bool)
	}
	n.cut[keyFor(a, b)] = true
}

// RestoreLink undoes CutLink for the pair.
func (n *Network) RestoreLink(a, b *Node) {
	delete(n.cut, keyFor(a, b))
}

// Reachable reports whether traffic between the two nodes can currently flow:
// both ends up and the link between them not cut. A node always reaches
// itself while it is up (loopback).
func (n *Network) Reachable(a, b *Node) bool {
	if a.down || b.down {
		return false
	}
	if a == b || n.cut == nil {
		return true
	}
	return !n.cut[keyFor(a, b)]
}

// Node is a machine attached to the fabric through one full-duplex port.
type Node struct {
	name string
	net  *Network
	tx   sim.Pacer // egress port occupancy
	rx   sim.Pacer // ingress port occupancy
	down bool      // crashed (fault injection)

	// track is the node's tracer track id (-1 when tracing is disabled);
	// layers hosted on the node (RNIC, TCP host, broker threads) emit
	// their spans onto it.
	track int32
}

// NewNode registers a node with a unique name.
func (n *Network) NewNode(name string) *Node {
	if _, dup := n.node[name]; dup {
		panic(fmt.Sprintf("fabric: duplicate node %q", name))
	}
	nd := &Node{name: name, net: n, track: n.o.Track(name)}
	n.node[name] = nd
	return nd
}

// Lookup returns the node registered under name, or nil.
func (n *Network) Lookup(name string) *Node { return n.node[name] }

// Name returns the node's name.
func (nd *Node) Name() string { return nd.name }

// Network returns the fabric the node is attached to.
func (nd *Node) Network() *Network { return nd.net }

// Track returns the node's tracer track id (-1 when tracing is disabled).
func (nd *Node) Track() int32 { return nd.track }

// SetDown marks the node crashed (or recovered). While down the node is
// unreachable from every other node; its port pacers are left untouched so a
// restart resumes with the same contention state.
func (nd *Node) SetDown(down bool) { nd.down = down }

// serTime returns the serialisation delay of a message of the given size.
func (n *Network) serTime(bytes int) time.Duration {
	if bytes < n.cfg.MinFrame {
		bytes = n.cfg.MinFrame
	}
	return time.Duration(float64(bytes) / n.cfg.Bandwidth * 1e9)
}

// Deliver transmits size bytes from one node to another and runs onArrive (in
// scheduler context; it must not block, typically it pushes into a queue) at
// the delivery time, which is also returned. Successive Deliver calls for the
// same (from, to) pair arrive in call order.
//
// Loopback (from == to) skips the wire entirely: the paper's brokers issue
// RDMA atomics "to themselves" (§4.2.2), which still pay NIC processing (the
// caller models that) but no link time.
func (n *Network) Deliver(from, to *Node, size int, onArrive func()) time.Duration {
	arrive := n.reserve(from, to, size)
	n.env.At(arrive, onArrive)
	return arrive
}

// DeliverArg is Deliver for allocation-free hot paths: onArrive is a shared
// function applied to a pooled argument record (see sim.Env.AtArg), so no
// closure is allocated per message.
func (n *Network) DeliverArg(from, to *Node, size int, onArrive func(any), arg any) time.Duration {
	arrive := n.reserve(from, to, size)
	n.env.AtArg(arrive, onArrive, arg)
	return arrive
}

// reserve books the ports for a transfer and returns its arrival time.
func (n *Network) reserve(from, to *Node, size int) time.Duration {
	now := n.env.Now()
	if from == to {
		// Loopback fast path: no port pacing or wire time; arrival is
		// scheduled at the current instant.
		return now
	}
	ser := n.serTime(size)
	txEnd := from.tx.Reserve(now, ser)
	// The receive port is busy for the serialisation time as well; the
	// earliest the message can finish arriving is one propagation delay
	// after it finished leaving (store-and-forward at message granularity).
	rxStart := txEnd + n.cfg.PropDelay - ser
	arrive := to.rx.Reserve(rxStart, ser)
	// Telemetry: pure recording, never a schedule (zero-perturbation).
	// Busy time is the pacer occupancy each reservation added, so the
	// counters sum to total port-busy nanoseconds; link utilization over a
	// window is busy/elapsed.
	n.obsMsgs.Inc()
	n.obsBytes.Add(uint64(size))
	n.obsTxBusy.AddDur(ser)
	n.obsRxBusy.AddDur(ser)
	if t := n.o.Tracer(); t != nil {
		t.Emit(from.track, "wire", "fabric", now, arrive)
	}
	return arrive
}
