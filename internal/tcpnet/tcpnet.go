// Package tcpnet models the kernel TCP/IP stack the original Kafka uses
// (deployed over IPoIB in the paper's testbed, §5 "Settings"), running over
// the same fabric as the RDMA simulator so comparisons are apples-to-apples.
//
// The stack is message-oriented (each Send delivers one framed message, like
// one Kafka request on a connection) and charges the host costs the paper
// identifies as the TCP datapath's handicap (§4.2.1):
//
//   - a per-message kernel dispatch cost on each side (system call, softirq,
//     and the wakeup of a thread blocked in poll);
//   - a user→kernel copy at the sender;
//   - a kernel→application copy at the receiver ("the driver copies all
//     received messages from its receive buffers to Kafka's receive
//     buffers") — charged to the process that calls Recv, which in a broker
//     is a network processor thread;
//
// The second broker-side copy ("from the network receive buffer to the file
// buffer", §4.2.1) belongs to the application and is charged by the broker's
// API workers, not here.
package tcpnet

import (
	"errors"
	"fmt"
	"time"

	"kafkadirect/internal/fabric"
	"kafkadirect/internal/obs"
	"kafkadirect/internal/sim"
)

// Config holds the host-side cost parameters of the stack.
type Config struct {
	// SendOverhead is the fixed per-message cost of handing a message to
	// the kernel (syscall + protocol processing).
	SendOverhead time.Duration
	// RecvOverhead is the fixed per-message cost of receiving (interrupt,
	// protocol processing, waking the blocked reader).
	RecvOverhead time.Duration
	// CopyBandwidth is the memcpy bandwidth for kernel/user crossings,
	// bytes per second.
	CopyBandwidth float64
	// DeliveryLatency is extra per-message latency between wire arrival and
	// the receiver seeing the message: interrupt coalescing and the wakeup
	// of a thread blocked in poll. Unlike the overheads above it consumes
	// no CPU, so it hurts round trips but not pipelined throughput.
	DeliveryLatency time.Duration
	// HeaderBytes is the per-message on-wire framing overhead.
	HeaderBytes int
}

// DefaultConfig calibrates the stack so that an empty Kafka fetch RPC costs
// ≥200 µs round trip (§5.3) and the TCP network module saturates at around
// 53 K requests/s with three network threads (§5.3).
func DefaultConfig() Config {
	return Config{
		SendOverhead:    18 * time.Microsecond,
		RecvOverhead:    30 * time.Microsecond,
		CopyBandwidth:   5 << 30, // 5 GiB/s effective memcpy
		DeliveryLatency: 35 * time.Microsecond,
		HeaderBytes:     66,
	}
}

// Errors returned by connection operations.
var (
	ErrClosed      = errors.New("tcpnet: connection closed")
	ErrNoListener  = errors.New("tcpnet: connection refused")
	ErrUnreachable = errors.New("tcpnet: host unreachable")
)

// Stack is the TCP/IP subsystem shared by all hosts on a fabric.
type Stack struct {
	net *fabric.Network
	cfg Config

	txFree []*transit // idle in-flight records (transmit)

	// Telemetry handles, cached from the fabric's obs bundle at
	// construction (all nil when telemetry is disabled). The stage
	// histograms tile a message's path through the stack: the send-side
	// kernel cost, wire + delivery latency, socket-buffer wait, and the
	// receive-side kernel cost (DESIGN.md §10).
	o          *obs.Obs
	stSend     *obs.Histogram // stage/tcp_send: syscall + user→kernel copy
	stWire     *obs.Histogram // stage/tcp_wire: wire time + delivery latency
	stSockWait *obs.Histogram // stage/tcp_sock_wait: inbox residency until pop
	stRecv     *obs.Histogram // stage/tcp_recv: recv dispatch + kernel→user copy
	obsMsgs    *obs.Counter   // tcp/msgs: framed messages sent
	obsCopied  *obs.Counter   // tcp/kernel_copy_bytes: modeled kernel copies
}

// NewStack creates a stack over the given fabric.
func NewStack(net *fabric.Network, cfg Config) *Stack {
	if cfg.CopyBandwidth <= 0 {
		panic("tcpnet: copy bandwidth must be positive")
	}
	o := net.Obs()
	return &Stack{
		net:        net,
		cfg:        cfg,
		o:          o,
		stSend:     o.Histogram("stage/tcp_send"),
		stWire:     o.Histogram("stage/tcp_wire"),
		stSockWait: o.Histogram("stage/tcp_sock_wait"),
		stRecv:     o.Histogram("stage/tcp_recv"),
		obsMsgs:    o.Counter("tcp/msgs"),
		obsCopied:  o.Counter("tcp/kernel_copy_bytes"),
	}
}

// Config returns the stack configuration.
func (s *Stack) Config() Config { return s.cfg }

// copyTime is the duration of copying n bytes across a kernel boundary.
func (s *Stack) copyTime(n int) time.Duration {
	return time.Duration(float64(n) / s.cfg.CopyBandwidth * 1e9)
}

// Host is a machine's TCP endpoint set.
type Host struct {
	stack     *Stack
	node      *fabric.Node
	listeners map[int]*Listener
	conns     []*Conn // every conn ever owned by this host (fault injection)
}

// NewHost attaches a TCP host to a fabric node.
func (s *Stack) NewHost(node *fabric.Node) *Host {
	return &Host{stack: s, node: node, listeners: make(map[int]*Listener)}
}

// Node returns the underlying fabric node.
func (h *Host) Node() *fabric.Node { return h.node }

// Listener accepts inbound connections on a port.
type Listener struct {
	host *Host
	port int
	q    *sim.Queue[*Conn]
}

// Listen opens a listener on the given port.
func (h *Host) Listen(port int) (*Listener, error) {
	if _, dup := h.listeners[port]; dup {
		return nil, fmt.Errorf("tcpnet: port %d already in use on %s", port, h.node.Name())
	}
	l := &Listener{host: h, port: port, q: sim.NewQueue[*Conn]()}
	h.listeners[port] = l
	return l, nil
}

// Accept blocks until an inbound connection arrives.
func (l *Listener) Accept(p *sim.Proc) *Conn { return l.q.Pop(p) }

// Conn is one side of an established connection.
type Conn struct {
	host   *Host
	peer   *Conn
	inbox  *sim.Queue[message]
	closed bool
}

type message struct {
	data   []byte
	closed bool
	// Telemetry stamps (simulated time; unused when telemetry is off):
	// sentAt is when the message left the sender's kernel, arrivedAt when
	// it was pushed into the receiver's socket buffer.
	sentAt    time.Duration
	arrivedAt time.Duration
}

// Dial establishes a connection to a listener, costing one handshake round
// trip of virtual time.
func (h *Host) Dial(p *sim.Proc, remote *Host, port int) (*Conn, error) {
	if !h.stack.net.Reachable(h.node, remote.node) {
		return nil, ErrUnreachable
	}
	l, ok := remote.listeners[port]
	if !ok {
		return nil, ErrNoListener
	}
	s := h.stack
	// SYN / SYN-ACK round trip plus connection setup cost on both hosts.
	p.Sleep(s.cfg.SendOverhead)
	done := sim.NewQueue[struct{}]()
	s.net.Deliver(h.node, remote.node, s.cfg.HeaderBytes, func() {
		s.net.Deliver(remote.node, h.node, s.cfg.HeaderBytes, func() {
			done.Push(struct{}{})
		})
	})
	done.Pop(p)
	p.Sleep(s.cfg.RecvOverhead)

	local := &Conn{host: h, inbox: sim.NewQueue[message]()}
	rem := &Conn{host: remote, inbox: sim.NewQueue[message]()}
	local.peer, rem.peer = rem, local
	h.conns = append(h.conns, local)
	remote.conns = append(remote.conns, rem)
	l.q.Push(rem)
	return local, nil
}

// Conns returns every connection ever owned by the host (both dialed and
// accepted sides), in establishment order. Fault injectors use it to pick
// victims deterministically; closed conns stay in the list.
func (h *Host) Conns() []*Conn { return h.conns }

// ResetConns abruptly resets every open connection owned by the host, as a
// host crash does: both sides observe ErrClosed on their next operation, with
// no FIN exchanged over the wire.
func (h *Host) ResetConns() {
	for _, c := range h.conns {
		c.Reset()
	}
}

// Host returns the host that owns this side of the connection.
func (c *Conn) Host() *Host { return c.host }

// Send transmits one framed message. The calling process is charged the
// send-side kernel cost (dispatch plus the user→kernel copy); delivery into
// the peer's socket buffer happens asynchronously after wire time. Messages
// on one connection arrive in order. The payload is copied, so the caller
// may reuse the buffer immediately — this is exactly the defensive copy the
// kernel performs, and one of the copies RDMA avoids.
func (c *Conn) Send(p *sim.Proc, data []byte) error {
	// peer.closed stands in for the RST the kernel would have delivered by
	// now: a real sender learns of the close from its own stack.
	if c.closed || c.peer.closed {
		return ErrClosed
	}
	if !c.host.stack.net.Reachable(c.host.node, c.peer.host.node) {
		return ErrClosed
	}
	s := c.host.stack
	start := p.Now()
	p.Sleep(s.cfg.SendOverhead + s.copyTime(len(data)))
	sentAt := p.Now()
	s.stSend.ObserveDur(sentAt - start)
	s.o.Tracer().Emit(c.host.node.Track(), "tcp.send", "tcp", start, sentAt)
	c.transmit(data, sentAt)
	return nil
}

// transit carries one message from transmit to the peer's inbox. Records are
// free-listed on the stack, so a message in flight costs no closure.
type transit struct {
	to  *Conn
	msg message
}

// transmit is the tail Send and SendRaw share: the modeled kernel copy, then
// the wire (txArrived) and the receive-side delivery latency (txDelivered).
func (c *Conn) transmit(data []byte, sentAt time.Duration) {
	s := c.host.stack
	kernelCopy := s.net.WireBufs().Get(len(data))
	copy(kernelCopy, data)
	s.obsMsgs.Inc()
	s.obsCopied.Add(uint64(len(data)))
	var tx *transit
	if n := len(s.txFree); n > 0 {
		tx, s.txFree = s.txFree[n-1], s.txFree[:n-1]
	} else {
		tx = new(transit)
	}
	tx.to, tx.msg = c.peer, message{data: kernelCopy, sentAt: sentAt}
	s.net.DeliverArg(c.host.node, c.peer.host.node, len(data)+s.cfg.HeaderBytes, txArrived, tx)
}

func txArrived(v any) {
	s := v.(*transit).to.peer.host.stack
	s.net.Env().AfterArg(s.cfg.DeliveryLatency, txDelivered, v)
}

func txDelivered(v any) {
	tx := v.(*transit)
	to, m := tx.to, tx.msg
	s := to.peer.host.stack
	*tx = transit{}
	s.txFree = append(s.txFree, tx)
	m.arrivedAt = s.net.Env().Now()
	s.stWire.ObserveDur(m.arrivedAt - m.sentAt)
	s.o.Tracer().Emit(to.host.node.Track(), "tcp.wire", "tcp", m.sentAt, m.arrivedAt)
	to.inbox.Push(m)
}

// Recv blocks until a message is available and returns it, charging the
// receive-side kernel cost (dispatch plus the kernel→application copy) to
// the calling process.
func (c *Conn) Recv(p *sim.Proc) ([]byte, error) {
	if c.closed {
		return nil, ErrClosed
	}
	m := c.inbox.Pop(p)
	if m.closed {
		// Leave a persistent close marker for subsequent readers.
		c.inbox.Push(m)
		return nil, ErrClosed
	}
	s := c.host.stack
	popNow := p.Now()
	s.stSockWait.ObserveDur(popNow - m.arrivedAt)
	p.Sleep(s.cfg.RecvOverhead + s.copyTime(len(m.data)))
	end := p.Now()
	s.stRecv.ObserveDur(end - popNow)
	s.o.Tracer().Emit(c.host.node.Track(), "tcp.recv", "tcp", popNow, end)
	return m.data, nil
}

// RecvRaw blocks until a message arrives but charges NO receive cost: broker
// network-processor threads use it together with RecvCost and a shared
// thread-pool resource, so that the per-message kernel cost lands on the
// thread pool rather than on a per-connection process.
func (c *Conn) RecvRaw(p *sim.Proc) ([]byte, error) {
	if c.closed {
		return nil, ErrClosed
	}
	m := c.inbox.Pop(p)
	if m.closed {
		c.inbox.Push(m)
		return nil, ErrClosed
	}
	c.host.stack.stSockWait.ObserveDur(p.Now() - m.arrivedAt)
	return m.data, nil
}

// SendRaw transmits a message without charging the caller: the caller models
// the send-side cost itself via SendCost. Usable from scheduler context.
func (c *Conn) SendRaw(data []byte) error {
	if c.closed || c.peer.closed { // see Send
		return ErrClosed
	}
	if !c.host.stack.net.Reachable(c.host.node, c.peer.host.node) {
		return ErrClosed
	}
	c.transmit(data, c.host.stack.net.Env().Now())
	return nil
}

// Recycle returns a buffer obtained from Recv/RecvRaw to the
// fabric's wire-buffer free list. Optional: receivers that are done with a
// message (e.g. after decoding it) call this so the modeled kernel copy of
// the next message reuses the memory. The caller must drop every reference
// to buf.
func (c *Conn) Recycle(buf []byte) {
	c.host.stack.net.WireBufs().Put(buf)
}

// SendCost returns the send-side host cost for a message of n bytes; used
// with SendRaw.
func (c *Conn) SendCost(n int) time.Duration {
	s := c.host.stack
	return s.cfg.SendOverhead + s.copyTime(n)
}

// RecvCost returns the receive-side cost for a message of n bytes; used with
// RecvRaw.
func (c *Conn) RecvCost(n int) time.Duration {
	s := c.host.stack
	return s.cfg.RecvOverhead + s.copyTime(n)
}

// Close shuts the connection down; the peer's next Recv (after in-flight
// messages drain) returns ErrClosed.
func (c *Conn) Close() {
	if c.closed {
		return
	}
	c.closed = true
	peer := c.peer
	s := c.host.stack
	s.net.Deliver(c.host.node, peer.host.node, s.cfg.HeaderBytes, func() {
		s.net.Env().After(s.cfg.DeliveryLatency, func() {
			peer.inbox.Push(message{closed: true})
		})
	})
}

// Reset tears the connection down immediately on both sides, like a TCP RST
// after a host crash or an injected fault: no FIN crosses the wire, readers
// parked on either inbox wake with ErrClosed, and in-flight data still in the
// socket buffers is discarded by subsequent reads.
func (c *Conn) Reset() {
	if c.closed && c.peer.closed {
		return
	}
	for _, side := range [2]*Conn{c, c.peer} {
		side.closed = true
		side.inbox.Push(message{closed: true})
	}
}

// Peer returns the other side of the connection.
func (c *Conn) Peer() *Conn { return c.peer }

// Closed reports whether this side has been closed locally.
func (c *Conn) Closed() bool { return c.closed }
