// Package client implements the client stacks the paper evaluates against
// each other (§5 "Implementation"). Each operation is written once and the
// stacks differ only in what carries it:
//
//   - produce is one pipeline (batch building, the sync/async window, the
//     ack loop, the retry loop) over a four-verb link. The RPC link sends a
//     ProduceReq over a Transport — the kernel TCP stack for the original
//     Kafka client, two-sided RDMA Send/Recv with receive-buffer copies for
//     OSU Kafka [33]. The one-sided link is KafkaDirect's (§4.2.2): reserve
//     a region of the broker's TP file (locally in exclusive mode, with a
//     Fetch-and-Add in shared mode), WriteWithImm the batch into it, and
//     take the ack from the receive queue;
//   - classic fetch is RPCConsumer, again over either Transport;
//   - one-sided fetch (§4.4.2) is a read session with one cursor per
//     partition: one RDMA Read refreshes the metadata slots, further Reads
//     pull file bytes, and the broker CPU is never involved. RDMAConsumer
//     is a session with a single cursor, MultiRDMAConsumer one with many
//     (Fig. 9);
//   - every control-plane request/response (access grants, file releases,
//     offset commits, the group protocol) goes through one exchange helper.
//
// The client-side cost model mirrors §5.1's breakdown of the 88 µs produce
// overhead: the defensive copy of user data, the client's API↔network
// thread handoffs, and blocking-poll wakeups.
package client

import (
	"errors"
	"fmt"
	"time"

	"kafkadirect/internal/core"
	"kafkadirect/internal/fabric"
	"kafkadirect/internal/kwire"
	"kafkadirect/internal/obs"
	"kafkadirect/internal/rdma"
	"kafkadirect/internal/sim"
	"kafkadirect/internal/tcpnet"
)

// Config is the client-side cost and behaviour model.
type Config struct {
	// ProduceCPU is the fixed CPU work to assemble and dispatch one produce.
	ProduceCPU time.Duration
	// ProduceWakeup is the non-CPU latency of a synchronous produce: client
	// thread handoffs and blocking-poll wakeups (§5.1). Pipelined producers
	// overlap it.
	ProduceWakeup time.Duration
	// CopyBandwidth covers the producer's defensive copy of user data and
	// the consumer's copy into "native" result buffers (§5.3).
	CopyBandwidth float64
	// CRCBandwidth is the consumer-side integrity check rate (§5.3: "the
	// RDMA consumer must check the integrity of the fetched data").
	CRCBandwidth float64
	// ConsumeCPU is the fixed consumer API cost per fetch.
	ConsumeCPU time.Duration
	// OSUSendCost/OSURecvCost are the client-side per-message costs of the
	// two-sided RDMA transport (JNI, registered-buffer management, polling).
	OSUSendCost time.Duration
	OSURecvCost time.Duration
	// FetchSize is the RDMA consumer's read granularity (§4.4.2; 2 KiB
	// default trades <3 µs latency against >5 GiB/s bandwidth).
	FetchSize int
	// FetchMaxBytes caps TCP fetch responses.
	FetchMaxBytes int
	// FetchMaxWait long-polls TCP fetches.
	FetchMaxWait time.Duration
	// MaxInFlight bounds pipelined RDMA produce writes ("RDMA networking
	// allows having multiple outstanding write requests", §7).
	MaxInFlight int
	// RPCMaxInFlight bounds pipelined requests on one classic connection
	// (Kafka's max.in.flight.requests.per.connection default is 5).
	RPCMaxInFlight int
	// RetryBackoff and RetryBackoffMax bound the exponential backoff between
	// retries of a synchronous operation after a transport failure or leader
	// change (Kafka's retry.backoff.ms / retry.backoff.max.ms).
	RetryBackoff    time.Duration
	RetryBackoffMax time.Duration
	// RetryTimeout bounds the total time a synchronous operation keeps
	// retrying before surfacing the last error (delivery.timeout.ms). Retries
	// after a lost acknowledgement may duplicate a produced batch: delivery
	// is at-least-once, as in Kafka without idempotence.
	RetryTimeout time.Duration
}

// DefaultConfig returns the calibrated client model.
func DefaultConfig() Config {
	return Config{
		ProduceCPU:      2 * time.Microsecond,
		ProduceWakeup:   64 * time.Microsecond,
		CopyBandwidth:   5 << 30,
		CRCBandwidth:    3 << 30,
		ConsumeCPU:      1600 * time.Nanosecond,
		OSUSendCost:     12 * time.Microsecond,
		OSURecvCost:     15 * time.Microsecond,
		FetchSize:       2048,
		FetchMaxBytes:   1 << 20,
		FetchMaxWait:    5 * time.Millisecond,
		MaxInFlight:     64,
		RPCMaxInFlight:  5,
		RetryBackoff:    time.Millisecond,
		RetryBackoffMax: 32 * time.Millisecond,
		RetryTimeout:    2 * time.Second,
	}
}

// Endpoint is a client machine: a fabric node with a TCP host and an RNIC.
type Endpoint struct {
	cluster *core.Cluster
	cfg     Config
	node    *fabric.Node
	host    *tcpnet.Host
	dev     *rdma.Device
	pd      *rdma.PD

	// Telemetry handles, cached from the fabric's obs bundle at
	// construction (all nil when telemetry is disabled).
	o          *obs.Obs
	stEncode   *obs.Histogram // stage/client_encode: batch build + defensive copy
	stWakeup   *obs.Histogram // stage/client_wakeup: thread handoff + poll wakeup
	stCQEWait  *obs.Histogram // stage/client_cqe_wait: CQE residency until poll
	stOSUSend  *obs.Histogram // stage/client_osu_send: two-sided send-side cost
	stOSURecv  *obs.Histogram // stage/client_osu_recv: two-sided recv-side cost
	obsRetries *obs.Counter   // client/retries
	obsBackoff *obs.Counter   // client/backoff_ns
}

// NewEndpoint attaches a client machine to the cluster's fabric.
func NewEndpoint(cl *core.Cluster, name string, cfg Config) *Endpoint {
	node := cl.Network().NewNode(name)
	dev := rdma.NewDevice(node, cl.RDMACosts())
	o := cl.Network().Obs()
	return &Endpoint{
		cluster:    cl,
		cfg:        cfg,
		node:       node,
		host:       cl.Stack().NewHost(node),
		dev:        dev,
		pd:         dev.AllocPD(),
		o:          o,
		stEncode:   o.Histogram("stage/client_encode"),
		stWakeup:   o.Histogram("stage/client_wakeup"),
		stCQEWait:  o.Histogram("stage/client_cqe_wait"),
		stOSUSend:  o.Histogram("stage/client_osu_send"),
		stOSURecv:  o.Histogram("stage/client_osu_recv"),
		obsRetries: o.Counter("client/retries"),
		obsBackoff: o.Counter("client/backoff_ns"),
	}
}

// Node returns the endpoint's fabric node.
func (e *Endpoint) Node() *fabric.Node { return e.node }

// Device returns the endpoint's RNIC.
func (e *Endpoint) Device() *rdma.Device { return e.dev }

// Config returns the client configuration.
func (e *Endpoint) Config() Config { return e.cfg }

// leader resolves a partition's leader broker. Cluster metadata stands in
// for the Metadata RPC a long-lived client caches.
func (e *Endpoint) leader(topic string, part int32) (*core.Broker, error) {
	b := e.cluster.LeaderOf(topic, part)
	if b == nil {
		return nil, fmt.Errorf("client: no leader for %s/%d", topic, part)
	}
	return b, nil
}

func (e *Endpoint) copyTime(n int) time.Duration {
	return time.Duration(float64(n) / e.cfg.CopyBandwidth * 1e9)
}

func (e *Endpoint) crcTime(n int) time.Duration {
	return time.Duration(float64(n) / e.cfg.CRCBandwidth * 1e9)
}

// ---------------------------------------------------------------------------
// Failure handling: error classification and retry pacing
// ---------------------------------------------------------------------------

// Sentinels marking the retryable failure classes. errQPFailed wraps RDMA
// completion errors (flushed WRs after a QP error); errNotLeader marks
// responses from a broker that no longer leads the partition.
var (
	errQPFailed  = errors.New("client: RDMA transport failed")
	errNotLeader = errors.New("client: broker is not the partition leader")
)

// Group-coordination signals. These are NOT transport failures, and the
// retry layer must not treat them as such: before the classification was
// split, any failed exchange was handled like leader loss — tearing down
// and redialing every connection — so a rebalance in progress caused
// spurious full reconnects. A coordinator move redials only the control
// connection; a rebalance keeps all data-path connections and re-enters
// the join protocol.
var (
	errCoordinatorMoved = errors.New("client: group coordinator moved")
	errRebalancing      = errors.New("client: group rebalance in progress")
)

// coordinationErr reports whether an error is a group-coordination signal
// (handled by the group membership layer) rather than a broken transport.
func coordinationErr(err error) bool {
	return errors.Is(err, errCoordinatorMoved) || errors.Is(err, errRebalancing)
}

// retryableErr reports whether an error is worth retrying through a
// reconnect: transport failures (the connection or QP died, the peer is
// currently unreachable) and leadership changes. Protocol and validation
// errors are permanent, and coordination signals are explicitly excluded —
// reconnecting cannot resolve them.
func retryableErr(err error) bool {
	if coordinationErr(err) {
		return false
	}
	return errors.Is(err, tcpnet.ErrClosed) ||
		errors.Is(err, tcpnet.ErrUnreachable) ||
		errors.Is(err, rdma.ErrQPState) ||
		errors.Is(err, rdma.ErrUnreachable) ||
		errors.Is(err, errQPFailed) ||
		errors.Is(err, errNotLeader)
}

// respErr turns a response's error code into the client's error: nil for
// ErrNone, and for NOT_LEADER the sentinel the retry layer reconnects on.
func respErr(code kwire.ErrCode) error {
	if code == kwire.ErrNotLeader {
		return errNotLeader
	}
	return code.Err()
}

// retrier paces the retries of one logical operation: exponential backoff
// from RetryBackoff up to RetryBackoffMax, giving up once RetryTimeout of
// simulated time has elapsed since the operation started.
type retrier struct {
	delay    time.Duration
	max      time.Duration
	deadline time.Duration
	retries  *obs.Counter // client/retries
	backoff  *obs.Counter // client/backoff_ns
}

func (e *Endpoint) newRetrier(p *sim.Proc) retrier {
	return retrier{
		delay:    e.cfg.RetryBackoff,
		max:      e.cfg.RetryBackoffMax,
		deadline: p.Env().Now() + e.cfg.RetryTimeout,
		retries:  e.obsRetries,
		backoff:  e.obsBackoff,
	}
}

// wait sleeps one backoff step and doubles the next one; false means the
// deadline has passed and the caller should surface its last error.
func (r *retrier) wait(p *sim.Proc) bool {
	if p.Env().Now()+r.delay > r.deadline {
		return false
	}
	r.retries.Inc()
	r.backoff.AddDur(r.delay)
	p.Sleep(r.delay)
	if r.delay *= 2; r.delay > r.max {
		r.delay = r.max
	}
	return true
}

// ---------------------------------------------------------------------------
// RPC transports (TCP and OSU two-sided RDMA)
// ---------------------------------------------------------------------------

// Transport carries framed request/response messages to one broker. Both the
// TCP stack and the OSU two-sided RDMA stack implement it, which is exactly
// the paper's point: OSU Kafka swaps the transport but keeps the RPC shape.
type Transport interface {
	// Send transmits a request frame, charging client send-side costs. The
	// frame is copied (or fully consumed) before Send returns, so callers
	// may reuse its buffer immediately.
	Send(p *sim.Proc, frame []byte) error
	// Recv returns the next response frame, charging client receive costs.
	Recv(p *sim.Proc) ([]byte, error)
	// Recycle hands a frame returned by Recv back to the transport's buffer
	// pool. Optional; callers that decode and drop frames use it to keep the
	// receive path allocation-free.
	Recycle(buf []byte)
	// Close releases the transport.
	Close()
}

// NewTCPTransport dials a broker over TCP: the classical client connection.
// A *tcpnet.Conn is a Transport as it stands.
func NewTCPTransport(p *sim.Proc, e *Endpoint, broker *core.Broker) (Transport, error) {
	conn, err := e.host.Dial(p, broker.Host(), core.TCPPort)
	if err != nil {
		return nil, err
	}
	return conn, nil
}

// osuTransport carries frames in RDMA Sends, through pre-registered receive
// buffers on both sides [33].
type osuTransport struct {
	e    *Endpoint
	qp   *rdma.QP
	ring *rdma.RecvRing
}

// osuClientRecvDepth and osuClientBufSize size the client's response
// buffers; fetch responses dominate.
const (
	osuClientRecvDepth = 64
	osuClientBufSize   = 1<<20 + 4096
)

// NewOSUTransport establishes a two-sided RDMA connection to a broker.
func NewOSUTransport(p *sim.Proc, e *Endpoint, broker *core.Broker) (Transport, error) {
	qp, err := broker.ConnectOSU(e.dev)
	if err != nil {
		return nil, err
	}
	t := &osuTransport{e: e, qp: qp, ring: e.dev.NewRecvRing(osuClientRecvDepth, osuClientBufSize)}
	if err := t.ring.PostAll(qp); err != nil {
		return nil, err
	}
	// Connection establishment handshake.
	p.Sleep(100 * time.Microsecond)
	return t, nil
}

func (t *osuTransport) Send(p *sim.Proc, frame []byte) error {
	// Copy into a registered send buffer, then post: the copy the one-sided
	// design avoids.
	start := p.Now()
	p.Sleep(t.e.cfg.OSUSendCost + t.e.copyTime(len(frame)))
	t.e.stOSUSend.ObserveDur(p.Now() - start)
	return t.qp.SendCopy(frame)
}

func (t *osuTransport) Recv(p *sim.Proc) ([]byte, error) {
	cqe := t.qp.RecvCQ().Poll(p)
	popNow := p.Now()
	t.e.stCQEWait.ObserveDur(popNow - cqe.At)
	if cqe.Status != rdma.StatusOK {
		return nil, fmt.Errorf("%w: OSU recv %v", errQPFailed, cqe.Status)
	}
	p.Sleep(t.e.cfg.OSURecvCost + t.e.copyTime(cqe.ByteLen))
	t.e.stOSURecv.ObserveDur(p.Now() - popNow)
	frame := t.e.node.Network().WireBufs().Get(cqe.ByteLen)
	copy(frame, t.ring.Frame(cqe))
	if err := t.ring.Post(t.qp, int(cqe.WRID)); err != nil {
		// The QP died between the completion and the repost. Swallowing this
		// (the pre-kdlint behaviour) shrinks the receive queue by one each
		// time; once every buffer leaks out this way, the next Recv blocks
		// forever instead of failing over. Surface it so the retry layer
		// reconnects; the in-flight request is re-sent (at-least-once).
		t.e.node.Network().WireBufs().Put(frame)
		return nil, fmt.Errorf("%w: repost recv: %v", errQPFailed, err)
	}
	return frame, nil
}

func (t *osuTransport) Recycle(buf []byte) { t.e.node.Network().WireBufs().Put(buf) }

func (t *osuTransport) Close() { t.qp.Disconnect() }

// dialFunc opens a Transport to one broker: NewTCPTransport or
// NewOSUTransport.
type dialFunc func(p *sim.Proc, e *Endpoint, broker *core.Broker) (Transport, error)

// dialLeader resolves the partition's current leader and dials it. The RPC
// producer and consumer connect through it and, after a transport failure or
// leader change, reconnect through it.
func (e *Endpoint) dialLeader(p *sim.Proc, dial dialFunc, topic string, part int32) (Transport, error) {
	broker, err := e.leader(topic, part)
	if err != nil {
		return nil, err
	}
	return dial(p, e, broker)
}

// ---------------------------------------------------------------------------
// Control-plane request/response exchange
// ---------------------------------------------------------------------------

// rpc is the requesting side of one connection's request/response protocol:
// the correlation counter and the frame scratch (Transport.Send consumes the
// frame before returning, so one buffer serves every request). A pipelined
// caller uses the two halves separately — send, and later recvInto.
type rpc struct {
	corr uint32
	enc  kwire.Scratch
}

// send encodes req under the next correlation id and transmits it.
func (c *rpc) send(p *sim.Proc, t Transport, req kwire.Message) error {
	c.corr++
	return t.Send(p, c.enc.Encode(c.corr, req))
}

// recvInto receives the next frame on t and decodes it into resp, which
// names the kind the caller expects. Decoding copies every byte field, so
// the frame goes straight back to the transport's pool.
func recvInto(p *sim.Proc, t Transport, resp kwire.Message) error {
	raw, err := t.Recv(p)
	if err != nil {
		return err
	}
	_, err = kwire.DecodeInto(raw, resp)
	t.Recycle(raw)
	if err == kwire.ErrKindMismatch {
		return fmt.Errorf("client: unexpected response kind, want %T", resp)
	}
	return err
}

// call runs one complete exchange. Transport errors surface unchanged so
// callers can classify them.
func (c *rpc) call(p *sim.Proc, t Transport, req, resp kwire.Message) error {
	if err := c.send(p, t, req); err != nil {
		return err
	}
	return recvInto(p, t, resp)
}
