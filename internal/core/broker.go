package core

import (
	"fmt"
	"slices"
	"time"

	"kafkadirect/internal/fabric"
	"kafkadirect/internal/group"
	"kafkadirect/internal/klog"
	"kafkadirect/internal/krecord"
	"kafkadirect/internal/kwire"
	"kafkadirect/internal/obs"
	"kafkadirect/internal/rdma"
	"kafkadirect/internal/sim"
	"kafkadirect/internal/tcpnet"
)

// TCPPort is the broker's client/inter-broker listening port.
const TCPPort = 9092

// Broker is one storage server of the cluster (Figure 2): TCP network
// processor threads and RDMA completion pollers feed a shared request queue
// drained by API worker threads that operate on topic partition logs.
type Broker struct {
	id      string
	env     *sim.Env
	cfg     Config
	cluster *Cluster
	node    *fabric.Node
	host    *tcpnet.Host
	dev     *rdma.Device
	pd      *rdma.PD

	reqQ    *sim.Queue[*request]
	respQ   *sim.Queue[*response]
	netRes  *sim.Resource // TCP network processor thread pool
	rdmaRes *sim.Resource // RDMA module thread pool
	rdmaCQ  *rdma.CQ      // shared completion queue for broker-side QPs

	topics  map[string]*topicState
	offsets map[offsetID]int64

	// Free lists for the steady-state datapath: requests, responses, and
	// decoded request messages (per wire kind). A simulation runs one
	// process at a time, so plain slices need no locking. reqMade counts the
	// requests the pool ever allocated: once the broker is idle, every one
	// of them is back in reqFree.
	reqMade  int
	reqFree  []*request
	respFree []*response
	msgFree  [kwire.KindMax + 1][]kwire.Message

	// Scratch response messages: a handler returns one and respond encodes
	// it before anything else runs, so one instance per hot kind is reused
	// across all handlers instead of allocating a literal per response.
	scratchProduceResp kwire.ProduceResp
	scratchFetchResp   kwire.FetchResp
	scratchCommitResp  kwire.OffsetCommitResp
	scratchOffsetResp  kwire.OffsetFetchResp
	scratchBeatResp    kwire.HeartbeatResp
	scratchGCommitResp kwire.GroupCommitResp
	scratchLeaveResp   kwire.LeaveGroupResp

	// loopOld is the reusable FAA result buffer for loopback atomics
	// (produceViaSharedFileAsync); loopRes serialises its users.
	loopOld []byte

	nextSessionID        uint32
	producerSessions     map[uint32]*rdmaProducerSession
	consumerRDMASessions map[uint32]*consumerSession

	produceFiles *produceFileTable

	// loopQP is a lazily-created loopback QP pair used to issue RDMA
	// atomics "to itself" for TCP produces to shared-access files (§4.2.2);
	// loopRes serialises post/poll pairs on it across API workers.
	loopQP  *rdma.QP
	loopRes *sim.Resource

	// stats for CPU accounting experiments.
	statRequests     uint64
	statRDMAProduces uint64
	statEmptyFetches uint64

	// Telemetry handles, cached from the fabric's obs bundle at
	// construction (all nil when telemetry is disabled). The stage
	// histograms tile a request's path through the broker: network-thread
	// receive, hand-off delay, shared-queue wait, API-worker service, and
	// the response path (DESIGN.md §10).
	o           *obs.Obs
	stNetRecv   *obs.Histogram // stage/broker_net_recv
	stHandoff   *obs.Histogram // stage/broker_handoff
	stQueueWait *obs.Histogram // stage/broker_queue_wait
	stAPI       *obs.Histogram // stage/broker_api
	stRespWait  *obs.Histogram // stage/broker_resp_wait
	stNetSend   *obs.Histogram // stage/broker_net_send
	stCQEWait   *obs.Histogram // stage/broker_cqe_wait
	stRDMAPoll  *obs.Histogram // stage/broker_rdma_poll
	obsRequests *obs.Counter   // broker/requests
	obsEmptyF   *obs.Counter   // broker/empty_fetches
	obsQDepth   *obs.Gauge     // broker/queue_depth
	obsHWLag    *obs.Gauge     // core/hw_lag: log end minus high watermark
}

type topicState struct {
	name  string
	parts []*Partition
}

// request is an entry in the shared request queue (➊/➋ in Figure 2).
// Requests are pooled (Broker.getRequest/request.drop): the steady-state
// datapath recycles them instead of allocating one per message.
type request struct {
	b *Broker

	// Exactly one of the following sources is set. The RDMA events are
	// held by value; `.sess != nil` marks them active.
	tcp  *tcpnet.Conn
	osu  *osuSession
	rdma rdmaProduceEvent
	repl replWriteEvent

	corr uint32
	msg  kwire.Message

	// Telemetry stamps (simulated time; zeroed with the record on release):
	// when the source scheduled the hand-off and when the request entered
	// the shared queue.
	obsHandoff time.Duration
	obsQueued  time.Duration

	// Lifetime (DESIGN.md §2.4). holds counts who may still touch the
	// request: the shared queue or the worker dispatching it, a purgatory
	// list, high-watermark list or shared file's pending map it is parked in,
	// a deadline armed for it, the join barrier. completed is set by respond,
	// the one place a request is answered. Whoever drops the last hold on a
	// completed request recycles it, so nothing ever holds a recycled one.
	holds     int
	completed bool

	// What a produce has in its file (size), and what a parked request waits
	// for: pt is the partition a fetch in purgatory or a produce on a shared
	// file is parked on, the latter until the file's expected order reaches
	// order; a produce in hwWaiters is acknowledged at base once the high
	// watermark reaches hwTarget.
	size     int
	pt       *Partition
	base     int64
	hwTarget int64
	order    uint16
}

// response is an entry for the network-side response path.
type response struct {
	tcp *tcpnet.Conn
	osu *osuSession
	// zeroCopy marks responses whose payload is served from mapped files
	// via sendfile — no send-side copy cost (the Kafka optimisation cited
	// in §5.2 [38]).
	zeroCopy int // payload bytes exempt from copy cost
	frame    []byte
	// obsPushed is when the response entered the response queue (telemetry).
	obsPushed time.Duration
}

// newBroker constructs and starts a broker; use Cluster.AddBroker.
func newBroker(c *Cluster, id string) *Broker {
	node := c.net.NewNode(id)
	b := &Broker{
		id:                   id,
		env:                  c.env,
		cfg:                  c.cfg,
		cluster:              c,
		node:                 node,
		host:                 c.stack.NewHost(node),
		dev:                  rdma.NewDevice(node, c.rdmaCosts),
		reqQ:                 sim.NewQueue[*request](),
		respQ:                sim.NewQueue[*response](),
		netRes:               sim.NewResource(c.cfg.NetThreads),
		rdmaRes:              sim.NewResource(c.cfg.RDMAThreads),
		loopRes:              sim.NewResource(1),
		topics:               make(map[string]*topicState),
		offsets:              make(map[offsetID]int64),
		producerSessions:     make(map[uint32]*rdmaProducerSession),
		consumerRDMASessions: make(map[uint32]*consumerSession),
	}
	o := c.net.Obs()
	b.o = o
	b.stNetRecv = o.Histogram("stage/broker_net_recv")
	b.stHandoff = o.Histogram("stage/broker_handoff")
	b.stQueueWait = o.Histogram("stage/broker_queue_wait")
	b.stAPI = o.Histogram("stage/broker_api")
	b.stRespWait = o.Histogram("stage/broker_resp_wait")
	b.stNetSend = o.Histogram("stage/broker_net_send")
	b.stCQEWait = o.Histogram("stage/broker_cqe_wait")
	b.stRDMAPoll = o.Histogram("stage/broker_rdma_poll")
	b.obsRequests = o.Counter("broker/requests")
	b.obsEmptyF = o.Counter("broker/empty_fetches")
	b.obsQDepth = o.Gauge("broker/queue_depth")
	b.obsHWLag = o.Gauge("core/hw_lag")
	b.pd = b.dev.AllocPD()
	b.rdmaCQ = b.dev.CreateCQ(0)
	b.produceFiles = newProduceFileTable()
	b.start()
	return b
}

// ID returns the broker id.
func (b *Broker) ID() string { return b.id }

// Node returns the broker's fabric node.
func (b *Broker) Node() *fabric.Node { return b.node }

// Host returns the broker's TCP endpoint.
func (b *Broker) Host() *tcpnet.Host { return b.host }

// Device returns the broker's RNIC.
func (b *Broker) Device() *rdma.Device { return b.dev }

// Config returns the broker configuration.
func (b *Broker) Config() Config { return b.cfg }

// Stats reports total requests processed, RDMA produces, and empty fetches.
func (b *Broker) Stats() (requests, rdmaProduces, emptyFetches uint64) {
	return b.statRequests, b.statRDMAProduces, b.statEmptyFetches
}

// release returns all partition storage to the buffer pool (Cluster.Release).
func (b *Broker) release() {
	for _, ts := range b.topics {
		for _, pt := range ts.parts {
			// parts is index-addressed and nil-padded: a broker hosting
			// partition 3 but not 0-2 has nil entries below it.
			if pt != nil {
				pt.releaseStorage()
			}
		}
	}
}

// getRequest pops a pooled request (or allocates the pool's first ones).
func (b *Broker) getRequest() *request {
	if n := len(b.reqFree); n > 0 {
		req := b.reqFree[n-1]
		b.reqFree = b.reqFree[:n-1]
		return req
	}
	b.reqMade++
	return &request{b: b}
}

// drop gives up one hold. The last one on an answered request recycles it,
// here and nowhere else: its decoded message goes back to the per-kind pool.
func (req *request) drop() {
	req.holds--
	if req.holds > 0 || !req.completed {
		return
	}
	b := req.b
	if req.msg != nil {
		b.putMsg(req.msg)
	}
	*req = request{b: b}
	b.reqFree = append(b.reqFree, req)
}

// enqueueRequest ends a request's hand-off delay. It is the AfterArg target:
// one shared function plus a pooled request instead of a closure per message.
func enqueueRequest(v any) {
	req := v.(*request)
	req.b.stHandoff.ObserveDur(req.b.env.Now() - req.obsHandoff)
	req.b.enqueue(req)
}

// enqueue pushes a request the caller holds onto the shared queue — fresh
// from its hand-off, or woken from purgatory — and the hold goes with it.
func (b *Broker) enqueue(req *request) {
	req.obsQueued = b.env.Now()
	b.obsQDepth.Add(1)
	b.reqQ.Push(req)
}

func (b *Broker) getResponse() *response {
	if n := len(b.respFree); n > 0 {
		r := b.respFree[n-1]
		b.respFree = b.respFree[:n-1]
		return r
	}
	return new(response)
}

func (b *Broker) putResponse(r *response) {
	*r = response{}
	b.respFree = append(b.respFree, r)
}

// getMsg returns a pooled message struct for a request kind (ingest admits
// no other). Decoding overwrites every field, so structs are recycled as-is.
func (b *Broker) getMsg(k kwire.Kind) kwire.Message {
	if pool := b.msgFree[k]; len(pool) > 0 {
		m := pool[len(pool)-1]
		b.msgFree[k] = pool[:len(pool)-1]
		return m
	}
	return kwire.NewMessage(k)
}

func (b *Broker) putMsg(m kwire.Message) {
	k := m.Kind()
	b.msgFree[k] = append(b.msgFree[k], m)
}

// produceResp, fetchResp and emptyFetch fill the broker's scratch response
// structs. Safe because whoever receives one (dispatch, or a direct caller
// of respond) encodes it into a frame before yielding control.
func (b *Broker) produceResp(code kwire.ErrCode, base int64) *kwire.ProduceResp {
	b.scratchProduceResp = kwire.ProduceResp{Err: code, BaseOffset: base}
	return &b.scratchProduceResp
}

// fetchResp reports the partition's watermarks only on a served fetch; a
// refusal (pt may be nil) carries the code alone.
func (b *Broker) fetchResp(pt *Partition, code kwire.ErrCode, data []byte) *kwire.FetchResp {
	b.scratchFetchResp = kwire.FetchResp{Err: code, Data: data}
	if code == kwire.ErrNone {
		b.scratchFetchResp.HighWatermark = pt.log.HighWatermark()
		b.scratchFetchResp.LogEndOffset = pt.log.NextOffset()
	}
	return &b.scratchFetchResp
}

// emptyFetch counts and builds the answer to a fetch that found nothing.
func (b *Broker) emptyFetch(pt *Partition) *kwire.FetchResp {
	b.statEmptyFetches++
	b.obsEmptyF.Inc()
	return b.fetchResp(pt, kwire.ErrNone, nil)
}

func (b *Broker) start() {
	ln, err := b.host.Listen(TCPPort)
	if err != nil {
		panic(fmt.Sprintf("core: broker %s: %v", b.id, err))
	}
	b.env.Go(b.id+"/acceptor", func(p *sim.Proc) {
		for {
			conn := ln.Accept(p)
			c := conn
			b.env.Go(b.id+"/conn", func(p *sim.Proc) { b.serveTCPConn(p, c) })
		}
	})
	for i := 0; i < b.cfg.APIWorkers; i++ {
		b.env.Go(fmt.Sprintf("%s/api-%d", b.id, i), b.apiWorker)
	}
	for i := 0; i < b.cfg.NetThreads; i++ {
		b.env.Go(fmt.Sprintf("%s/responder-%d", b.id, i), b.responder)
	}
	for i := 0; i < b.cfg.RDMAThreads; i++ {
		b.env.Go(fmt.Sprintf("%s/rdma-%d", b.id, i), b.rdmaPoller)
	}
	b.dev.OnAsyncEvent(b.onQPEvent)
}

// serveTCPConn is the network-processor read loop for one connection. The
// per-message kernel cost is charged against the shared NetThreads pool so
// that the module saturates like Kafka's (§5.3: ~53 K empty fetches/s).
func (b *Broker) serveTCPConn(p *sim.Proc, conn *tcpnet.Conn) {
	for {
		raw, err := conn.RecvRaw(p)
		if err != nil {
			return
		}
		recvStart := p.Now()
		b.netRes.Use(p, conn.RecvCost(len(raw)))
		recvEnd := p.Now()
		b.stNetRecv.ObserveDur(recvEnd - recvStart)
		b.o.Tracer().Emit(b.node.Track(), "broker.net_recv", "broker", recvStart, recvEnd)
		req := b.ingest(raw)
		conn.Recycle(raw) // decoding copied every byte field out of the frame
		if req == nil {
			continue
		}
		req.tcp = conn
		b.handoff(req)
	}
}

// ingest turns a received frame into a pooled request carrying its decoded
// message, for either framed transport (TCP, OSU). It returns nil for a frame
// to drop, as a real broker logs and drops one: truncated, malformed, or of a
// kind that is not a request — a response kind would otherwise be decoded in
// full into a struct this broker's pool then keeps.
func (b *Broker) ingest(frame []byte) *request {
	k, ok := kwire.PeekKind(frame)
	if !ok || !k.IsRequest() {
		return nil
	}
	msg := b.getMsg(k)
	corr, err := kwire.DecodeInto(frame, msg)
	if err != nil {
		b.putMsg(msg)
		return nil
	}
	req := b.getRequest()
	req.corr, req.msg = corr, msg
	return req
}

// handoff forwards a request from whichever module received it — a network
// processor or the RDMA module — to the API workers. It costs 11 µs of
// latency (§5.1) but occupies neither thread.
func (b *Broker) handoff(req *request) {
	req.holds++ // the queue's, then the dispatching worker's
	req.obsHandoff = b.env.Now()
	b.env.AfterArg(b.cfg.HandoffDelay, enqueueRequest, req)
}

// responder drains the response queue, charging send costs against the
// network thread pool.
func (b *Broker) responder(p *sim.Proc) {
	for {
		r := b.respQ.Pop(p)
		popNow := p.Now()
		b.stRespWait.ObserveDur(popNow - r.obsPushed)
		switch {
		case r.tcp != nil:
			costBytes := len(r.frame) - r.zeroCopy
			if costBytes < 0 {
				costBytes = 0
			}
			b.netRes.Acquire(p)
			p.Sleep(r.tcp.SendCost(costBytes))
			err := r.tcp.SendRaw(r.frame) // SendRaw copies the frame
			b.netRes.Release()
			_ = err // peer may have gone away; nothing to do
		case r.osu != nil:
			b.rdmaRes.Use(p, b.cfg.OSUSendCost)
			_ = r.osu.qp.SendCopy(r.frame) // the peer may have gone away, as above
		}
		sendEnd := p.Now()
		b.stNetSend.ObserveDur(sendEnd - popNow)
		b.o.Tracer().Emit(b.node.Track(), "broker.net_send", "broker", popNow, sendEnd)
		b.node.Network().WireBufs().Put(r.frame)
		b.putResponse(r)
	}
}

// respond answers a request over whatever brought it, and is the only place
// an answer leaves the broker: a frame on the response queue for a TCP or OSU
// connection, the acknowledgement Send for an RDMA producer's QP. A fetch
// response's payload is served from mapped files via sendfile, so its bytes
// are exempt from the send-side copy cost. The frame is encoded into a
// recycled wire buffer (the responder returns it to the pool after the
// send-side copy). The caller holds the request, and drops that hold after.
func (b *Broker) respond(req *request, msg kwire.Message) {
	if req.completed {
		return
	}
	req.completed = true
	if sess := req.rdma.sess; sess != nil {
		sess.sendAck(msg.(*kwire.ProduceResp))
	} else {
		zcBytes := 0
		if f, ok := msg.(*kwire.FetchResp); ok {
			zcBytes = len(f.Data)
		}
		wire := b.node.Network().WireBufs()
		frame := kwire.AppendEncode(wire.Get(64 + zcBytes)[:0], req.corr, msg)
		resp := b.getResponse()
		resp.tcp, resp.osu, resp.frame, resp.zeroCopy = req.tcp, req.osu, frame, zcBytes
		resp.obsPushed = b.env.Now()
		b.respQ.Push(resp)
	}
}

// apiWorker drains the shared request queue (➌ in Figure 2).
func (b *Broker) apiWorker(p *sim.Proc) {
	for {
		req := b.reqQ.Pop(p)
		popNow := p.Now()
		b.obsQDepth.Add(-1)
		b.stQueueWait.ObserveDur(popNow - req.obsQueued)
		b.statRequests++
		b.obsRequests.Inc()
		b.dispatch(p, req)
		apiEnd := p.Now()
		b.stAPI.ObserveDur(apiEnd - popNow)
		b.o.Tracer().Emit(b.node.Track(), "broker.api", "broker", popNow, apiEnd)
		req.drop()
	}
}

// dispatch runs a request's handler and is the one place a synchronous answer
// is sent. A handler returns its answer; nil means the request is answered
// later (a parked fetch or join, a produce waiting for the high watermark or
// for its predecessors on a shared file) or elsewhere (a replica write acks
// on its leader's link).
func (b *Broker) dispatch(p *sim.Proc, req *request) {
	if resp := b.handle(p, req); resp != nil {
		b.respond(req, resp)
	}
}

func (b *Broker) handle(p *sim.Proc, req *request) kwire.Message {
	switch m := req.msg.(type) {
	case nil: // a completion event of the RDMA module, not a frame
		if req.rdma.sess != nil {
			return b.handleRDMAProduce(p, req)
		}
		b.handleReplicaWrite(p, req)
		return nil
	case *kwire.ProduceReq:
		return b.handleProduce(p, req, m)
	case *kwire.FetchReq:
		return b.handleFetch(p, req, m)
	}
	// The rest is control plane: general-purpose RPC processing is all it
	// costs. (The datapath handlers above fold that charge into the one Sleep
	// they take under their partition's lock.)
	p.Sleep(b.cfg.APIFixedCost)
	switch m := req.msg.(type) {
	case *kwire.MetadataReq:
		return b.cluster.metadata(m.Topics)
	case *kwire.CreateTopicReq:
		return b.handleCreateTopic(m)
	case *kwire.ProduceAccessReq:
		return b.handleProduceAccess(p, m)
	case *kwire.ConsumeAccessReq:
		return b.handleConsumeAccess(p, m)
	case *kwire.ReleaseFileReq:
		return b.handleReleaseFile(p, m)
	case *kwire.OffsetCommitReq:
		b.offsets[offsetID{m.Group, m.Topic, m.Partition}] = m.Offset
		b.scratchCommitResp = kwire.OffsetCommitResp{Err: kwire.ErrNone}
		return &b.scratchCommitResp
	case *kwire.OffsetFetchReq:
		off, ok := b.offsets[offsetID{m.Group, m.Topic, m.Partition}]
		if !ok {
			off = -1
		}
		// A group managed by the coordinator answers from its committed
		// map (backed by __consumer_offsets) rather than the per-broker
		// legacy store.
		if co, ec := b.groupCoordinator(m.Group); ec == kwire.ErrNone {
			if v := co.Committed(m.Group, group.TP{Topic: m.Topic, Partition: m.Partition}); v >= 0 {
				off = v
			}
		}
		b.scratchOffsetResp = kwire.OffsetFetchResp{Err: kwire.ErrNone, Offset: off}
		return &b.scratchOffsetResp
	case *kwire.JoinGroupReq:
		return b.handleJoinGroup(req, m)
	case *kwire.SyncGroupReq:
		return b.handleSyncGroup(m)
	case *kwire.HeartbeatReq:
		return b.handleHeartbeat(m)
	case *kwire.LeaveGroupReq:
		return b.handleLeaveGroup(m)
	case *kwire.GroupCommitReq:
		return b.handleGroupCommit(p, m)
	case *kwire.CommitAccessReq:
		return b.handleCommitAccess(m)
	}
	panic(fmt.Sprintf("core: request kind %d admitted by ingest has no handler", req.msg.Kind()))
}

// offsetID keys the consumer-offset store without string formatting.
type offsetID struct {
	group     string
	topic     string
	partition int32
}

// partition resolves a topic partition hosted on this broker.
func (b *Broker) partition(topic string, idx int32) (*Partition, kwire.ErrCode) {
	ts, ok := b.topics[topic]
	if !ok {
		return nil, kwire.ErrUnknownTopic
	}
	if idx < 0 || int(idx) >= len(ts.parts) || ts.parts[idx] == nil {
		return nil, kwire.ErrUnknownPartition
	}
	return ts.parts[idx], kwire.ErrNone
}

// ledPartition resolves a topic partition this broker leads: the check every
// datapath and access request opens with.
func (b *Broker) ledPartition(topic string, idx int32) (*Partition, kwire.ErrCode) {
	pt, ec := b.partition(topic, idx)
	if ec == kwire.ErrNone && !pt.IsLeader() {
		return nil, kwire.ErrNotLeader
	}
	return pt, ec
}

// Partition exposes partition state for tests and measurement harnesses.
func (b *Broker) Partition(topic string, idx int32) *Partition {
	pt, _ := b.partition(topic, idx)
	return pt
}

// crcTime, copyTime, and rpcByteTime convert byte counts to worker time.
func (b *Broker) crcTime(n int) time.Duration {
	return time.Duration(float64(n) / b.cfg.CRCBandwidth * 1e9)
}
func (b *Broker) copyTime(n int) time.Duration {
	return time.Duration(float64(n) / b.cfg.CopyBandwidth * 1e9)
}
func (b *Broker) rpcByteTime(n int) time.Duration {
	return time.Duration(float64(n) / b.cfg.RPCByteBandwidth * 1e9)
}

// handleProduce implements the TCP produce datapath (§4.2.1): validate,
// append (the second copy), replicate, acknowledge per acks.
func (b *Broker) handleProduce(p *sim.Proc, req *request, m *kwire.ProduceReq) kwire.Message {
	pt, ec := b.ledPartition(m.Topic, m.Partition)
	if ec != kwire.ErrNone {
		return b.produceResp(ec, 0)
	}
	pt.acquire(p)
	// General-purpose RPC processing + checksum verification + the copy
	// from the network receive buffer into the file buffer (§4.2.1).
	p.Sleep(b.cfg.APIFixedCost + b.cfg.TCPRequestExtra + b.rpcByteTime(len(m.Batch)) +
		b.crcTime(len(m.Batch)) + b.copyTime(len(m.Batch)))
	batch, _, err := krecord.Parse(m.Batch)
	if err != nil || batch.Validate() != nil {
		pt.release()
		return b.produceResp(kwire.ErrInvalidRecord, 0)
	}
	if pf := pt.produceFile; pf != nil && !pf.revoked {
		switch pf.mode {
		case kwire.AccessExclusive:
			// An exclusive RDMA grant makes the broker the sole gatekeeper:
			// no other writer may touch the file (§4.2.2).
			pt.release()
			return b.produceResp(kwire.ErrAccessDenied, 0)
		case kwire.AccessShared:
			// The file is shared with RDMA producers: the broker must reserve
			// its region through the same atomic word, issuing an RDMA FAA to
			// itself (§4.2.2), and commit through the ordering machinery,
			// which answers when the batch's turn comes (releasing the lock).
			return b.produceViaSharedFileAsync(p, pt, pf, m.Batch, req)
		}
	}
	base, err := pt.append(batch)
	// The lock goes before the answer does, on every outcome.
	pt.release()
	switch err {
	case nil:
		b.ackProduce(pt, req, m.Acks < 0, base, base+int64(batch.Count()))
		return nil
	case klog.ErrBatchTooLarge:
		return b.produceResp(kwire.ErrInvalidRecord, 0)
	default:
		return b.produceResp(kwire.ErrInternal, 0)
	}
}

// ackProduce answers a produce that is in the log at base: at once, or, when
// every replica must have it first (acks=all over TCP, always for a one-sided
// produce), once the high watermark reaches target.
func (b *Broker) ackProduce(pt *Partition, req *request, allReplicas bool, base, target int64) {
	if allReplicas && len(pt.replicas) > 1 && pt.log.HighWatermark() < target {
		req.base, req.hwTarget = base, target
		req.holds++
		pt.hwWaiters = append(pt.hwWaiters, req)
		return
	}
	b.respond(req, b.produceResp(kwire.ErrNone, base))
}

// handleFetch implements the TCP consume datapath (§4.4.1) and the pull
// replication fetch (§4.3.1). Consumers see committed data only; replicas
// read to the log end and their fetch offset doubles as a replication ack,
// so a replica id is honoured only from that follower's own host.
func (b *Broker) handleFetch(p *sim.Proc, req *request, m *kwire.FetchReq) kwire.Message {
	pt, ec := b.ledPartition(m.Topic, m.Partition)
	if ec != kwire.ErrNone {
		return b.fetchResp(nil, ec, nil)
	}
	isReplica := m.ReplicaID >= 0
	follower := b.cluster.brokerName(m.ReplicaID)
	if isReplica && (follower == b.id || !replicaListed(pt.replicas, follower) ||
		req.tcp == nil || req.tcp.Peer().Host() != b.cluster.broker(follower).host) {
		return b.fetchResp(nil, kwire.ErrAccessDenied, nil)
	}
	p.Sleep(b.cfg.APIFixedCost + b.cfg.FetchExtra)

	var data []byte
	var err error
	if isReplica {
		pt.acquire(p)
		pt.recordFollowerLEO(follower, m.Offset)
		pt.release()
		data, err = pt.log.ReadUncommitted(m.Offset, int(m.MaxBytes))
	} else {
		data, err = pt.log.ReadCommitted(m.Offset, int(m.MaxBytes))
	}
	switch {
	case err != nil:
		return b.fetchResp(pt, kwire.ErrOffsetOutOfRange, nil)
	case data == nil:
		return b.parkFetch(req, m, pt)
	}
	return b.fetchResp(pt, kwire.ErrNone, data)
}

// parkFetch implements fetch purgatory: the request waits for new data (LEO
// for replicas, HW for consumers) or its long-poll deadline. A fetch that
// may not wait is answered empty at once.
func (b *Broker) parkFetch(req *request, m *kwire.FetchReq, pt *Partition) kwire.Message {
	wait := time.Duration(m.MaxWaitMicros) * time.Microsecond
	if wait <= 0 {
		return b.emptyFetch(pt)
	}
	if wait > b.cfg.FetchLongPollMax {
		wait = b.cfg.FetchLongPollMax
	}
	list := pt.purgatory(m)
	*list = append(*list, req)
	req.pt = pt
	req.holds += 2 // the list's and the deadline's
	b.env.AfterArg(wait, fetchDeadline, req)
	return nil
}

// fetchDeadline answers a fetch still in purgatory empty and takes it off its
// list in order; one that was woken since is its re-dispatch's to answer.
func fetchDeadline(v any) {
	req := v.(*request)
	list := req.pt.purgatory(req.msg.(*kwire.FetchReq))
	if i := slices.Index(*list, req); i >= 0 {
		*list = slices.Delete(*list, i, i+1)
		req.b.respond(req, req.b.emptyFetch(req.pt))
		req.drop()
	}
	req.drop()
}

func (b *Broker) handleCreateTopic(m *kwire.CreateTopicReq) kwire.Message {
	code := kwire.ErrNone
	switch b.cluster.CreateTopic(m.Topic, int(m.Partitions), int(m.ReplicationFactor)) {
	case nil:
	case errTopicExists:
		code = kwire.ErrTopicExists
	default:
		code = kwire.ErrInternal
	}
	return &kwire.CreateTopicResp{Err: code}
}

// onQPEvent reacts to QP failures (§4.2.2 "client failure can be detected
// from QP disconnection events"): produce grants bound to the failed QP are
// revoked so a faulty client cannot keep writing, and consumer sessions tear
// down their slots.
func (b *Broker) onQPEvent(ev rdma.AsyncEvent) {
	switch sess := ev.QP.UserData().(type) {
	case *rdmaProducerSession:
		b.revokeSessionGrants(sess)
		delete(b.producerSessions, sess.id)
	case *consumerSession:
		sess.teardown()
	case *replAckSession:
		// A push-replication link died under a live leader (QP fault
		// injection, or a follower failure the controller will confirm): if
		// both ends are still up, re-establish the link with a resync after
		// a reconnect round trip. Crash-driven failures are skipped here —
		// failover or restart rebuilds those links.
		link := sess.link
		pr := link.repl
		if pr.pt.IsLeader() && !b.cluster.down[b.id] && !b.cluster.down[link.follower.id] {
			b.env.After(controlRTT, func() {
				if pr.pt.IsLeader() && pr.pt.pushRepl == pr {
					pr.addLink(link.follower, true)
				}
			})
		}
	}
}
