// Package rdma is a verbs-level simulator of an RDMA-capable network
// controller (RNIC) and the InfiniBand reliably-connected (RC) transport,
// sufficient to host every datapath KafkaDirect uses (§2, §4):
//
//   - memory regions (MRs) registered with remote keys and access flags;
//   - RC queue pairs with send/receive queues and completion queues;
//   - work requests: Send, Write, WriteWithImm (32-bit immediate data
//     delivered in the responder's completion), Read, Compare-and-Swap and
//     Fetch-and-Add on 8-byte remote words;
//   - reliable, in-order delivery per QP — the property the exclusive
//     produce protocol's ordering argument rests on (§4.2.2);
//   - receive-queue consumption by Send and WriteWithImm, so a flooded
//     responder (no credits) transitions the QP to the error state and both
//     sides observe a disconnect, as the paper's replication credit scheme
//     guards against (§4.3.2);
//   - asynchronous QP error/disconnect events for failure detection
//     (§4.2.2 "Client failure can be detected from QP disconnection events").
//
// Remote operations move real bytes between registered Go byte slices: an
// RDMA Write literally copies the requester's buffer into the responder's
// registered region without any intermediate buffer or responder CPU
// involvement, preserving the zero-copy structure of the real system.
//
// Timing model (calibrated to constants the paper reports; see DESIGN.md §4):
// each work request occupies the requester RNIC for ReqOverhead, the wire for
// its serialisation time, and the responder RNIC for RespOverhead; atomics
// additionally serialise on a per-address atomic unit with a fixed service
// time, reproducing the 2.68 Mops/s per-counter limit of §4.2.2.
package rdma

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"kafkadirect/internal/fabric"
	"kafkadirect/internal/obs"
	"kafkadirect/internal/sim"
)

// Costs collects the RNIC timing parameters.
type Costs struct {
	// ReqOverhead is requester-side per-work-request processing time.
	ReqOverhead time.Duration
	// RespOverhead is responder-side per-request processing time.
	RespOverhead time.Duration
	// AtomicService is the per-operation service time of the responder's
	// atomic execution unit (serialised per 8-byte address).
	AtomicService time.Duration
	// HeaderBytes is per-message transport header overhead on the wire.
	HeaderBytes int
	// AckBytes is the size of acknowledgement/response frames.
	AckBytes int
}

// DefaultCosts calibrates the model to the paper's microbenchmarks: 1.5 µs
// WriteWithImm round trips, ~2.4 GiB/s small-message goodput (Fig. 7),
// 2.68 Mops/s atomics (§4.2.2), ~8.3 M offloaded metadata reads/s (§5.3).
func DefaultCosts() Costs {
	return Costs{
		ReqOverhead:   200 * time.Nanosecond,
		RespOverhead:  120 * time.Nanosecond,
		AtomicService: 373 * time.Nanosecond, // 1 / 2.68 Mops
		HeaderBytes:   48,
		AckBytes:      16,
	}
}

// Opcode identifies a work-request or completion type.
type Opcode uint8

// Work request opcodes.
const (
	OpSend Opcode = iota
	OpWrite
	OpWriteImm
	OpRead
	OpCompSwap
	OpFetchAdd
	OpRecv // completion-only: a consumed receive
)

func (o Opcode) String() string {
	switch o {
	case OpSend:
		return "SEND"
	case OpWrite:
		return "WRITE"
	case OpWriteImm:
		return "WRITE_WITH_IMM"
	case OpRead:
		return "READ"
	case OpCompSwap:
		return "CMP_SWAP"
	case OpFetchAdd:
		return "FETCH_ADD"
	case OpRecv:
		return "RECV"
	}
	return fmt.Sprintf("Opcode(%d)", uint8(o))
}

// Status is a completion status.
type Status uint8

// Completion statuses.
const (
	StatusOK Status = iota
	StatusRemoteAccessErr
	StatusFlushed // QP transitioned to error before the WR executed
	StatusRNR     // responder had no receive posted (receiver not ready)
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusRemoteAccessErr:
		return "REMOTE_ACCESS_ERROR"
	case StatusFlushed:
		return "FLUSHED"
	case StatusRNR:
		return "RNR"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Access flags for memory registration.
type Access uint8

// Access flag bits.
const (
	AccessLocal Access = 1 << iota
	AccessRemoteRead
	AccessRemoteWrite
	AccessRemoteAtomic
)

// Errors returned by posting and registration.
var (
	ErrQPState     = errors.New("rdma: queue pair not in ready state")
	ErrSQFull      = errors.New("rdma: send queue full")
	ErrBadLength   = errors.New("rdma: zero-length registration")
	ErrUnreachable = errors.New("rdma: peer unreachable")
)

// Device is an RNIC attached to a fabric node. Each simulated machine owns
// one Device.
type Device struct {
	env   *sim.Env
	node  *fabric.Node
	costs Costs

	engine sim.Pacer // requester-side WR processing engine
	resp   sim.Pacer // responder-side processing engine

	nextVA   uint64
	nextKey  uint32
	nextQPN  uint32
	mrs      map[uint32]*MR        // rkey -> MR
	atomics  map[uint64]*sim.Pacer // 8-byte-aligned VA -> atomic unit
	asyncCBs []func(AsyncEvent)

	// registeredBytes tracks live MR memory: RDMA requires registered
	// buffers to stay resident, which is KafkaDirect's main cost (§7
	// "Memory usage"). Deregistration (e.g. after a consumer releases a
	// fully-read file) reduces it.
	registeredBytes uint64

	// wrFree recycles work-request records (see wrRecord), so the
	// steady-state PostSend pipeline allocates nothing per WR.
	wrFree []*wrRecord

	// qps lists every QP ever created on the device, so a device-wide
	// failure (broker crash, fault injection) can flush all of them.
	qps []*QP

	// Telemetry handles, cached from the fabric's obs bundle at
	// construction (all nil when telemetry is disabled). The stage
	// histograms tile a work request's pipeline: requester engine time,
	// request wire transit, responder processing (including any atomic-unit
	// wait), and the acknowledgement's return transit. The ack stage is
	// recorded only for signaled WRs: an unsignaled WR's transport ack is
	// off the critical path — nothing waits for it — and recording it would
	// break the latency-attribution tiling (DESIGN.md §10).
	o          *obs.Obs
	stReqNIC   *obs.Histogram // stage/rdma_req_nic
	stWire     *obs.Histogram // stage/rdma_wire
	stRespNIC  *obs.Histogram // stage/rdma_resp_nic
	stRespWire *obs.Histogram // stage/rdma_resp_wire (Read/atomic responses)
	stAckWire  *obs.Histogram // stage/rdma_ack_wire (Send/Write transport acks)
	obsPosted  *obs.Counter   // rdma/wr_posted
	obsCQEs    *obs.Counter   // rdma/cqes
	obsQPErrs  *obs.Counter   // rdma/qp_errors
}

// AsyncEvent notifies about QP state changes (disconnects, fatal errors).
type AsyncEvent struct {
	QP     *QP
	Reason string
}

// NewDevice opens a simulated RNIC on the given node.
func NewDevice(node *fabric.Node, costs Costs) *Device {
	o := node.Network().Obs()
	return &Device{
		env:        node.Network().Env(),
		node:       node,
		costs:      costs,
		nextVA:     0x10000, // an arbitrary non-zero base, like a real VA space
		mrs:        make(map[uint32]*MR),
		atomics:    make(map[uint64]*sim.Pacer),
		o:          o,
		stReqNIC:   o.Histogram("stage/rdma_req_nic"),
		stWire:     o.Histogram("stage/rdma_wire"),
		stRespNIC:  o.Histogram("stage/rdma_resp_nic"),
		stRespWire: o.Histogram("stage/rdma_resp_wire"),
		stAckWire:  o.Histogram("stage/rdma_ack_wire"),
		obsPosted:  o.Counter("rdma/wr_posted"),
		obsCQEs:    o.Counter("rdma/cqes"),
		obsQPErrs:  o.Counter("rdma/qp_errors"),
	}
}

// Node returns the fabric node the device is attached to.
func (d *Device) Node() *fabric.Node { return d.node }

// Env returns the simulation environment.
func (d *Device) Env() *sim.Env { return d.env }

// OnAsyncEvent registers a callback invoked (in scheduler context) whenever a
// QP on this device transitions to the error state.
func (d *Device) OnAsyncEvent(fn func(AsyncEvent)) { d.asyncCBs = append(d.asyncCBs, fn) }

func (d *Device) emitAsync(ev AsyncEvent) {
	for _, fn := range d.asyncCBs {
		fn(ev)
	}
}

// PD is a protection domain.
type PD struct {
	dev *Device
}

// AllocPD allocates a protection domain.
func (d *Device) AllocPD() *PD { return &PD{dev: d} }

// Device returns the owning device.
func (pd *PD) Device() *Device { return pd.dev }

// MR is a registered memory region. The registered buffer is a live Go slice:
// remote writes mutate it, remote reads observe it.
type MR struct {
	pd     *PD
	buf    []byte
	addr   uint64
	rkey   uint32
	access Access
	valid  bool
	// touched is the high-water mark (in bytes from the region start) of
	// remote writes and atomics into the region. Buffer-recycling callers
	// use it to zero only the dirty prefix of a region before reuse.
	touched int
}

// RegisterMR registers buf for the given access and returns the MR. This is
// the moral equivalent of mmap + ibv_reg_mr in the paper's produce datapath
// ("Getting RDMA access", §4.2.2).
func (pd *PD) RegisterMR(buf []byte, access Access) (*MR, error) {
	if len(buf) == 0 {
		return nil, ErrBadLength
	}
	d := pd.dev
	d.nextKey++
	mr := &MR{
		pd:     pd,
		buf:    buf,
		addr:   d.nextVA,
		rkey:   d.nextKey,
		access: access,
		valid:  true,
	}
	// Keep VA ranges disjoint and 4 KiB aligned, like a real allocator.
	d.nextVA += (uint64(len(buf)) + 0xfff) &^ 0xfff
	d.mrs[mr.rkey] = mr
	d.registeredBytes += uint64(len(buf))
	return mr, nil
}

// RegisteredBytes reports the memory currently pinned by registrations —
// the §7 "Memory usage" cost of the RDMA design.
func (d *Device) RegisteredBytes() uint64 { return d.registeredBytes }

// Deregister invalidates the MR; subsequent remote accesses fail. Consumers
// ask brokers to deregister fully-read files to cap memory usage (§4.4.2).
func (mr *MR) Deregister() {
	if !mr.valid {
		return
	}
	mr.valid = false
	delete(mr.pd.dev.mrs, mr.rkey)
	mr.pd.dev.registeredBytes -= uint64(len(mr.buf))
}

// Addr returns the region's (simulated) virtual address.
func (mr *MR) Addr() uint64 { return mr.addr }

// RKey returns the remote key.
func (mr *MR) RKey() uint32 { return mr.rkey }

// Len returns the registered length.
func (mr *MR) Len() int { return len(mr.buf) }

// Bytes exposes the registered buffer (local access).
func (mr *MR) Bytes() []byte { return mr.buf }

// Touched reports the high-water mark of remote writes and atomics into the
// region: every byte the RNIC may have mutated lies in Bytes()[:Touched()].
// Local (CPU) writes to the backing slice are not observed here.
func (mr *MR) Touched() int { return mr.touched }

// noteWrite records that [addr, addr+length) of the region was mutated.
func (mr *MR) noteWrite(addr uint64, length int) {
	if end := int(addr-mr.addr) + length; end > mr.touched {
		mr.touched = end
	}
}

// resolve maps (rkey, addr, length) to the owning MR and a sub-slice of its
// registered region, checking bounds and access rights.
func (d *Device) resolve(rkey uint32, addr uint64, length int, need Access) (*MR, []byte, Status) {
	mr, ok := d.mrs[rkey]
	if !ok || !mr.valid {
		return nil, nil, StatusRemoteAccessErr
	}
	if mr.access&need == 0 {
		return nil, nil, StatusRemoteAccessErr
	}
	if addr < mr.addr || addr+uint64(length) > mr.addr+uint64(len(mr.buf)) {
		return nil, nil, StatusRemoteAccessErr
	}
	off := addr - mr.addr
	return mr, mr.buf[off : off+uint64(length)], StatusOK
}

func (d *Device) atomicUnit(addr uint64) *sim.Pacer {
	u, ok := d.atomics[addr]
	if !ok {
		u = &sim.Pacer{}
		d.atomics[addr] = u
	}
	return u
}

// CQE is a completion queue entry.
type CQE struct {
	QP      *QP
	WRID    uint64
	Op      Opcode
	Status  Status
	ByteLen int
	// Imm holds the 32-bit immediate data for OpRecv completions generated
	// by WriteWithImm or by Send (if the sender attached immediate data).
	Imm    uint32
	HasImm bool
	// Old is the pre-operation value for atomic completions.
	Old uint64
	// At is the simulated time the completion entered the CQ. Pollers use
	// it to attribute how long a CQE sat unpolled (stage/*_cqe_wait).
	At time.Duration
}

// CQ is a completion queue. Capacity 0 means unbounded. If a bounded CQ
// overflows, every QP bound to it transitions to the error state — this is
// the failure mode the push-replication credit scheme prevents (§4.3.2).
type CQ struct {
	dev      *Device
	q        *sim.Queue[CQE]
	capacity int
	overrun  bool
	bound    []*QP
}

// CreateCQ creates a completion queue with the given capacity (0 = unbounded).
func (d *Device) CreateCQ(capacity int) *CQ {
	return &CQ{dev: d, q: sim.NewQueue[CQE](), capacity: capacity}
}

// Poll blocks the calling process until a completion is available.
func (c *CQ) Poll(p *sim.Proc) CQE { return c.q.Pop(p) }

// TryPoll returns a completion if one is immediately available.
func (c *CQ) TryPoll() (CQE, bool) { return c.q.TryPop() }

// Len reports queued completions.
func (c *CQ) Len() int { return c.q.Len() }

// Overrun reports whether the CQ has overflowed.
func (c *CQ) Overrun() bool { return c.overrun }

func (c *CQ) push(e CQE) {
	if c.capacity > 0 && c.q.Len() >= c.capacity {
		if !c.overrun {
			c.overrun = true
			for _, qp := range c.bound {
				qp.fail("completion queue overrun")
			}
		}
		return
	}
	e.At = c.dev.env.Now()
	c.dev.obsCQEs.Inc()
	c.q.Push(e)
}

// RQE is a posted receive: a buffer for an incoming Send plus the WR id
// reported in its completion.
type RQE struct {
	WRID uint64
	Buf  []byte
	// ring, on a RecvRing slot, stands in for Buf: the slot takes messages of
	// up to the ring's slotSize and gets its buffer when one lands.
	ring *RecvRing
}

// SendWR is a work request posted to a QP's send queue.
type SendWR struct {
	WRID uint64
	Op   Opcode
	// Local is the data source (Send/Write/WriteImm) or destination (Read).
	// For atomics it must be at least 8 bytes and receives the old value.
	Local []byte
	// RemoteAddr and RKey name the target region for one-sided operations.
	RemoteAddr uint64
	RKey       uint32
	// Imm is the immediate data for WriteImm (and optionally Send).
	Imm    uint32
	HasImm bool
	// Compare is the compare operand (CAS); Add is the add operand (FAA).
	Compare uint64
	Swap    uint64
	Add     uint64
	// Unsignaled suppresses the requester completion.
	Unsignaled bool
}

// QPState is the queue pair state.
type QPState uint8

// QP states (a deliberately reduced INIT→RTS→ERR lifecycle).
const (
	QPInit QPState = iota
	QPReady
	QPError
)

// QP is a reliably-connected queue pair.
type QP struct {
	dev     *Device
	num     uint32
	state   QPState
	remote  *QP
	sendCQ  *CQ
	recvCQ  *CQ
	sqDepth int
	sqInUse int
	// rq[rqHead:] are the posted, unconsumed receives, oldest first.
	rq       []RQE
	rqHead   int
	userData any
}

// QPConfig sizes a queue pair.
type QPConfig struct {
	SendDepth int // max outstanding send WRs (default 128)
	SendCQ    *CQ
	RecvCQ    *CQ
}

// CreateQP creates a queue pair in the INIT state.
func (d *Device) CreateQP(cfg QPConfig) *QP {
	if cfg.SendDepth <= 0 {
		cfg.SendDepth = 128
	}
	if cfg.SendCQ == nil {
		cfg.SendCQ = d.CreateCQ(0)
	}
	if cfg.RecvCQ == nil {
		cfg.RecvCQ = d.CreateCQ(0)
	}
	d.nextQPN++
	qp := &QP{
		dev:     d,
		num:     d.nextQPN,
		sendCQ:  cfg.SendCQ,
		recvCQ:  cfg.RecvCQ,
		sqDepth: cfg.SendDepth,
	}
	cfg.SendCQ.bound = append(cfg.SendCQ.bound, qp)
	cfg.RecvCQ.bound = append(cfg.RecvCQ.bound, qp)
	d.qps = append(d.qps, qp)
	return qp
}

// QPs returns every queue pair created on the device, in creation order.
// Fault injectors use it to pick victims deterministically.
func (d *Device) QPs() []*QP { return d.qps }

// FailAllQPs transitions every QP on the device to the error state, as a
// host crash or HCA reset would. Each failure cascades to the remote end and
// flushes posted receives, so peers observe error completions.
func (d *Device) FailAllQPs(reason string) {
	for _, qp := range d.qps {
		qp.fail(reason)
	}
}

// Connect transitions a pair of QPs (one per device) to the ready state,
// wiring them to each other. It replaces the out-of-band CM exchange real
// deployments perform over TCP — which is also how KafkaDirect bootstraps
// ("the response from the broker contains the RDMA connection string", §4.2.2).
func Connect(a, b *QP) error {
	if a.state != QPInit || b.state != QPInit {
		return ErrQPState
	}
	// The CM exchange cannot complete across a severed path (crashed node or
	// cut link) — the same check tcpnet applies on Dial.
	if !a.dev.node.Network().Reachable(a.dev.node, b.dev.node) {
		return ErrUnreachable
	}
	a.remote, b.remote = b, a
	a.state, b.state = QPReady, QPReady
	return nil
}

// Num returns the queue pair number.
func (qp *QP) Num() uint32 { return qp.num }

// State returns the current state.
func (qp *QP) State() QPState { return qp.state }

// Device returns the owning device.
func (qp *QP) Device() *Device { return qp.dev }

// Remote returns the connected peer QP (nil before Connect).
func (qp *QP) Remote() *QP { return qp.remote }

// SendCQ and RecvCQ return the bound completion queues.
func (qp *QP) SendCQ() *CQ { return qp.sendCQ }
func (qp *QP) RecvCQ() *CQ { return qp.recvCQ }

// SetUserData attaches arbitrary context to the QP (e.g. which client it
// belongs to); UserData retrieves it.
func (qp *QP) SetUserData(v any) { qp.userData = v }
func (qp *QP) UserData() any     { return qp.userData }

// PostRecv posts a receive buffer consumed by incoming Send or WriteWithImm.
func (qp *QP) PostRecv(rqe RQE) error {
	if qp.state == QPError {
		return ErrQPState
	}
	// Out of room with a quarter of the array consumed: slide the live
	// receives down instead of growing. A QP kept at a fixed depth settles
	// on an array of at most twice that and moves at most three entries per
	// post on average.
	if len(qp.rq) == cap(qp.rq) && qp.rqHead > 0 && qp.rqHead >= len(qp.rq)/4 {
		n := copy(qp.rq, qp.rq[qp.rqHead:])
		clear(qp.rq[n:])
		qp.rq, qp.rqHead = qp.rq[:n], 0
	}
	qp.rq = append(qp.rq, rqe)
	return nil
}

// RecvPosted reports the number of posted, unconsumed receives.
func (qp *QP) RecvPosted() int { return len(qp.rq) - qp.rqHead }

// popRecv consumes the oldest posted receive; the caller has checked
// RecvPosted.
func (qp *QP) popRecv() RQE {
	rqe := qp.rq[qp.rqHead]
	qp.rq[qp.rqHead] = RQE{}
	qp.rqHead++
	return rqe
}

// Disconnect moves both ends to the error state and raises async events, the
// mechanism brokers use to detect failed producers and revoke file access
// (§4.2.2).
func (qp *QP) Disconnect() {
	qp.fail("local disconnect")
}

func (qp *QP) fail(reason string) {
	if qp.state == QPError {
		return
	}
	qp.state = QPError
	qp.dev.obsQPErrs.Inc()
	// Flush posted receives as error completions. Verbs guarantees one
	// completion per posted WR once a QP enters the error state; dropping
	// them instead would leak the buffers and leave consumers parked on the
	// recv CQ forever — exactly how one-sided protocols silently lose data
	// on failure.
	rq := qp.rq[qp.rqHead:]
	qp.rq, qp.rqHead = nil, 0
	for _, rqe := range rq {
		qp.recvCQ.push(CQE{QP: qp, WRID: rqe.WRID, Op: OpRecv, Status: StatusFlushed})
	}
	qp.dev.emitAsync(AsyncEvent{QP: qp, Reason: reason})
	// Teardown is atomic in the model: both endpoints enter the error state
	// at the same instant, standing in for the transport-level RST exchange.
	if qp.remote != nil && qp.remote.state != QPError {
		qp.remote.fail("peer disconnect: " + reason)
	}
}

// PostSend posts a work request. It never blocks; NIC and wire time are
// charged through the simulated clock, and a completion is delivered to the
// send CQ (unless Unsignaled) when the request is acknowledged.
func (qp *QP) PostSend(wr SendWR) error { return qp.post(wr, nil) }

// SendCopy sends a copy of frame as an unsignaled SEND: a two-sided message
// is staged in a send buffer that belongs to the NIC until its work request
// is done and is then reused, never allocated per message. The buffer comes
// from the fabric's wire free list and goes back there with the WR's record
// (putWR) — on completion, error or flush alike, and in every case after the
// responder's last look at it. frame is the caller's again on return.
func (qp *QP) SendCopy(frame []byte) error {
	wire := qp.dev.node.Network().WireBufs()
	staged := wire.Get(len(frame))
	copy(staged, frame)
	err := qp.post(SendWR{Op: OpSend, Local: staged, Unsignaled: true}, staged)
	if err != nil {
		wire.Put(staged)
	}
	return err
}

// post is PostSend; staged, if not nil, is a wire buffer the record takes
// along and putWR returns.
func (qp *QP) post(wr SendWR, staged []byte) error {
	if qp.state != QPReady {
		return ErrQPState
	}
	if qp.sqInUse >= qp.sqDepth {
		return ErrSQFull
	}
	qp.sqInUse++
	d := qp.dev
	env := d.env
	now := env.Now()
	costs := d.costs

	// Requester RNIC engine time (per-WR processing).
	ready := d.engine.Reserve(now, costs.ReqOverhead)

	size := len(wr.Local)
	var wireBytes int
	switch wr.Op {
	case OpSend, OpWrite, OpWriteImm:
		wireBytes = size + costs.HeaderBytes
	case OpRead:
		wireBytes = costs.HeaderBytes // the request itself is tiny
	case OpCompSwap, OpFetchAdd:
		wireBytes = costs.HeaderBytes + 16
	default:
		qp.sqInUse--
		return fmt.Errorf("rdma: cannot post opcode %v", wr.Op)
	}

	// The WR hits the wire once the engine has processed it. A pooled
	// record carries it through the remaining pipeline stages — wire,
	// responder, acknowledgement — without allocating per stage.
	rec := d.getWR()
	rec.qp = qp
	rec.wr = wr
	rec.size = size
	rec.wireBytes = wireBytes
	rec.data = staged
	rec.postedAt = now
	d.obsPosted.Inc()
	env.AtArg(ready, wrOnWire, rec)
	return nil
}

// wrRecord threads one posted work request through its pipeline stages. The
// stage callbacks are package-level functions scheduled with AtArg and
// DeliverArg, and the record returns to its requester device's free list
// when the WR completes (on any path, success or error).
type wrRecord struct {
	qp        *QP
	wr        SendWR
	size      int
	wireBytes int
	// Responder-side staging, filled in execAtResponder:
	rqe    RQE    // consumed receive (OpSend, OpWriteImm)
	hasRQE bool   // a receive completion must be generated
	dst    []byte // write destination, read source, or atomic word
	data   []byte // from the fabric's wire free list: SendCopy's staging buffer, OpRead's wire snapshot
	old    uint64 // atomic pre-operation value
	// Telemetry stamps (simulated time; zeroed with the record by putWR):
	// when the WR was posted, left the requester engine, fully arrived at
	// the responder, and finished responder processing.
	postedAt time.Duration
	onWireAt time.Duration
	arriveAt time.Duration
	doneAt   time.Duration
}

// getWR takes a record from the device's free list and allocates only when
// that is empty; putWR returns it, and the record's wire buffer with it, so a
// warm device posts without allocating.
func (d *Device) getWR() *wrRecord {
	if len(d.wrFree) == 0 {
		return &wrRecord{}
	}
	n := len(d.wrFree)
	rec := d.wrFree[n-1]
	d.wrFree[n-1] = nil
	d.wrFree = d.wrFree[:n-1]
	return rec
}

func (d *Device) putWR(rec *wrRecord) {
	d.node.Network().WireBufs().Put(rec.data)
	*rec = wrRecord{}
	d.wrFree = append(d.wrFree, rec)
}

// finish completes the WR at the requester and recycles the record; it must
// be the record's final stage.
func (rec *wrRecord) finish(e CQE) {
	qp := rec.qp
	qp.complete(rec.wr, e)
	qp.dev.putWR(rec)
}

// span emits one stage of the WR as a span on node's track. The tracer is
// tested before the arguments are built: with tracing off a stage pays for
// the test alone, not for the opcode's name and the track.
func (rec *wrRecord) span(node *fabric.Node, stage string, start, end sim.Time) {
	if t := rec.qp.dev.o.Tracer(); t != nil {
		t.Emit(node.Track(), stage, rec.wr.Op.String(), start, end)
	}
}

// wrOnWire runs when the requester engine finishes processing: the request
// goes on the wire towards the responder.
func wrOnWire(v any) {
	rec := v.(*wrRecord)
	d := rec.qp.dev
	remote := rec.qp.remote
	now := d.env.Now()
	d.stReqNIC.ObserveDur(now - rec.postedAt)
	rec.span(d.node, "wr.req_nic", rec.postedAt, now)
	rec.onWireAt = now
	d.node.Network().DeliverArg(d.node, remote.dev.node, rec.wireBytes, wrAtResponder, rec)
}

// wrAtResponder runs when the request has fully arrived at the responder.
func wrAtResponder(v any) {
	rec := v.(*wrRecord)
	d := rec.qp.dev
	now := d.env.Now()
	d.stWire.ObserveDur(now - rec.onWireAt)
	rec.span(d.node, "wr.wire", rec.onWireAt, now)
	rec.arriveAt = now
	rec.qp.execAtResponder(rec)
}

// obsRespDone records the responder-processing stage (arrival to response
// emission, including any atomic-unit wait) and stamps doneAt; the *Done
// callbacks call it just before putting the response or ack on the wire.
// Those run at the responder, where rec.qp.remote is the local endpoint.
func (rec *wrRecord) obsRespDone() {
	d := rec.qp.dev
	now := d.env.Now()
	d.stRespNIC.ObserveDur(now - rec.arriveAt)
	rec.span(rec.qp.remote.dev.node, "wr.resp_nic", rec.arriveAt, now)
	rec.doneAt = now
}

// obsAcked records the return transit for signaled WRs. Read and atomic
// responses carry data the requester is waiting for, so they land in the
// on-critical-path stage/rdma_resp_wire; transport-level acks of Sends and
// Writes complete nothing the application blocks on and go to the separate
// stage/rdma_ack_wire, keeping latency-attribution tiling exact. Unsignaled
// WRs' acks are not recorded at all (nothing polls for them).
func (rec *wrRecord) obsAcked() {
	if rec.wr.Unsignaled {
		return
	}
	d := rec.qp.dev
	now := d.env.Now()
	switch rec.wr.Op {
	case OpRead, OpCompSwap, OpFetchAdd:
		d.stRespWire.ObserveDur(now - rec.doneAt)
		rec.span(d.node, "wr.resp_wire", rec.doneAt, now)
	default:
		d.stAckWire.ObserveDur(now - rec.doneAt)
		rec.span(d.node, "wr.ack_wire", rec.doneAt, now)
	}
}

// execAtResponder runs in scheduler context at the time the request fully
// arrives at the responder, performs the memory operation, and schedules the
// acknowledgement or response back to the requester. qp is the requester's
// queue pair: at the responder, qp.remote is the local endpoint.
func (qp *QP) execAtResponder(rec *wrRecord) {
	remote := qp.remote
	rdev := remote.dev
	env := qp.dev.env
	costs := rdev.costs
	wr := &rec.wr
	size := rec.size

	if qp.state != QPReady || remote.state != QPReady {
		rec.finish(CQE{Status: StatusFlushed})
		return
	}

	// Responder-side RNIC processing.
	done := rdev.resp.Reserve(env.Now(), costs.RespOverhead)

	switch wr.Op {
	case OpSend:
		if remote.RecvPosted() == 0 {
			rec.finish(CQE{Status: StatusRNR})
			remote.fail("receiver not ready (no posted receive)")
			return
		}
		rqe := remote.popRecv()
		room := len(rqe.Buf)
		if rqe.ring != nil {
			room = rqe.ring.slotSize
		}
		if room < size {
			rec.finish(CQE{Status: StatusRemoteAccessErr})
			remote.fail("receive buffer too small")
			return
		}
		rec.rqe = rqe
		rec.hasRQE = true
		env.AtArg(done, wrSendDone, rec)

	case OpWrite, OpWriteImm:
		mr, dst, status := rdev.resolve(wr.RKey, wr.RemoteAddr, size, AccessRemoteWrite)
		if status != StatusOK {
			rec.finish(CQE{Status: status})
			remote.fail("remote access error on write")
			return
		}
		mr.noteWrite(wr.RemoteAddr, size)
		if wr.Op == OpWriteImm {
			// WriteWithImm consumes a receive (buffer unused) so that the
			// responder gets a completion event carrying the immediate data.
			if remote.RecvPosted() == 0 {
				rec.finish(CQE{Status: StatusRNR})
				remote.fail("receiver not ready (WriteWithImm, no posted receive)")
				return
			}
			rec.rqe = remote.popRecv()
			rec.hasRQE = true
		}
		rec.dst = dst
		env.AtArg(done, wrWriteDone, rec)

	case OpRead:
		_, src, status := rdev.resolve(wr.RKey, wr.RemoteAddr, size, AccessRemoteRead)
		if status != StatusOK {
			rec.finish(CQE{Status: status})
			remote.fail("remote access error on read")
			return
		}
		rec.dst = src
		env.AtArg(done, wrReadDone, rec)

	case OpCompSwap, OpFetchAdd:
		amr, word, status := rdev.resolve(wr.RKey, wr.RemoteAddr, 8, AccessRemoteAtomic)
		if status != StatusOK || wr.RemoteAddr%8 != 0 {
			if status == StatusOK {
				status = StatusRemoteAccessErr
			}
			rec.finish(CQE{Status: status})
			remote.fail("remote access error on atomic")
			return
		}
		amr.noteWrite(wr.RemoteAddr, 8)
		// Atomics serialise on a per-address execution unit — the paper's
		// 2.68 Mreq/s single-counter throughput limit (§4.2.2).
		unit := rdev.atomicUnit(wr.RemoteAddr)
		opDone := unit.Reserve(done, costs.AtomicService)
		rec.dst = word
		env.AtArg(opDone, wrAtomicDone, rec)
	}
}

// wrSendDone runs at the responder when an OpSend's data has landed: deliver
// the receive completion and send the ack back.
func wrSendDone(v any) {
	rec := v.(*wrRecord)
	qp := rec.qp
	remote := qp.remote
	rdev := remote.dev
	rec.obsRespDone()
	dst := rec.rqe.Buf
	if ring := rec.rqe.ring; ring != nil {
		dst = ring.land(rec.rqe.WRID, rec.size)
	}
	copy(dst, rec.wr.Local)
	remote.recvCQ.push(CQE{
		QP: remote, WRID: rec.rqe.WRID, Op: OpRecv, Status: StatusOK,
		ByteLen: rec.size, Imm: rec.wr.Imm, HasImm: rec.wr.HasImm,
	})
	rdev.node.Network().DeliverArg(rdev.node, qp.dev.node, rdev.costs.AckBytes, wrAcked, rec)
}

// wrWriteDone runs at the responder when an OpWrite/OpWriteImm's data has
// landed.
func wrWriteDone(v any) {
	rec := v.(*wrRecord)
	qp := rec.qp
	remote := qp.remote
	rdev := remote.dev
	rec.obsRespDone()
	copy(rec.dst, rec.wr.Local)
	if rec.hasRQE {
		remote.recvCQ.push(CQE{
			QP: remote, WRID: rec.rqe.WRID, Op: OpRecv, Status: StatusOK,
			ByteLen: rec.size, Imm: rec.wr.Imm, HasImm: true,
		})
	}
	rdev.node.Network().DeliverArg(rdev.node, qp.dev.node, rdev.costs.AckBytes, wrAcked, rec)
}

// wrAcked completes an OpSend/OpWrite/OpWriteImm once the ack arrives back
// at the requester.
func wrAcked(v any) {
	rec := v.(*wrRecord)
	rec.obsAcked()
	rec.finish(CQE{Status: StatusOK})
}

// wrReadDone runs at the responder when it starts emitting the read
// response. The data is snapshotted at response time — the DMA engine reads
// memory as the response leaves the responder — into a staging buffer from
// the fabric's wire free list, recycled with the record once the contents
// have landed in the requester's local buffer.
func wrReadDone(v any) {
	rec := v.(*wrRecord)
	qp := rec.qp
	rdev := qp.remote.dev
	rec.obsRespDone()
	rec.data = rdev.node.Network().WireBufs().Get(rec.size)
	copy(rec.data, rec.dst)
	rdev.node.Network().DeliverArg(rdev.node, qp.dev.node, rec.size+rdev.costs.HeaderBytes, wrReadArrived, rec)
}

// wrReadArrived completes an OpRead once the response arrives.
func wrReadArrived(v any) {
	rec := v.(*wrRecord)
	rec.obsAcked()
	copy(rec.wr.Local, rec.data)
	rec.finish(CQE{Status: StatusOK, ByteLen: rec.size})
}

// wrAtomicDone runs at the responder's atomic unit: apply the operation and
// return the old value.
func wrAtomicDone(v any) {
	rec := v.(*wrRecord)
	qp := rec.qp
	rdev := qp.remote.dev
	word := rec.dst
	old := binary.LittleEndian.Uint64(word)
	if rec.wr.Op == OpFetchAdd {
		binary.LittleEndian.PutUint64(word, old+rec.wr.Add)
	} else if old == rec.wr.Compare {
		binary.LittleEndian.PutUint64(word, rec.wr.Swap)
	}
	rec.old = old
	rec.obsRespDone()
	rdev.node.Network().DeliverArg(rdev.node, qp.dev.node, rdev.costs.AckBytes+8, wrAtomicAcked, rec)
}

// wrAtomicAcked completes an atomic once the response arrives.
func wrAtomicAcked(v any) {
	rec := v.(*wrRecord)
	rec.obsAcked()
	if len(rec.wr.Local) >= 8 {
		binary.LittleEndian.PutUint64(rec.wr.Local, rec.old)
	}
	rec.finish(CQE{Status: StatusOK, Old: rec.old, ByteLen: 8})
}

// complete releases the SQ slot and, if signaled, delivers the requester CQE.
func (qp *QP) complete(wr SendWR, e CQE) {
	qp.sqInUse--
	if wr.Unsignaled && e.Status == StatusOK {
		return
	}
	e.QP = qp
	e.WRID = wr.WRID
	e.Op = wr.Op
	if e.ByteLen == 0 {
		e.ByteLen = len(wr.Local)
	}
	qp.sendCQ.push(e)
}
