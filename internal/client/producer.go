package client

import (
	"errors"

	"kafkadirect/internal/krecord"
	"kafkadirect/internal/kwire"
	"kafkadirect/internal/sim"
)

// Producer is implemented by all three producer stacks.
type Producer interface {
	// Produce appends records synchronously and returns the base offset.
	Produce(p *sim.Proc, recs ...krecord.Record) (int64, error)
	// ProduceAsync appends records with up to MaxInFlight outstanding
	// requests, for open-loop bandwidth workloads. Errors surface on Drain.
	ProduceAsync(p *sim.Proc, recs ...krecord.Record) error
	// Drain waits for all outstanding async produces.
	Drain(p *sim.Proc) error
	// Close tears the producer down.
	Close()
}

// Errors returned by producers.
var (
	ErrProducerClosed = errors.New("client: producer closed")
	errMixedModes     = errors.New("client: cannot mix Produce and ProduceAsync")
)

// ---------------------------------------------------------------------------
// The produce pipeline, shared by every datapath
// ---------------------------------------------------------------------------

// link is what differs between the classic and the one-sided produce path:
// how an encoded batch reaches the broker, how its acknowledgement comes
// back, and how the path is re-established after a failure. The pipeline
// calls it through the interface value it stores — never through a closure
// or method value, which would cost an allocation per produce.
type link interface {
	// submit starts one batch on its way and returns without waiting for
	// the broker: the RPC link encodes and sends a ProduceReq, the one-sided
	// link reserves a file region and posts the WRITE.
	submit(p *sim.Proc, batch []byte) error
	// awaitAck blocks for the next acknowledgement, in submission order, and
	// decodes it into ack.
	awaitAck(p *sim.Proc, ack *kwire.ProduceResp) error
	// reopen re-establishes the path to the partition's current leader after
	// a retryable failure. An error burns one backoff step.
	reopen(p *sim.Proc) error
	// close releases the link's connections.
	close()
}

// pipeline is the producer state machine: it builds batches and charges the
// §5.1 defensive copy, keeps synchronous and pipelined use apart, bounds the
// in-flight window, runs the ack loop, and retries a synchronous produce
// through link.reopen. RPCProducer and RDMAProducer embed it and are its
// link.
type pipeline struct {
	e *Endpoint
	l link
	// window bounds the batches ProduceAsync keeps in flight.
	window int
	// retained marks a link whose submit keeps reading the batch after it
	// returns: the RNIC copies a WRITE's source buffer when the request is
	// delivered, not when it is posted, so batches in flight together must
	// not share memory. Transport.Send consumes the frame before returning.
	retained bool
	// ring holds the private batch copies of a retained link's pipelined
	// produces: window+1 buffers used in turn. Acknowledgements arrive in
	// submission order and at most window batches are unacknowledged, so the
	// buffer a build takes over was last used by a batch the broker has
	// already acknowledged — and had therefore been delivered.
	ring [][]byte
	next int

	// builder is reused by every produce whose batch is dead by the next
	// one: always on an RPC link, and on any link in synchronous mode (the
	// acknowledgement or a backoff step separates two builds).
	builder *krecord.Builder
	// ack is the decoded acknowledgement, touched only by whichever of
	// Produce and ackLoop is in use.
	ack kwire.ProduceResp

	inflight int
	room     sim.Cond // signalled whenever inflight drops or asyncErr is set
	asyncErr error
	receiver bool // ProduceAsync used: the ack loop is running
	syncUsed bool // Produce used
	closed   bool
}

func newPipeline(e *Endpoint, l link, window int, retained bool, producerID int64) pipeline {
	return pipeline{e: e, l: l, window: window, retained: retained, builder: krecord.NewBuilder(producerID)}
}

// build encodes records, charging the producer-side defensive copy ("the
// producer API makes a copy of user data to prevent mutation of it during
// transmission", §5.1) — part of the 88 µs overhead that one-sided writes
// cannot remove. The returned slice belongs to the reusable builder and is
// valid until the next build, unless own asks for a private copy: that one
// is valid until window further builds have asked for theirs.
func (pl *pipeline) build(p *sim.Proc, recs []krecord.Record, own bool) ([]byte, error) {
	pl.builder.Reset()
	for _, r := range recs {
		if err := pl.builder.Append(r); err != nil {
			return nil, err
		}
	}
	batch, err := pl.builder.Bytes()
	if err != nil {
		return nil, err
	}
	if own {
		if pl.ring == nil {
			pl.ring = make([][]byte, pl.window+1)
		}
		batch = append(pl.ring[pl.next][:0], batch...)
		pl.ring[pl.next] = batch
		pl.next = (pl.next + 1) % len(pl.ring)
	}
	start := p.Now()
	p.Sleep(pl.e.cfg.ProduceCPU + pl.e.copyTime(len(batch)))
	pl.e.stEncode.ObserveDur(p.Now() - start)
	return batch, nil
}

// Produce sends one batch and waits for its acknowledgement. After a
// transport or QP failure or a leader change it reopens the link against the
// re-resolved leader with exponential backoff until RetryTimeout and sends
// the same batch again; a retry after a lost acknowledgement may duplicate
// it (at-least-once delivery).
func (pl *pipeline) Produce(p *sim.Proc, recs ...krecord.Record) (int64, error) {
	if pl.closed {
		return 0, ErrProducerClosed
	}
	if pl.receiver {
		return 0, errMixedModes
	}
	pl.syncUsed = true
	batch, err := pl.build(p, recs, false)
	if err != nil {
		return 0, err
	}
	off, err := pl.produceOnce(p, batch)
	if err == nil || !retryableErr(err) {
		return off, err
	}
	r := pl.e.newRetrier(p)
	for {
		if !r.wait(p) {
			return 0, err
		}
		if pl.l.reopen(p) != nil {
			continue // leaderless or unreachable; keep backing off
		}
		off, err = pl.produceOnce(p, batch)
		if err == nil || !retryableErr(err) {
			return off, err
		}
	}
}

// produceOnce runs one submit/acknowledge round for an already-built batch.
func (pl *pipeline) produceOnce(p *sim.Proc, batch []byte) (int64, error) {
	if err := pl.l.submit(p, batch); err != nil {
		return 0, err
	}
	if err := pl.l.awaitAck(p, &pl.ack); err != nil {
		return 0, err
	}
	wkStart := p.Now()
	p.Sleep(pl.e.cfg.ProduceWakeup)
	pl.e.stWakeup.ObserveDur(p.Now() - wkStart)
	if err := respErr(pl.ack.Err); err != nil {
		return 0, err
	}
	return pl.ack.BaseOffset, nil
}

// ProduceAsync pipelines batches up to the in-flight window.
func (pl *pipeline) ProduceAsync(p *sim.Proc, recs ...krecord.Record) error {
	if pl.closed {
		return ErrProducerClosed
	}
	if pl.syncUsed {
		return errMixedModes
	}
	if !pl.receiver {
		pl.receiver = true
		p.Env().Go("producer/acks", pl.ackLoop)
	}
	for pl.inflight >= pl.window {
		pl.room.Wait(p)
	}
	if pl.asyncErr != nil {
		return pl.asyncErr
	}
	batch, err := pl.build(p, recs, pl.retained)
	if err != nil {
		return err
	}
	if err := pl.l.submit(p, batch); err != nil {
		return err
	}
	pl.inflight++
	return nil
}

// ackLoop is the client's network thread consuming acknowledgements. The
// first failure — of the link, or reported by the broker — is kept for
// Drain; a link failure also ends the loop, since nothing further can
// arrive.
func (pl *pipeline) ackLoop(p *sim.Proc) {
	for {
		if err := pl.l.awaitAck(p, &pl.ack); err != nil {
			pl.asyncErr = err
			pl.inflight = 0
			pl.room.Broadcast()
			return
		}
		if pl.ack.Err != kwire.ErrNone && pl.asyncErr == nil {
			pl.asyncErr = pl.ack.Err.Err()
		}
		if pl.inflight > 0 {
			pl.inflight--
		}
		pl.room.Broadcast()
	}
}

// Drain waits until no produce is outstanding and returns the first error an
// asynchronous produce met.
func (pl *pipeline) Drain(p *sim.Proc) error {
	for pl.inflight > 0 && pl.asyncErr == nil {
		pl.room.Wait(p)
	}
	return pl.asyncErr
}

// Close releases the link. On the one-sided path the broker revokes the
// producer's grants when it sees the QP go.
func (pl *pipeline) Close() {
	if !pl.closed {
		pl.closed = true
		pl.l.close()
	}
}

// ---------------------------------------------------------------------------
// RPC link (original Kafka over TCP, or OSU Kafka over two-sided RDMA)
// ---------------------------------------------------------------------------

// RPCProducer sends classical produce requests over a Transport.
type RPCProducer struct {
	pipeline
	t     Transport
	dial  dialFunc
	topic string
	part  int32
	acks  int8

	// Reusable request state for the steady-state produce loop.
	rpc    rpc
	reqMsg kwire.ProduceReq
}

// NewTCPProducer dials the partition leader and returns a TCP producer.
// acks < 0 waits for full replication.
func NewTCPProducer(p *sim.Proc, e *Endpoint, topic string, part int32, acks int8, producerID int64) (*RPCProducer, error) {
	return newRPCProducer(p, e, NewTCPTransport, topic, part, acks, producerID)
}

// NewOSUProducer dials the partition leader over two-sided RDMA.
func NewOSUProducer(p *sim.Proc, e *Endpoint, topic string, part int32, acks int8, producerID int64) (*RPCProducer, error) {
	return newRPCProducer(p, e, NewOSUTransport, topic, part, acks, producerID)
}

func newRPCProducer(p *sim.Proc, e *Endpoint, dial dialFunc, topic string, part int32, acks int8, producerID int64) (*RPCProducer, error) {
	t, err := e.dialLeader(p, dial, topic, part)
	if err != nil {
		return nil, err
	}
	pr := &RPCProducer{t: t, dial: dial, topic: topic, part: part, acks: acks}
	pr.pipeline = newPipeline(e, pr, e.cfg.RPCMaxInFlight, false, producerID)
	return pr, nil
}

func (pr *RPCProducer) submit(p *sim.Proc, batch []byte) error {
	pr.reqMsg = kwire.ProduceReq{Topic: pr.topic, Partition: pr.part, Acks: pr.acks, Batch: batch}
	return pr.rpc.send(p, pr.t, &pr.reqMsg)
}

func (pr *RPCProducer) awaitAck(p *sim.Proc, ack *kwire.ProduceResp) error {
	return recvInto(p, pr.t, ack)
}

// reopen drops the transport and dials the re-resolved leader.
func (pr *RPCProducer) reopen(p *sim.Proc) error {
	pr.t.Close()
	t, err := pr.e.dialLeader(p, pr.dial, pr.topic, pr.part)
	if err != nil {
		return err
	}
	pr.t = t
	return nil
}

func (pr *RPCProducer) close() { pr.t.Close() }
