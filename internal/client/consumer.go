package client

import (
	"kafkadirect/internal/krecord"
	"kafkadirect/internal/kwire"
	"kafkadirect/internal/sim"
)

// Consumer is implemented by both consumer stacks.
type Consumer interface {
	// Poll returns the next available records (possibly none) starting at
	// the consumer's position, advancing it past everything returned. The
	// slice and the bytes its records point to are the consumer's and valid
	// until its next Poll: a caller that keeps a record longer copies its
	// Key and Value out (bytes.Clone).
	Poll(p *sim.Proc) ([]krecord.Record, error)
	// Position returns the next offset the consumer will return.
	Position() int64
	// Close tears the consumer down.
	Close()
}

// ---------------------------------------------------------------------------
// RPC consumer (original Kafka over TCP, or OSU Kafka)
// ---------------------------------------------------------------------------

// RPCConsumer fetches records with classical fetch requests.
type RPCConsumer struct {
	e      *Endpoint
	t      Transport
	dial   dialFunc
	topic  string
	part   int32
	offset int64
	group  string
	// LongPoll controls whether fetches park at the broker when no data is
	// available; benchmarks measuring empty-fetch cost disable it.
	LongPoll bool
	// MaxBytesOverride, when positive, replaces the configured fetch size —
	// e.g. 1 forces the broker to return a single batch per fetch, the
	// anti-batching setting of the paper's Fig. 20.
	MaxBytesOverride int
	closed           bool

	// Reusable encode/decode state, so that neither a Poll nor a commit
	// allocates once warm. respMsg.Data is the buffer every fetch lands in and
	// the records Poll returns alias; recs, the slice Poll returns, is
	// decoded into afresh by every Poll.
	rpc        rpc
	reqMsg     kwire.FetchReq
	respMsg    kwire.FetchResp
	recs       []krecord.Record
	commitReq  kwire.OffsetCommitReq
	commitResp kwire.OffsetCommitResp
}

// NewTCPConsumer dials the partition leader over TCP.
func NewTCPConsumer(p *sim.Proc, e *Endpoint, topic string, part int32, offset int64, group string) (*RPCConsumer, error) {
	return newRPCConsumer(p, e, NewTCPTransport, topic, part, offset, group)
}

// NewOSUConsumer dials the partition leader over two-sided RDMA.
func NewOSUConsumer(p *sim.Proc, e *Endpoint, topic string, part int32, offset int64, group string) (*RPCConsumer, error) {
	return newRPCConsumer(p, e, NewOSUTransport, topic, part, offset, group)
}

func newRPCConsumer(p *sim.Proc, e *Endpoint, dial dialFunc, topic string, part int32, offset int64, group string) (*RPCConsumer, error) {
	t, err := e.dialLeader(p, dial, topic, part)
	if err != nil {
		return nil, err
	}
	return &RPCConsumer{e: e, t: t, dial: dial, topic: topic, part: part, offset: offset, group: group, LongPoll: true}, nil
}

// Poll issues one fetch request, redialing the (re-resolved) leader with
// exponential backoff after a transport failure or leader change. Fetches
// are idempotent — the consumer's offset only advances on success — so
// retries never skip or duplicate records. The returned slice and the bytes
// its records point to (the fetch response they were decoded from) are
// rewritten by the next Poll on this consumer: copy out what is kept longer.
func (c *RPCConsumer) Poll(p *sim.Proc) ([]krecord.Record, error) {
	recs, err := c.pollOnce(p)
	if err == nil || !retryableErr(err) {
		return recs, err
	}
	r := c.e.newRetrier(p)
	for {
		if !r.wait(p) {
			return nil, err
		}
		c.t.Close()
		t, derr := c.e.dialLeader(p, c.dial, c.topic, c.part)
		if derr != nil {
			continue // leaderless or unreachable; keep backing off
		}
		c.t = t
		recs, err = c.pollOnce(p)
		if err == nil || !retryableErr(err) {
			return recs, err
		}
	}
}

// pollOnce issues one fetch request.
func (c *RPCConsumer) pollOnce(p *sim.Proc) ([]krecord.Record, error) {
	if c.closed {
		return nil, ErrProducerClosed
	}
	var wait int64
	if c.LongPoll {
		wait = c.e.cfg.FetchMaxWait.Microseconds()
	}
	maxBytes := c.e.cfg.FetchMaxBytes
	if c.MaxBytesOverride > 0 {
		maxBytes = c.MaxBytesOverride
	}
	c.reqMsg = kwire.FetchReq{
		Topic:         c.topic,
		Partition:     c.part,
		Offset:        c.offset,
		MaxBytes:      int32(maxBytes),
		MaxWaitMicros: wait,
		ReplicaID:     -1,
	}
	resp := &c.respMsg
	if err := c.rpc.call(p, c.t, &c.reqMsg, resp); err != nil {
		return nil, err
	}
	if err := respErr(resp.Err); err != nil {
		return nil, err
	}
	p.Sleep(c.e.cfg.ConsumeCPU)
	if len(resp.Data) == 0 {
		return nil, nil
	}
	p.Sleep(c.e.crcTime(len(resp.Data)))
	// The records alias resp.Data, which the next fetch decodes over.
	var err error
	c.recs, err = decodeBatches(c.recs[:0], resp.Data, &c.offset)
	return c.recs, err
}

// decodeBatches validates and decodes the complete batches in data — bytes
// a broker wrote (a fetch response) or that were read out of its files — and
// appends their records from *offset on to dst, advancing *offset past every
// batch decoded. The records alias data.
func decodeBatches(dst []krecord.Record, data []byte, offset *int64) ([]krecord.Record, error) {
	_, err := krecord.Scan(data, func(b krecord.Batch) error {
		err := b.Validate()
		if err == nil {
			dst, err = b.AppendRecords(dst, *offset)
		}
		if err == nil {
			*offset = b.NextOffset()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// Position returns the next offset to be fetched.
func (c *RPCConsumer) Position() int64 { return c.offset }

// CommitOffset records the consumer's progress at the broker (§5.4).
func (c *RPCConsumer) CommitOffset(p *sim.Proc) error {
	c.commitReq = kwire.OffsetCommitReq{Group: c.group, Topic: c.topic, Partition: c.part, Offset: c.offset}
	if err := c.rpc.call(p, c.t, &c.commitReq, &c.commitResp); err != nil {
		return err
	}
	return c.commitResp.Err.Err()
}

// Close releases the transport.
func (c *RPCConsumer) Close() {
	if !c.closed {
		c.closed = true
		c.t.Close()
	}
}

// ---------------------------------------------------------------------------
// KafkaDirect RDMA consumer (§4.4.2)
// ---------------------------------------------------------------------------

// RDMAConsumer reads records with one-sided RDMA Reads: data from the TP
// file, availability from the metadata slot — zero broker CPU (§4.4.2). It is
// a read session with a single cursor.
type RDMAConsumer struct {
	readSession
	cur *cursor

	// Pipeline is the number of concurrently outstanding data reads (>=1).
	// "An RDMA consumer can have multiple outstanding read requests" (§7);
	// deep pipelines trade a little latency for bandwidth.
	Pipeline int
}

// NewRDMAConsumer establishes the QP and requests read access starting at
// the given offset. On failure it leaves nothing open at the broker.
func NewRDMAConsumer(p *sim.Proc, e *Endpoint, topic string, part int32, offset int64) (*RDMAConsumer, error) {
	broker, err := e.leader(topic, part)
	if err != nil {
		return nil, err
	}
	c := &RDMAConsumer{readSession: readSession{e: e}}
	if err := c.open(p, broker); err != nil {
		return nil, err
	}
	if err := c.subscribe(p, topic, part, offset); err != nil {
		c.close()
		return nil, err
	}
	c.cur = c.cursors[0]
	return c, nil
}

// Poll performs one consume round, recovering through a reconnect (with
// exponential backoff, up to RetryTimeout) after a QP failure,
// control-connection failure, or leader change. Reads are idempotent — the
// delivery offset only advances when complete batches are returned — so
// retries never skip or duplicate records. The returned slice and the bytes
// its records point to (the client memory the Reads landed in) are
// rewritten by the next Poll on this consumer: copy out what is kept longer.
func (c *RDMAConsumer) Poll(p *sim.Proc) ([]krecord.Record, error) {
	recs, err := c.pollOnce(p)
	if err == nil || !retryableErr(err) {
		return recs, err
	}
	r := c.e.newRetrier(p)
	for {
		if !r.wait(p) {
			return nil, err
		}
		if c.recover(p, c.cur) != nil {
			continue // leaderless or unreachable; keep backing off
		}
		recs, err = c.pollOnce(p)
		if err == nil || !retryableErr(err) {
			return recs, err
		}
	}
}

// pollOnce runs one consume round of the session's poll policy, Pipeline
// reads deep. An empty result means "nothing new yet".
func (c *RDMAConsumer) pollOnce(p *sim.Proc) ([]krecord.Record, error) {
	_, recs, err := c.poll(p, c.Pipeline)
	return recs, err
}

// Position returns the next offset to be delivered.
func (c *RDMAConsumer) Position() int64 { return c.cur.offset }

// Close disconnects the QP; the broker tears the session down.
func (c *RDMAConsumer) Close() { c.close() }
