package client

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"kafkadirect/internal/core"
	"kafkadirect/internal/kwire"
	"kafkadirect/internal/rdma"
	"kafkadirect/internal/sim"
	"kafkadirect/internal/tcpnet"
)

// ---------------------------------------------------------------------------
// KafkaDirect one-sided link (§4.2.2)
// ---------------------------------------------------------------------------

// NotifyMode selects how the broker learns about a written batch (§4.2.2
// "The choice of notification method").
type NotifyMode uint8

// Notification modes.
const (
	// NotifyWriteImm piggybacks everything in the 32-bit immediate value —
	// one work request per produce, the paper's default.
	NotifyWriteImm NotifyMode = iota
	// NotifyWriteSend posts a plain Write followed by a Send carrying a
	// metadata frame — two work requests, but room for richer metadata.
	NotifyWriteSend
)

// RDMAProducer writes record batches directly into broker TP files.
type RDMAProducer struct {
	pipeline
	broker *core.Broker
	topic  string
	part   int32
	mode   kwire.AccessMode

	// Notify selects the notification method; MetaSize pads the Write+Send
	// metadata frame (the paper evaluates 4-512 B sends).
	Notify   NotifyMode
	MetaSize int

	qp      *rdma.QP
	session uint32
	ctl     *tcpnet.Conn
	rpc     rpc

	// grant is the RDMA-writable head file as the broker described it. In
	// exclusive mode WritePos is the next write position, advanced locally.
	grant kwire.ProduceAccessResp
	// acks receives the broker's acknowledgements; it outlives a QP and is
	// posted afresh on each new one.
	acks *rdma.RecvRing
	// faaBuf receives old atomic values in shared mode.
	faaBuf []byte
}

// NewRDMAProducer establishes QPs and requests RDMA produce access in the
// given mode. On failure it leaves nothing open at the broker.
func NewRDMAProducer(p *sim.Proc, e *Endpoint, topic string, part int32, mode kwire.AccessMode, producerID int64) (*RDMAProducer, error) {
	broker, err := e.leader(topic, part)
	if err != nil {
		return nil, err
	}
	pr := &RDMAProducer{topic: topic, part: part, mode: mode, faaBuf: make([]byte, 8)}
	pr.pipeline = newPipeline(e, pr, e.cfg.MaxInFlight, true, producerID)
	pr.acks = e.dev.NewRecvRing(2*e.cfg.MaxInFlight, 64)
	if err := pr.open(p, broker); err != nil {
		return nil, err
	}
	if err := pr.requestAccess(p); err != nil {
		// A refused grant (e.g. NOT_LEADER on stale metadata) would otherwise
		// leave the session in the broker's table until a QP event that
		// never comes.
		pr.close()
		return nil, err
	}
	return pr, nil
}

// Grant exposes the current file grant (tests, diagnostics).
func (pr *RDMAProducer) Grant() (fileID uint16, writePos, length int64) {
	return pr.grant.FileID, pr.grant.WritePos, pr.grant.FileLen
}

// open connects a QP bundle with its ack receives posted and a control
// connection to broker, replacing the producer's connections only once both
// exist. If the dial fails the QP is disconnected so the broker reaps the
// half-built session.
func (pr *RDMAProducer) open(p *sim.Proc, broker *core.Broker) error {
	qp, session, err := broker.ConnectProducer(pr.e.dev)
	if err != nil {
		return err
	}
	if err := pr.acks.PostAll(qp); err != nil {
		return err // only a QP that already failed refuses a receive
	}
	ctl, err := pr.e.host.Dial(p, broker.Host(), core.TCPPort)
	if err != nil {
		qp.Disconnect()
		return err
	}
	if pr.ctl != nil {
		pr.ctl.Close()
	}
	pr.broker, pr.qp, pr.session, pr.ctl = broker, qp, session, ctl
	return nil
}

// reconnect rebuilds the QP bundle after a fatal QP error — InfiniBand
// access errors move the QP to the error state, so "re-enabling the RDMA
// datapath by requesting RDMA access again" (§4.2.2) implies a fresh
// connection. The leader is re-resolved first: after a failover the grants
// must come from the new leader, and the control connection follows it.
func (pr *RDMAProducer) reconnect(p *sim.Proc) error {
	broker, err := pr.e.leader(pr.topic, pr.part)
	if err != nil {
		return err
	}
	if err := pr.open(p, broker); err != nil {
		return err
	}
	// Connection management handshake latency.
	p.Sleep(100 * time.Microsecond)
	return nil
}

// requestAccess performs the TCP control exchange of §4.2.2, (re)acquiring
// write access to the current head file. A dead QP or control connection is
// re-established first (against the re-resolved leader).
func (pr *RDMAProducer) requestAccess(p *sim.Proc) error {
	if pr.qp.State() != rdma.QPReady || pr.ctl.Closed() {
		if err := pr.reconnect(p); err != nil {
			return err
		}
	}
	req := kwire.ProduceAccessReq{Topic: pr.topic, Partition: pr.part, Mode: pr.mode, Session: pr.session}
	var resp kwire.ProduceAccessResp
	if err := pr.rpc.call(p, pr.ctl, &req, &resp); err != nil {
		return err
	}
	if err := respErr(resp.Err); err != nil {
		return err
	}
	pr.grant = resp
	return nil
}

// reserve obtains the write position and order for a batch of the given
// size: locally in exclusive mode, via RDMA FAA in shared mode (Fig. 5).
// It re-requests access when the current file has no room ("to timely
// request allocation of a new head file", §4.2.2).
func (pr *RDMAProducer) reserve(p *sim.Proc, size int) (order uint16, pos int64, err error) {
	for attempt := 0; attempt < 8; attempt++ {
		if pr.mode == kwire.AccessExclusive {
			if pr.grant.WritePos+int64(size) > pr.grant.FileLen {
				if err := pr.requestAccess(p); err != nil {
					return 0, 0, err
				}
				continue
			}
			pos = pr.grant.WritePos
			pr.grant.WritePos += int64(size)
			return 0, pos, nil
		}
		// Shared mode: one Fetch-and-Add reserves both the order and the
		// region (§4.2.2).
		err := pr.qp.PostSend(rdma.SendWR{
			Op:         rdma.OpFetchAdd,
			Local:      pr.faaBuf,
			RemoteAddr: pr.grant.AtomicAddr,
			RKey:       pr.grant.AtomicRKey,
			Add:        core.SharedDelta(size),
		})
		if err != nil {
			return 0, 0, err
		}
		cqe := pr.qp.SendCQ().Poll(p)
		pr.e.stCQEWait.ObserveDur(p.Now() - cqe.At)
		if cqe.Status != rdma.StatusOK {
			// The word was deregistered: the grant was revoked or rolled.
			if err := pr.requestAccess(p); err != nil {
				return 0, 0, err
			}
			continue
		}
		order, pos = core.UnpackShared(binary.LittleEndian.Uint64(pr.faaBuf))
		if pos+int64(size) > pr.grant.FileLen {
			// Overflow detected through the 48-bit offset field: ask for a
			// new file; the broker seals the exhausted one.
			if err := pr.requestAccess(p); err != nil {
				return 0, 0, err
			}
			continue
		}
		return order, pos, nil
	}
	return 0, 0, fmt.Errorf("client: could not reserve %d bytes after retries", size)
}

// post writes the batch into the reserved region and notifies the broker,
// using the configured notification method. The RNIC reads batch when the
// request is delivered, so the caller must leave it untouched until then.
func (pr *RDMAProducer) post(order uint16, pos int64, batch []byte) error {
	if pr.Notify == NotifyWriteSend {
		// Write the data, then send the metadata: in-order delivery
		// guarantees the broker never observes the metadata before the
		// data (§4.2.2).
		err := pr.qp.PostSend(rdma.SendWR{
			Op:         rdma.OpWrite,
			Local:      batch,
			RemoteAddr: pr.grant.Addr + uint64(pos),
			RKey:       pr.grant.RKey,
			Unsignaled: true,
		})
		if err != nil {
			return err
		}
		meta := core.EncodeWriteSendMeta(order, pr.grant.FileID, len(batch), pr.MetaSize)
		return pr.qp.PostSend(rdma.SendWR{Op: rdma.OpSend, Local: meta, Unsignaled: true})
	}
	return pr.qp.PostSend(rdma.SendWR{
		Op:         rdma.OpWriteImm,
		Local:      batch,
		RemoteAddr: pr.grant.Addr + uint64(pos),
		RKey:       pr.grant.RKey,
		Imm:        core.EncodeImm(order, pr.grant.FileID),
		Unsignaled: true,
	})
}

// submit is the one-sided produce: reserve, then write (Fig. 3).
func (pr *RDMAProducer) submit(p *sim.Proc, batch []byte) error {
	order, pos, err := pr.reserve(p, len(batch))
	if err != nil {
		return err
	}
	return pr.post(order, pos, batch)
}

// awaitAck consumes one broker acknowledgement from the receive queue
// (Fig. 3).
func (pr *RDMAProducer) awaitAck(p *sim.Proc, ack *kwire.ProduceResp) error {
	cqe := pr.qp.RecvCQ().Poll(p)
	pr.e.stCQEWait.ObserveDur(p.Now() - cqe.At)
	if cqe.Status != rdma.StatusOK {
		return fmt.Errorf("%w: producer ack %v", errQPFailed, cqe.Status)
	}
	// Decode before reposting the receive: decoding copies every byte field,
	// so the buffer can go straight back to the RQ.
	_, err := kwire.DecodeInto(pr.acks.Frame(cqe), ack)
	if rerr := pr.acks.Post(pr.qp, int(cqe.WRID)); rerr != nil {
		// A failed repost means the QP died under us. Report it rather than
		// silently losing an RQ slot: the produce retry path reconnects and
		// re-sends the batch (at-least-once), whereas a shrinking RQ ends
		// with the producer parked forever on an empty completion queue.
		return fmt.Errorf("%w: repost ack recv: %v", errQPFailed, rerr)
	}
	if err == kwire.ErrKindMismatch {
		return fmt.Errorf("client: unexpected ack kind")
	}
	return err
}

// reopen re-establishes the datapath: requestAccess reconnects a dead QP or
// control connection against the re-resolved leader.
func (pr *RDMAProducer) reopen(p *sim.Proc) error { return pr.requestAccess(p) }

// close disconnects the QP (the broker revokes grants via the QP event).
func (pr *RDMAProducer) close() {
	pr.qp.Disconnect()
	pr.ctl.Close()
}

// ReserveOnly performs a shared-mode reservation without ever writing the
// region — fault injection for the hole-prevention machinery (§4.2.2): the
// produce that should follow never arrives, so the broker's order timeout
// must fire.
func (pr *RDMAProducer) ReserveOnly(p *sim.Proc, size int) error {
	if pr.mode != kwire.AccessShared {
		return fmt.Errorf("client: ReserveOnly requires shared mode")
	}
	_, _, err := pr.reserve(p, size)
	return err
}

// WriteGarbage reserves a region and fills it with bytes that cannot pass
// the broker's CRC validation — fault injection for corrupt producers.
func (pr *RDMAProducer) WriteGarbage(p *sim.Proc, size int) error {
	order, pos, err := pr.reserve(p, size)
	if err != nil {
		return err
	}
	junk := bytes.Repeat([]byte{0xa5}, size)
	return pr.post(order, pos, junk)
}
