package core

import (
	"encoding/binary"

	"kafkadirect/internal/kwire"
	"kafkadirect/internal/rdma"
	"kafkadirect/internal/sim"
)

// This file implements the broker's RDMA network module (Figure 2): the
// broker-side halves of client and inter-broker queue pairs, the shared
// completion queue its thread workers poll, and the translation of
// completion events into requests on the shared request queue (➋).

// producerRecvDepth is how many receives the broker keeps posted per
// producer QP. Producer clients bound their in-flight writes well below it.
const producerRecvDepth = 256

// osuRecvDepth and osuBufSize size the OSU transport's receive ring: a
// two-sided design must provision buffers for the largest request up front —
// memory the one-sided design does not need.
const (
	osuRecvDepth = 64
	osuBufSize   = 1<<20 + 4096
)

// producerMetaBufSize sizes the receive buffers on producer QPs: they carry
// Write+Send metadata frames (the paper sweeps up to 512 B sends);
// WriteWithImm consumes a receive but leaves its buffer untouched.
const producerMetaBufSize = 576

// rdmaProducerSession is the broker-side state for one RDMA producer client.
type rdmaProducerSession struct {
	b      *Broker
	id     uint32
	qp     *rdma.QP
	ring   *rdma.RecvRing
	grants []*rdmaFile
	enc    kwire.Scratch // the acknowledgement being sent
}

func (s *rdmaProducerSession) removeGrant(f *rdmaFile) {
	for i, g := range s.grants {
		if g == f {
			s.grants = append(s.grants[:i], s.grants[i+1:]...)
			return
		}
	}
}

// sendAck posts the produce acknowledgement back to the producer over the
// same QP (Figure 3): a small RDMA Send the client matches FIFO, since both
// the writes and their processing are ordered. Broker.respond is its only
// caller. Posting can only fail if the QP died or the SQ is full; ack loss is
// equivalent to a connection failure, which clients detect via QP events.
func (s *rdmaProducerSession) sendAck(resp *kwire.ProduceResp) {
	_ = s.qp.SendCopy(s.enc.Encode(0, resp))
}

// replFollowerSession is the follower-side state of a push-replication link.
type replFollowerSession struct {
	b  *Broker
	qp *rdma.QP
	pt *Partition
	// file is the follower-side replica file grant the leader writes into.
	file *replicaFile
}

// replicaFile tracks the follower head segment registered for the leader.
type replicaFile struct {
	id    uint16
	segID int
	mr    *rdma.MR
}

// replAckSession is the leader-side state of a push-replication link; its
// receives carry follower acknowledgements.
type replAckSession struct {
	b    *Broker
	qp   *rdma.QP
	link *followerLink
	ring *rdma.RecvRing
}

// ackPayloadSize is the size of the fixed follower→leader acknowledgement:
// the replica file id widened to a little-endian u32 (bytes 0-3), then the
// follower's log end offset as a little-endian u64 (bytes 4-11).
const ackPayloadSize = 12

func encodeAck(fileID uint16, leo int64) (buf [ackPayloadSize]byte) {
	binary.LittleEndian.PutUint32(buf[:], uint32(fileID))
	binary.LittleEndian.PutUint64(buf[4:], uint64(leo))
	return buf
}

func decodeAck(buf []byte) (fileID uint16, leo int64) {
	return uint16(binary.LittleEndian.Uint32(buf)), int64(binary.LittleEndian.Uint64(buf[4:]))
}

// osuSession is the broker half of an OSU-Kafka style two-sided RDMA
// connection: requests and responses travel as RDMA Sends through dedicated
// receive buffers, with the copies that entails [33].
type osuSession struct {
	b    *Broker
	qp   *rdma.QP
	ring *rdma.RecvRing
}

// replWriteEvent is a push-replication WriteWithImm completion at a follower.
type replWriteEvent struct {
	sess *replFollowerSession
	imm  uint32
	size int
}

// ConnectProducer establishes the QP pair for an RDMA producer client: the
// broker side feeds the shared completion queue, the returned client-side QP
// belongs to the caller's device. This models the connection-manager
// exchange that real deployments run over TCP ("the response from the broker
// contains the RDMA connection string", §4.2.2). The returned session id is
// quoted in ProduceAccessReq.
func (b *Broker) ConnectProducer(clientDev *rdma.Device) (*rdma.QP, uint32, error) {
	brokerQP := b.dev.CreateQP(rdma.QPConfig{RecvCQ: b.rdmaCQ, SendDepth: 512})
	b.nextSessionID++
	sess := &rdmaProducerSession{b: b, id: b.nextSessionID, qp: brokerQP,
		ring: b.dev.NewRecvRing(producerRecvDepth, producerMetaBufSize)}
	brokerQP.SetUserData(sess)
	if err := sess.ring.PostAll(brokerQP); err != nil {
		return nil, 0, err
	}
	clientQP := clientDev.CreateQP(rdma.QPConfig{SendDepth: 512})
	if err := rdma.Connect(brokerQP, clientQP); err != nil {
		return nil, 0, err
	}
	b.producerSessions[sess.id] = sess
	return clientQP, sess.id, nil
}

// ConnectConsumer establishes the QP pair for an RDMA consumer. Consumers
// only issue one-sided Reads, so the broker side needs no receives — fetch
// processing is fully offloaded to the RNIC (§4.4.2). The returned session
// id is quoted in ConsumeAccessReq and owns the metadata slot region.
func (b *Broker) ConnectConsumer(clientDev *rdma.Device) (*rdma.QP, uint32, error) {
	brokerQP := b.dev.CreateQP(rdma.QPConfig{RecvCQ: b.rdmaCQ})
	clientQP := clientDev.CreateQP(rdma.QPConfig{SendDepth: 64})
	if err := rdma.Connect(brokerQP, clientQP); err != nil {
		return nil, 0, err
	}
	b.nextSessionID++
	id := b.nextSessionID
	sess := &consumerSession{b: b, id: id}
	brokerQP.SetUserData(sess)
	b.consumerRDMASessions[id] = sess
	return clientQP, id, nil
}

// ConnectOSU establishes an OSU-Kafka style two-sided RDMA connection. The
// client sends request frames with RDMA Send and receives response frames
// the same way; the broker provisions per-connection receive buffers.
func (b *Broker) ConnectOSU(clientDev *rdma.Device) (*rdma.QP, error) {
	brokerQP := b.dev.CreateQP(rdma.QPConfig{RecvCQ: b.rdmaCQ, SendDepth: 256})
	sess := &osuSession{b: b, qp: brokerQP, ring: b.dev.NewRecvRing(osuRecvDepth, osuBufSize)}
	brokerQP.SetUserData(sess)
	if err := sess.ring.PostAll(brokerQP); err != nil {
		return nil, err
	}
	clientQP := clientDev.CreateQP(rdma.QPConfig{SendDepth: 256})
	if err := rdma.Connect(brokerQP, clientQP); err != nil {
		return nil, err
	}
	return clientQP, nil
}

// rdmaPoller is one RDMA-module worker thread: it polls the shared
// completion queue and enqueues the corresponding request (➋ in Figure 2).
func (b *Broker) rdmaPoller(p *sim.Proc) {
	for {
		cqe := b.rdmaCQ.Poll(p)
		popNow := p.Now()
		b.stCQEWait.ObserveDur(popNow - cqe.At)
		p.Sleep(b.cfg.RDMACompletionCost)
		if cqe.Status != rdma.StatusOK {
			continue
		}
		var req *request
		switch sess := cqe.QP.UserData().(type) {
		case *rdmaProducerSession:
			// Turn the completion into a produce request, ordered by arrival,
			// and keep the receive queue topped up. Two notification styles
			// land here (§4.2.2): WriteWithImm carries everything in the
			// immediate value; Write+Send delivers a metadata frame whose
			// Write has, by in-order delivery, already landed.
			imm, size, ok := cqe.Imm, cqe.ByteLen, true
			if !cqe.HasImm {
				var order, fileID uint16
				order, fileID, size, ok = DecodeWriteSendMeta(sess.ring.Frame(cqe))
				imm = EncodeImm(order, fileID)
			}
			_ = sess.ring.Post(cqe.QP, int(cqe.WRID))
			if ok {
				req = b.getRequest()
				req.rdma, req.size = rdmaProduceEvent{sess: sess, imm: imm}, size
			}
		case *replFollowerSession:
			req = b.getRequest()
			req.repl = replWriteEvent{sess: sess, imm: cqe.Imm, size: cqe.ByteLen}
		case *replAckSession:
			fileID, leo := decodeAck(sess.ring.Frame(cqe))
			_ = sess.ring.Post(cqe.QP, int(cqe.WRID))
			sess.link.onAck(fileID, leo)
		case *osuSession:
			p.Sleep(b.cfg.OSURecvCost)
			// Decode straight out of the receive buffer (every byte field is
			// copied during decode), then hand the buffer back to the RQ.
			req = b.ingest(sess.ring.Frame(cqe))
			_ = sess.ring.Post(cqe.QP, int(cqe.WRID))
			if req != nil {
				req.osu = sess
			}
		}
		if req == nil {
			continue // an ack, or a frame to drop: nothing for the API workers
		}
		pollEnd := p.Now()
		b.stRDMAPoll.ObserveDur(pollEnd - popNow)
		b.o.Tracer().Emit(b.node.Track(), "broker.rdma_poll", "broker", popNow, pollEnd)
		b.handoff(req)
	}
}
