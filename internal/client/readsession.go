package client

import (
	"fmt"
	"slices"
	"time"

	"kafkadirect/internal/core"
	"kafkadirect/internal/krecord"
	"kafkadirect/internal/kwire"
	"kafkadirect/internal/rdma"
	"kafkadirect/internal/sim"
	"kafkadirect/internal/tcpnet"
)

// This file is the one-sided fetch path (§4.4.2, Fig. 9), written once: a
// readSession is the consumer's connection to one broker, a cursor is its
// position in one partition, and poll is the policy that decides when to
// read, when to refresh and when to hop files. RDMAConsumer adds only the
// retry around it, MultiRDMAConsumer only the partition tags.

// cursor is a consumer's position in one partition: the file it is reading,
// how far it has read and delivered, and the bytes read but not yet dropped.
type cursor struct {
	topic string
	part  int32
	// file is the RDMA-readable TP file as the broker described it, with
	// LastReadable and Mutable kept current by refresh. SlotIndex is -1 for
	// a file that was already sealed when granted.
	file    kwire.ConsumeAccessResp
	readPos int64
	offset  int64 // next record offset to deliver
	// partial is where the cursor's Reads land: the complete batches the last
	// read delivered (its first delivered bytes, which the records returned
	// alias), then the incomplete batch still waiting for more bytes.
	partial   []byte
	delivered int
}

// drained reports whether every committed byte of the current file has been
// read; a drained sealed file is finished.
func (cur *cursor) drained() bool { return cur.readPos >= cur.file.LastReadable }

// readSession is a QP for one-sided Reads plus the TCP control connection
// that grants and releases files, both to the same broker. The session id
// names the broker-side state that owns the consumer's metadata slots.
type readSession struct {
	e      *Endpoint
	broker *core.Broker
	qp     *rdma.QP
	id     uint32
	ctl    *tcpnet.Conn
	rpc    rpc

	// cursors are the partitions read through this session; refresh covers
	// them all. rr is where the next round's rotation over them starts, so
	// one busy partition cannot starve the others.
	cursors []*cursor
	rr      int
	slotBuf []byte
	// recs is the slice read returns, decoded into afresh by every read.
	recs []krecord.Record

	// Stats for the measurement harness: StatMetaReads counts slot-region
	// reads — ONE per refresh, however many cursors it covers —
	// StatDataReads counts file reads.
	StatDataReads int
	StatMetaReads int
	closed        bool
}

// open connects a QP and a control connection to broker, replacing the
// session's current ones only once both exist. On failure the half-built
// session is disconnected so the broker reaps it.
func (s *readSession) open(p *sim.Proc, broker *core.Broker) error {
	qp, id, err := broker.ConnectConsumer(s.e.dev)
	if err != nil {
		return err
	}
	ctl, err := s.e.host.Dial(p, broker.Host(), core.TCPPort)
	if err != nil {
		qp.Disconnect()
		return err
	}
	if s.ctl != nil {
		s.ctl.Close()
	}
	s.broker, s.qp, s.id, s.ctl = broker, qp, id, ctl
	return nil
}

// subscribe requests access for a new cursor and adds it to the session.
func (s *readSession) subscribe(p *sim.Proc, topic string, part int32, offset int64) error {
	cur := &cursor{topic: topic, part: part, offset: offset}
	if err := s.access(p, cur); err != nil {
		return err
	}
	s.cursors = append(s.cursors, cur)
	return nil
}

// recover re-establishes the consume datapath after a fault: re-resolve the
// (possibly new) leader, rebuild the QP and control connection, and request
// read access again at the cursor's offset. A consumer only ever reads
// committed bytes, so the offset is always present on the new leader.
func (s *readSession) recover(p *sim.Proc, cur *cursor) error {
	broker, err := s.e.leader(cur.topic, cur.part)
	if err != nil {
		return err
	}
	if err := s.open(p, broker); err != nil {
		return err
	}
	// Connection management handshake latency.
	p.Sleep(100 * time.Microsecond)
	return s.access(p, cur)
}

// access performs the TCP control exchange of §4.4.2 for the file containing
// the cursor's offset and points the cursor at it.
func (s *readSession) access(p *sim.Proc, cur *cursor) error {
	req := kwire.ConsumeAccessReq{Topic: cur.topic, Partition: cur.part, Offset: cur.offset, Session: s.id}
	var resp kwire.ConsumeAccessResp
	if err := s.rpc.call(p, s.ctl, &req, &resp); err != nil {
		return err
	}
	if err := respErr(resp.Err); err != nil {
		return err
	}
	cur.file = resp
	cur.readPos = resp.StartPos
	cur.partial, cur.delivered = cur.partial[:0], 0
	return nil
}

// hop moves a cursor off a sealed, fully read file: hand the file back so
// the broker can deregister it ("an RDMA consumer also notifies the broker
// about the files that can be unregistered from RDMA access to reduce memory
// usage", §4.4.2), then request the file holding the next offset.
func (s *readSession) hop(p *sim.Proc, cur *cursor) error {
	req := kwire.ReleaseFileReq{Topic: cur.topic, Partition: cur.part, FileID: cur.file.FileID, Session: s.id}
	var resp kwire.ReleaseFileResp
	if err := s.rpc.call(p, s.ctl, &req, &resp); err != nil {
		return err
	}
	if err := resp.Err.Err(); err != nil {
		return err
	}
	return s.access(p, cur)
}

// refresh updates lastReadable and mutable on every cursor that holds a
// metadata slot with ONE RDMA Read over the smallest contiguous span of the
// session's slot region covering them (Fig. 9) — for a single cursor, one
// slot: the 2.5 µs operation that replaces a 200 µs empty fetch.
func (s *readSession) refresh(p *sim.Proc) error {
	lo, hi := -1, -1
	var addr uint64
	var rkey uint32
	for _, cur := range s.cursors {
		idx := int(cur.file.SlotIndex)
		if idx < 0 {
			continue
		}
		if lo == -1 || idx < lo {
			lo = idx
		}
		if idx > hi {
			hi = idx
		}
		addr, rkey = cur.file.SlotRegionAddr, cur.file.SlotRegionRKey
	}
	if lo == -1 {
		return nil // no mutable files; sealed files advance by hopping
	}
	span := (hi - lo + 1) * core.SlotSize
	if len(s.slotBuf) < span {
		s.slotBuf = make([]byte, span)
	}
	err := s.qp.PostSend(rdma.SendWR{
		Op: rdma.OpRead, Local: s.slotBuf[:span],
		RemoteAddr: addr + uint64(lo*core.SlotSize), RKey: rkey,
	})
	if err != nil {
		return err
	}
	if cqe := s.qp.SendCQ().Poll(p); cqe.Status != rdma.StatusOK {
		return fmt.Errorf("%w: slot read %v", errQPFailed, cqe.Status)
	}
	s.StatMetaReads++
	for _, cur := range s.cursors {
		if idx := int(cur.file.SlotIndex); idx >= 0 {
			off := (idx - lo) * core.SlotSize
			cur.file.LastReadable, cur.file.Mutable = core.ReadSlot(s.slotBuf[off : off+core.SlotSize])
		}
	}
	return nil
}

// poll runs one consume round over the session's cursors:
//
//  1. in rotation order, read the first cursor with unread committed bytes;
//  2. otherwise hop the first sealed, fully read cursor to its next file and
//     end the round — a hop costs a round of its own;
//  3. otherwise refresh every slot with one Read and read the first cursor in
//     rotation that it revealed, in the same round: the latency figures
//     depend on a record being delivered by the poll that discovers it;
//  4. otherwise return empty — nothing new yet, or a file sealed under us
//     and the next round hops.
//
// It returns the cursor read and the records its read completed (see read).
func (s *readSession) poll(p *sim.Proc, depth int) (*cursor, []krecord.Record, error) {
	if s.closed {
		return nil, nil, ErrProducerClosed
	}
	cur := s.unread()
	if cur == nil {
		for _, c := range s.cursors {
			if c.drained() && !c.file.Mutable {
				return nil, nil, s.hop(p, c)
			}
		}
		if err := s.refresh(p); err != nil {
			return nil, nil, err
		}
		if cur = s.unread(); cur == nil {
			return nil, nil, nil
		}
	}
	recs, err := s.read(p, cur, depth)
	return cur, recs, err
}

// unread returns the first cursor in rotation order that has unread
// committed bytes, starting the next rotation after it, or nil.
func (s *readSession) unread() *cursor {
	for k := range s.cursors {
		i := (s.rr + k) % len(s.cursors)
		if !s.cursors[i].drained() {
			s.rr = i + 1
			return s.cursors[i]
		}
	}
	return nil
}

// read pulls the next unread bytes of the cursor's file — up to depth
// FetchSize chunks, posted together so the RNIC overlaps them and bandwidth
// is no longer one round trip per chunk (§7) — straight into the tail of the
// cursor's buffer, and returns the records of every batch those bytes
// complete. The slice is the session's, rewritten by its next read; the
// records alias the cursor's buffer, which its next read overwrites. The
// cursor must not be drained.
func (s *readSession) read(p *sim.Proc, cur *cursor, depth int) ([]krecord.Record, error) {
	if depth < 1 {
		depth = 1
	}
	// What the last read delivered is the caller's no longer.
	if cur.delivered > 0 {
		cur.partial = append(cur.partial[:0], cur.partial[cur.delivered:]...)
		cur.delivered = 0
	}
	fetch := int64(s.e.cfg.FetchSize)
	total := cur.file.LastReadable - cur.readPos
	if total > int64(depth)*fetch {
		total = int64(depth) * fetch
	}
	chunks := int((total + fetch - 1) / fetch) // all full but possibly the last
	// The Reads land past the buffer's length, which grows over them only
	// once every one has completed: a failed post or completion leaves it
	// as it was.
	old := len(cur.partial)
	cur.partial = slices.Grow(cur.partial, int(total))
	tail := cur.partial[old : old+int(total)]
	for at := int64(0); at < total; at += fetch {
		end := min(at+fetch, total)
		err := s.qp.PostSend(rdma.SendWR{
			Op: rdma.OpRead, Local: tail[at:end],
			RemoteAddr: cur.file.Addr + uint64(cur.readPos+at), RKey: cur.file.RKey,
		})
		if err != nil {
			return nil, err
		}
	}
	for i := 0; i < chunks; i++ {
		if cqe := s.qp.SendCQ().Poll(p); cqe.Status != rdma.StatusOK {
			return nil, fmt.Errorf("%w: read %v", errQPFailed, cqe.Status)
		}
		s.StatDataReads++
	}
	cur.partial = cur.partial[:old+int(total)]
	cur.readPos += total
	p.Sleep(s.e.cfg.ConsumeCPU)

	// Find the boundary of complete batches; a partial tail stays buffered
	// until more bytes arrive (§4.4.2).
	consumed := 0
	for {
		size, ok := krecord.PeekSize(cur.partial[consumed:])
		if !ok || consumed+size > len(cur.partial) {
			break
		}
		consumed += size
	}
	if consumed == 0 {
		return nil, nil
	}
	// Validate integrity and decode the completed batches where they landed.
	// The copy the paper attributes to Kafka's consumer API requiring
	// on-heap buffers (§5.3) is charged here, not made: the Reads already put
	// the bytes in client memory.
	p.Sleep(s.e.copyTime(consumed) + s.e.crcTime(consumed))
	cur.delivered = consumed
	var err error
	s.recs, err = decodeBatches(s.recs[:0], cur.partial[:consumed], &cur.offset)
	return s.recs, err
}

// close disconnects the QP; the broker tears the session down, slots and
// registrations included, when it sees the QP go.
func (s *readSession) close() {
	if !s.closed {
		s.closed = true
		s.qp.Disconnect()
		s.ctl.Close()
	}
}
