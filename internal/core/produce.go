package core

import (
	"encoding/binary"

	"kafkadirect/internal/krecord"
	"kafkadirect/internal/kwire"
	"kafkadirect/internal/rdma"
	"kafkadirect/internal/sim"
)

// This file implements the RDMA produce module (➎ in Figure 2, §4.2.2):
// producers write record batches directly into topic partition head files
// with RDMA WriteWithImm; the broker learns where the data landed from the
// 32-bit immediate value and commits the records in arrival order.

// Immediate-data encoding (Figure 4): 16-bit producer order in the high half,
// 16-bit file ID in the low half.

// EncodeImm packs an order and file ID into immediate data.
func EncodeImm(order uint16, fileID uint16) uint32 {
	return uint32(order)<<16 | uint32(fileID)
}

// DecodeImm unpacks immediate data.
func DecodeImm(imm uint32) (order uint16, fileID uint16) {
	return uint16(imm >> 16), uint16(imm)
}

// Shared-access atomic word (Figure 5): 16-bit order in the high two bytes,
// 48-bit file offset in the low six. A producer reserves space with one
// Fetch-and-Add of SharedDelta(size): order += 1, offset += size. Because
// FAA always succeeds, reservations can run past the real file size; the
// 48-bit offset field gives producers the slack to detect that overflow.

// SharedOffsetBits is the width of the offset field in the atomic word.
const SharedOffsetBits = 48

// SharedOffsetMask extracts the offset field.
const SharedOffsetMask = (uint64(1) << SharedOffsetBits) - 1

// PackShared builds the atomic word from an order and a byte offset.
func PackShared(order uint16, offset int64) uint64 {
	return uint64(order)<<SharedOffsetBits | (uint64(offset) & SharedOffsetMask)
}

// UnpackShared splits the atomic word.
func UnpackShared(word uint64) (order uint16, offset int64) {
	return uint16(word >> SharedOffsetBits), int64(word & SharedOffsetMask)
}

// SharedDelta is the FAA addend reserving size bytes: +1 order, +size offset.
func SharedDelta(size int) uint64 {
	return uint64(1)<<SharedOffsetBits + uint64(size)
}

// Write+Send notification (§4.2.2 "The choice of notification method"): the
// alternative to WriteWithImm is a plain RDMA Write followed by an RDMA Send
// carrying the request metadata. InfiniBand's in-order processing guarantees
// the data is in place before the metadata arrives. The frame below is the
// Send payload; it can be padded to emulate richer metadata (the paper
// sweeps 4–512 B sends).

// WriteSendMetaSize is the minimum metadata frame size.
const WriteSendMetaSize = 8

// EncodeWriteSendMeta builds a metadata frame of at least padTo bytes.
func EncodeWriteSendMeta(order, fileID uint16, length int, padTo int) []byte {
	n := WriteSendMetaSize
	if padTo > n {
		n = padTo
	}
	buf := make([]byte, n)
	binary.LittleEndian.PutUint16(buf[0:], order)
	binary.LittleEndian.PutUint16(buf[2:], fileID)
	binary.LittleEndian.PutUint32(buf[4:], uint32(length))
	return buf
}

// DecodeWriteSendMeta parses a metadata frame.
func DecodeWriteSendMeta(buf []byte) (order, fileID uint16, length int, ok bool) {
	if len(buf) < WriteSendMetaSize {
		return 0, 0, 0, false
	}
	return binary.LittleEndian.Uint16(buf[0:]),
		binary.LittleEndian.Uint16(buf[2:]),
		int(binary.LittleEndian.Uint32(buf[4:])), true
}

// rdmaFile is one RDMA-writable head file grant.
type rdmaFile struct {
	id      uint16
	pt      *Partition
	segID   int
	mr      *rdma.MR
	mode    kwire.AccessMode
	owner   *rdmaProducerSession // exclusive mode only
	revoked bool

	// Shared-mode coordination state.
	atomicBuf []byte // the 8-byte order|offset word, RDMA-atomic-accessible
	atomicMR  *rdma.MR
	// expectedOrder is the next order value the module may commit;
	// nextPos is the byte position that order's data starts at.
	expectedOrder uint16
	nextPos       int64
	// pending parks out-of-order arrivals, by request.order, until their
	// predecessors commit (hole prevention, §4.2.2): an RDMA producer's
	// completion or a TCP/OSU produce routed through the shared word —
	// respond knows which.
	pending map[uint16]*request
}

// produceFileTable maps 16-bit file IDs to grants.
type produceFileTable struct {
	files  map[uint16]*rdmaFile
	nextID uint16
}

func newProduceFileTable() *produceFileTable {
	return &produceFileTable{files: make(map[uint16]*rdmaFile)}
}

func (t *produceFileTable) add(f *rdmaFile) uint16 {
	for {
		t.nextID++
		if _, used := t.files[t.nextID]; !used {
			break
		}
	}
	f.id = t.nextID
	t.files[f.id] = f
	return f.id
}

func (t *produceFileTable) get(id uint16) *rdmaFile { return t.files[id] }

func (t *produceFileTable) remove(id uint16) { delete(t.files, id) }

// rdmaProduceEvent is a WriteWithImm completion turned into a request; how
// many bytes the WRITE is said to have landed is the request's size.
type rdmaProduceEvent struct {
	sess *rdmaProducerSession
	imm  uint32
}

// handleProduceAccess serves the "get RDMA produce address" control request
// (§4.2.2 "Getting RDMA access"), arriving over TCP.
func (b *Broker) handleProduceAccess(p *sim.Proc, m *kwire.ProduceAccessReq) kwire.Message {
	if !b.cfg.RDMAProduce {
		return &kwire.ProduceAccessResp{Err: kwire.ErrAccessDenied}
	}
	pt, ec := b.ledPartition(m.Topic, m.Partition)
	if ec != kwire.ErrNone {
		return &kwire.ProduceAccessResp{Err: ec}
	}
	sess := b.producerSessions[m.Session]
	if sess == nil {
		return &kwire.ProduceAccessResp{Err: kwire.ErrAccessDenied}
	}
	pt.acquire(p)
	defer pt.release()

	if pf := pt.produceFile; pf != nil && !pf.revoked {
		switch {
		case pf.mode == kwire.AccessShared && m.Mode == kwire.AccessShared:
			if pf.exhausted() {
				// A producer came back because reservations ran past the
				// file end: seal the head and regrant on a fresh file.
				b.revokeFile(pf, kwire.ErrRevoked)
				pt.sealHead()
			} else {
				// Shared grants are handed to any number of producers.
				return pf.accessResp()
			}
		case pf.mode == kwire.AccessExclusive && pf.owner == sess:
			// The owner re-requests access: it ran out of space in the head
			// file (§4.2.2) — seal it and grant the next one.
			b.revokeFile(pf, kwire.ErrRevoked)
			pt.sealHead()
		default:
			// "The broker never grants exclusive access to the same file to
			// two producers" (§4.2.2) — and never mixes modes on one file.
			return &kwire.ProduceAccessResp{Err: kwire.ErrAccessDenied}
		}
	}

	f, err := b.grantProduceFile(pt, sess, m.Mode)
	if err != nil {
		return &kwire.ProduceAccessResp{Err: kwire.ErrInternal}
	}
	return f.accessResp()
}

// grantProduceFile registers the head segment for RDMA write access and
// builds the grant state. The partition lock must be held.
func (b *Broker) grantProduceFile(pt *Partition, sess *rdmaProducerSession, mode kwire.AccessMode) (*rdmaFile, error) {
	head := pt.log.Head()
	mr, err := pt.segWriteMR(head)
	if err != nil {
		return nil, err
	}
	f := &rdmaFile{
		pt:      pt,
		segID:   head.ID(),
		mr:      mr,
		mode:    mode,
		nextPos: int64(head.Len()),
		pending: make(map[uint16]*request),
	}
	if mode == kwire.AccessExclusive {
		f.owner = sess
		sess.grants = append(sess.grants, f)
	} else {
		f.atomicBuf = make([]byte, 8)
		binary.LittleEndian.PutUint64(f.atomicBuf, PackShared(0, f.nextPos))
		amr, err := b.pd.RegisterMR(f.atomicBuf, rdma.AccessRemoteAtomic|rdma.AccessRemoteRead)
		if err != nil {
			mr.Deregister()
			return nil, err
		}
		f.atomicMR = amr
	}
	b.produceFiles.add(f)
	pt.produceFile = f
	return f, nil
}

func (f *rdmaFile) accessResp() *kwire.ProduceAccessResp {
	seg := f.pt.log.Segment(f.segID)
	resp := &kwire.ProduceAccessResp{
		Err:      kwire.ErrNone,
		FileID:   f.id,
		Addr:     f.mr.Addr(),
		RKey:     f.mr.RKey(),
		FileLen:  int64(seg.Capacity()),
		WritePos: int64(seg.Len()),
	}
	if f.mode == kwire.AccessShared {
		resp.AtomicAddr = f.atomicMR.Addr()
		resp.AtomicRKey = f.atomicMR.RKey()
	}
	return resp
}

// exhausted reports whether shared reservations have run past the file end.
func (f *rdmaFile) exhausted() bool {
	if f.mode != kwire.AccessShared {
		return false
	}
	_, off := UnpackShared(binary.LittleEndian.Uint64(f.atomicBuf))
	seg := f.pt.log.Segment(f.segID)
	return off > int64(seg.Capacity())
}

// revokeFile disables a grant: the MRs are deregistered so in-flight writes
// from faulty clients fail, and every parked produce aborts (§4.2.2).
func (b *Broker) revokeFile(f *rdmaFile, code kwire.ErrCode) {
	if f.revoked {
		return
	}
	f.revoked = true
	b.produceFiles.remove(f.id)
	if f.pt.produceFile == f {
		f.pt.produceFile = nil
	}
	// Deregister the writable MR so "a faulty client still accessing the
	// memory of a TP file" is fenced off; read registrations are untouched,
	// so consumers keep working. A future grant re-registers.
	f.pt.dropWriteMR(f.segID)
	if f.atomicMR != nil {
		f.atomicMR.Deregister()
	}
	// In order, not in map order: whose ack is posted first numbers every
	// event after it.
	for order := f.expectedOrder; len(f.pending) > 0; order++ {
		if req, ok := f.pending[order]; ok {
			delete(f.pending, order)
			b.respond(req, b.produceResp(code, 0))
			req.drop()
		}
	}
	if f.owner != nil {
		f.owner.removeGrant(f)
	}
}

// revokeSessionGrants revokes every exclusive grant owned by a disconnected
// session (QP failure detection, §4.2.2).
func (b *Broker) revokeSessionGrants(sess *rdmaProducerSession) {
	for _, f := range append([]*rdmaFile(nil), sess.grants...) {
		b.revokeFile(f, kwire.ErrRevoked)
	}
}

// handleRDMAProduce processes one WriteWithImm completion (➌→➎→➍ in
// Figure 2): map the file ID, enforce ordering, validate, and commit. Under
// the partition lock every answer is sent before the lock is released, so it
// goes through respond here instead of being returned.
func (b *Broker) handleRDMAProduce(p *sim.Proc, req *request) kwire.Message {
	b.statRDMAProduces++
	order, fileID := DecodeImm(req.rdma.imm)
	f := b.produceFiles.get(fileID)
	if f == nil || f.revoked {
		return b.produceResp(kwire.ErrRevoked, 0)
	}
	pt := f.pt
	pt.acquire(p)
	defer pt.release()
	switch {
	case f.revoked: // while we waited for the lock
		b.respond(req, b.produceResp(kwire.ErrRevoked, 0))
	case f.mode == kwire.AccessExclusive:
		// Completion events on one QP arrive in write order, but the
		// partition lock (a sim.Resource, not FIFO) may be taken by two API
		// workers in swapped order. Committing at the current append position
		// is right only while the in-flight WRITEs are all of one size, as
		// every figure's are: the k-th commit then still covers the k-th
		// region. With mixed sizes it is wrong (DESIGN.md §6, known defect).
		b.commitInPlace(p, f, req)
	default:
		req.order = order
		b.deliverShared(p, f, req)
	}
	return nil
}

// deliverShared runs the shared-access ordering machine: commit the request if
// it is next in order (and drain any successors it unblocks), otherwise park
// it with a hole-prevention timeout. Partition lock held.
func (b *Broker) deliverShared(p *sim.Proc, f *rdmaFile, req *request) {
	if f.pending[req.order] != nil {
		// A second claim to one reservation: a faulty producer, fenced off.
		b.revokeFile(f, kwire.ErrRevoked)
		b.respond(req, b.produceResp(kwire.ErrRevoked, 0))
		return
	}
	if req.order != f.expectedOrder {
		f.pending[req.order] = req
		req.pt = f.pt
		req.holds += 2 // the map's and the timeout's
		b.env.AfterArg(b.cfg.ProduceOrderTimeout, holeTimeout, req)
		return
	}
	b.processShared(p, f, req)
	for !f.revoked {
		next, ok := f.pending[f.expectedOrder]
		if !ok {
			break
		}
		delete(f.pending, f.expectedOrder)
		b.processShared(p, f, next)
		next.drop()
	}
}

func (b *Broker) processShared(p *sim.Proc, f *rdmaFile, req *request) {
	f.expectedOrder++
	seg := f.pt.log.Segment(f.segID)
	if f.nextPos+int64(req.size) > int64(seg.Capacity()) {
		// The reservation ran past the preallocated file: nothing was
		// written (well-behaved producers check the offset they fetched).
		// Every later reservation is displaced too, so the whole grant is
		// retired; producers re-request access and land on the next file.
		b.respond(req, b.produceResp(kwire.ErrRevoked, 0))
		b.revokeFile(f, kwire.ErrRevoked)
		return
	}
	b.commitInPlace(p, f, req)
	f.nextPos += int64(req.size)
}

// holeTimeout aborts the file a produce is still parked on after the
// configured timeout (§4.2.2: "if a produce request is timed out it gets
// aborted and RDMA access to the file is revoked causing abortion of all
// pending produce requests"). A file with anything pending is unrevoked,
// hence its partition's produceFile.
func holeTimeout(v any) {
	req := v.(*request)
	if f := req.pt.produceFile; f != nil && f.pending[req.order] == req {
		req.b.revokeFile(f, kwire.ErrRevoked)
	}
	req.drop()
}

// commitInPlace validates and commits the req.size bytes of one batch already
// present in the file buffer at the current append position — written there
// by a producer's RNIC, or copied into its reservation by
// produceViaSharedFileAsync — and answers req; zero data copies happen here.
// Partition lock held.
func (b *Broker) commitInPlace(p *sim.Proc, f *rdmaFile, req *request) {
	pt, size := f.pt, req.size
	seg := pt.log.Segment(f.segID)
	start := seg.Len()
	if start+size > seg.Capacity() {
		size = 0 // the size is a peer's u32: past the file end there is nothing to read
	}
	p.Sleep(b.cfg.APIFixedCost + b.crcTime(size))
	batch, _, err := krecord.Parse(seg.Bytes()[start : start+size])
	if err != nil || batch.Validate() != nil {
		// Garbage in the reserved region: fence the file off entirely —
		// offsets cannot be assigned past a corrupt region — and only then
		// fail the produce.
		b.revokeFile(f, kwire.ErrInvalidRecord)
		b.respond(req, b.produceResp(kwire.ErrInvalidRecord, 0))
		return
	}
	base, err := pt.log.CommitReserved(seg, start, size)
	if err != nil {
		b.revokeFile(f, kwire.ErrInternal)
		b.respond(req, b.produceResp(kwire.ErrInternal, 0))
		return
	}
	pt.appended()
	b.ackProduce(pt, req, true, base, base+int64(batch.Count()))
}

// produceViaSharedFileAsync routes a TCP produce through the shared-access
// machinery: the broker reserves a region by issuing an RDMA FAA to itself
// (§4.2.2), copies the already-validated batch into the reservation, and
// commits through the same ordering path as RDMA producers, which answers
// when the batch's turn comes; only a failed reservation is answered by
// return. Partition lock held by the caller and released here.
func (b *Broker) produceViaSharedFileAsync(p *sim.Proc, pt *Partition, f *rdmaFile, data []byte, req *request) kwire.Message {
	qp := b.loopbackQP()
	// Serialise post+poll pairs: concurrent workers on different partitions
	// share the loopback QP and must not steal each other's completions.
	b.loopRes.Acquire(p)
	if b.loopOld == nil {
		b.loopOld = make([]byte, 8)
	}
	err := qp.PostSend(rdma.SendWR{
		Op:         rdma.OpFetchAdd,
		Local:      b.loopOld, // reusable: loopRes serialises post/poll pairs
		RemoteAddr: f.atomicMR.Addr(),
		RKey:       f.atomicMR.RKey(),
		Add:        SharedDelta(len(data)),
	})
	var cqe rdma.CQE
	if err == nil {
		cqe = qp.SendCQ().Poll(p)
	}
	b.loopRes.Release()
	// The hole timeout takes no lock: it may have revoked f during the poll.
	if err != nil || cqe.Status != rdma.StatusOK || f.revoked {
		pt.release()
		return b.produceResp(kwire.ErrInternal, 0)
	}
	order, offset := UnpackShared(cqe.Old)
	seg := pt.log.Segment(f.segID)
	if offset+int64(len(data)) <= int64(seg.Capacity()) {
		copy(seg.Bytes()[offset:], data)
		// This copy bypasses both the log append position and the RNIC's MR
		// write tracking; record it so buffer recycling re-zeroes it.
		seg.NoteDirty(int(offset) + len(data))
	}
	req.order, req.size = order, len(data)
	b.deliverShared(p, f, req)
	pt.release()
	return nil
}

// loopbackQP lazily builds the broker's QP pair to itself, rebuilding it
// after a crash/restart cycle killed the old pair.
func (b *Broker) loopbackQP() *rdma.QP {
	if b.loopQP != nil && b.loopQP.State() != rdma.QPReady {
		b.loopQP = nil
	}
	if b.loopQP == nil {
		a := b.dev.CreateQP(rdma.QPConfig{})
		c := b.dev.CreateQP(rdma.QPConfig{})
		if err := rdma.Connect(a, c); err != nil {
			panic("core: loopback connect: " + err.Error())
		}
		b.loopQP = a
	}
	return b.loopQP
}
