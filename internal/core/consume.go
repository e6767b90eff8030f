package core

import (
	"encoding/binary"

	"kafkadirect/internal/klog"
	"kafkadirect/internal/kwire"
	"kafkadirect/internal/rdma"
	"kafkadirect/internal/sim"
)

// This file implements the RDMA consume module (➑ in Figure 2, §4.4.2):
// brokers register TP files for RDMA Reads and maintain, per consumer, a
// contiguous region of RDMA-readable metadata slots describing the mutable
// files the consumer subscribes to (Figure 9). A consumer refreshes the
// metadata for ALL its files with a single RDMA Read of that region, and the
// broker CPU is never involved in a fetch.

// SlotSize is the byte size of one metadata slot:
//
//	off 0: lastReadable uint64 — position after the last committed batch
//	off 8: mutable      byte  — 0 once the file is sealed
//	off 9: pad to 16
const SlotSize = 16

// WriteSlot encodes slot contents into a 16-byte region.
func WriteSlot(dst []byte, lastReadable int64, mutable bool) {
	binary.LittleEndian.PutUint64(dst, uint64(lastReadable))
	if mutable {
		dst[8] = 1
	} else {
		dst[8] = 0
	}
}

// ReadSlot decodes slot contents.
func ReadSlot(src []byte) (lastReadable int64, mutable bool) {
	return int64(binary.LittleEndian.Uint64(src)), src[8] != 0
}

// consumerSession owns one consumer's slot region.
type consumerSession struct {
	b        *Broker
	id       uint32
	region   []byte
	regionMR *rdma.MR
	slots    []*slotRef // nil entries are free
}

// slotRef binds a slot index in a consumer's region to a partition segment.
type slotRef struct {
	sess  *consumerSession
	idx   int
	pt    *Partition
	segID int
}

// update rewrites the slot to reflect the segment's current state. The
// broker calls this whenever the last readable byte or mutability changes.
func (r *slotRef) update(seg *klog.Segment) {
	off := r.idx * SlotSize
	WriteSlot(r.sess.region[off:off+SlotSize], int64(seg.Committed()), !seg.Sealed())
}

// ensureRegion lazily allocates and registers the slot region.
func (s *consumerSession) ensureRegion() error {
	if s.region != nil {
		return nil
	}
	s.region = make([]byte, s.b.cfg.SlotsPerConsumer*SlotSize)
	mr, err := s.b.pd.RegisterMR(s.region, rdma.AccessRemoteRead)
	if err != nil {
		return err
	}
	s.regionMR = mr
	s.slots = make([]*slotRef, s.b.cfg.SlotsPerConsumer)
	return nil
}

// slotFor returns the session's slot for a segment, allocating the lowest
// free index if needed ("the broker tries to keep assigned slots in close
// proximity to each other", §4.4.2). ok is false when the region is full.
func (s *consumerSession) slotFor(pt *Partition, seg *klog.Segment) (*slotRef, bool) {
	if err := s.ensureRegion(); err != nil {
		return nil, false
	}
	for _, ref := range s.slots {
		if ref != nil && ref.pt == pt && ref.segID == seg.ID() {
			return ref, true
		}
	}
	for i, ref := range s.slots {
		if ref == nil {
			r := &slotRef{sess: s, idx: i, pt: pt, segID: seg.ID()}
			s.slots[i] = r
			pt.slotRefs[seg.ID()] = append(pt.slotRefs[seg.ID()], r)
			r.update(seg)
			return r, true
		}
	}
	return nil, false
}

// freeSlot releases a session's slot for a segment, if any.
func (s *consumerSession) freeSlot(pt *Partition, segID int) {
	for i, ref := range s.slots {
		if ref != nil && ref.pt == pt && ref.segID == segID {
			s.slots[i] = nil
			refs := pt.slotRefs[segID]
			for j, r2 := range refs {
				if r2 == ref {
					pt.slotRefs[segID] = append(refs[:j], refs[j+1:]...)
					break
				}
			}
			if len(pt.slotRefs[segID]) == 0 {
				delete(pt.slotRefs, segID)
			}
			return
		}
	}
}

// teardown frees everything on consumer disconnect.
func (s *consumerSession) teardown() {
	for _, ref := range s.slots {
		if ref != nil {
			ref.sess.freeSlot(ref.pt, ref.segID)
		}
	}
	if s.regionMR != nil {
		s.regionMR.Deregister()
	}
	delete(s.b.consumerRDMASessions, s.id)
}

// handleConsumeAccess serves the consumer's "get RDMA access" request
// (§4.4.2): it registers the file containing the requested offset for RDMA
// Reads and, for a mutable file, assigns a metadata slot.
func (b *Broker) handleConsumeAccess(p *sim.Proc, m *kwire.ConsumeAccessReq) kwire.Message {
	if !b.cfg.RDMAConsume {
		return &kwire.ConsumeAccessResp{Err: kwire.ErrAccessDenied}
	}
	pt, ec := b.ledPartition(m.Topic, m.Partition)
	if ec != kwire.ErrNone {
		return &kwire.ConsumeAccessResp{Err: ec}
	}
	sess := b.consumerRDMASessions[m.Session]
	if sess == nil {
		return &kwire.ConsumeAccessResp{Err: kwire.ErrAccessDenied}
	}
	pt.acquire(p)
	defer pt.release()

	var seg *klog.Segment
	var startPos int
	switch {
	case m.Offset == pt.log.NextOffset():
		// Nothing at this offset yet: hand out the head file positioned at
		// its end; the consumer discovers new data through its slot.
		seg = pt.log.Head()
		startPos = seg.Len()
	default:
		var err error
		seg, startPos, err = pt.log.Locate(m.Offset)
		if err != nil {
			return &kwire.ConsumeAccessResp{Err: kwire.ErrOffsetOutOfRange}
		}
	}
	mr, err := pt.segReadMR(seg)
	if err != nil {
		return &kwire.ConsumeAccessResp{Err: kwire.ErrInternal}
	}
	pt.segReaders[seg.ID()]++

	resp := &kwire.ConsumeAccessResp{
		Err:          kwire.ErrNone,
		FileID:       int32(seg.ID()),
		Addr:         mr.Addr(),
		RKey:         mr.RKey(),
		StartPos:     int64(startPos),
		LastReadable: int64(seg.Committed()),
		Mutable:      !seg.Sealed(),
		SlotIndex:    -1,
	}
	if !seg.Sealed() {
		ref, ok := sess.slotFor(pt, seg)
		if !ok {
			return &kwire.ConsumeAccessResp{Err: kwire.ErrInternal}
		}
		resp.SlotRegionAddr = sess.regionMR.Addr()
		resp.SlotRegionRKey = sess.regionMR.RKey()
		resp.SlotIndex = int32(ref.idx)
	}
	return resp
}

// handleReleaseFile lets a consumer drop a fully-read file: its slot is
// freed and, when no reader or producer needs the segment, the registration
// is removed to cut memory usage (§4.4.2, §7 "Memory usage").
func (b *Broker) handleReleaseFile(p *sim.Proc, m *kwire.ReleaseFileReq) kwire.Message {
	pt, ec := b.partition(m.Topic, m.Partition)
	if ec != kwire.ErrNone {
		return &kwire.ReleaseFileResp{Err: ec}
	}
	pt.acquire(p)
	defer pt.release()
	segID := int(m.FileID)
	if sess := b.consumerRDMASessions[m.Session]; sess != nil {
		sess.freeSlot(pt, segID)
	}
	if pt.segReaders[segID] > 0 {
		pt.segReaders[segID]--
	}
	seg := pt.log.Segment(segID)
	if seg != nil && seg.Sealed() && pt.segReaders[segID] == 0 {
		pt.dropReadMR(segID)
	}
	return &kwire.ReleaseFileResp{Err: kwire.ErrNone}
}
