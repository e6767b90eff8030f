package rdma

import "kafkadirect/internal/bufpool"

// RecvRing is the pre-posted receive ring of a two-sided connection: slots
// of equal size carved from one slab, each posted under its index as the WR
// id. A two-sided design provisions every slot for the largest message, so a
// ring is tens of MiB of which a connection touches what it receives; the
// slab therefore comes from the process-wide buffer pool, and goes back when
// the deployment's fabric is released with each slot cleared only as far as
// a message ever landed in it.
type RecvRing struct {
	slab     []byte
	slotSize int
	// landed is, per slot, the length of the longest message received into
	// it. The responder RNIC raises it as the bytes land, not the poller as
	// it reads the completion: a completion may sit unpolled at shutdown.
	landed []int
}

// NewRecvRing draws a ring of slots buffers of slotSize bytes for a QP of
// the device. It is returned to the pool by the fabric's Release.
func (d *Device) NewRecvRing(slots, slotSize int) *RecvRing {
	r := &RecvRing{slab: bufpool.Get(slots * slotSize), slotSize: slotSize, landed: make([]int, slots)}
	d.node.Network().OnRelease(r.release)
	return r
}

// PostAll posts every slot on qp, a fresh connection's first act.
func (r *RecvRing) PostAll(qp *QP) error {
	for i := range r.landed {
		if err := r.Post(qp, i); err != nil {
			return err
		}
	}
	return nil
}

// Post posts slot i on qp as a receive with WR id i: what the poller does
// with a completion's slot once it is done with the frame.
func (r *RecvRing) Post(qp *QP, i int) error {
	buf := r.slab[i*r.slotSize : (i+1)*r.slotSize : (i+1)*r.slotSize]
	return qp.PostRecv(RQE{WRID: uint64(i), Buf: buf, landed: &r.landed[i]})
}

// Frame returns the message a receive completion of the ring reports. It is
// valid until the completion's slot is posted again.
func (r *RecvRing) Frame(cqe CQE) []byte {
	at := int(cqe.WRID) * r.slotSize
	return r.slab[at : at+cqe.ByteLen]
}

func (r *RecvRing) release() {
	for i, n := range r.landed {
		clear(r.slab[i*r.slotSize:][:n])
	}
	bufpool.Put(r.slab, 0)
	r.slab = nil
}
