package rdma

import "kafkadirect/internal/bufpool"

// RecvRing is the pre-posted receive ring of a two-sided connection: slots
// of equal size, each posted under its index as the WR id. A two-sided
// design provisions every slot for the largest message; the host does not.
// slotSize is the limit the responder checks a message against, and a slot's
// buffer is drawn from the fabric's wire free list when a message lands in
// it, sized to that message. It goes back there when the slot is posted
// again, or at the fabric's Release with whatever completion nobody polled.
type RecvRing struct {
	wire     *bufpool.List
	slotSize int
	bufs     [][]byte // per slot, the message it holds (nil while posted)
}

// NewRecvRing makes a ring of slots receive slots of slotSize bytes for a
// QP of the device.
func (d *Device) NewRecvRing(slots, slotSize int) *RecvRing {
	r := &RecvRing{wire: d.node.Network().WireBufs(), slotSize: slotSize, bufs: make([][]byte, slots)}
	d.node.Network().OnRelease(r.release)
	return r
}

// PostAll posts every slot on qp, a fresh connection's first act.
func (r *RecvRing) PostAll(qp *QP) error {
	for i := range r.bufs {
		if err := r.Post(qp, i); err != nil {
			return err
		}
	}
	return nil
}

// Post posts slot i on qp as a receive with WR id i: what the poller does
// with a completion's slot once it is done with the frame.
func (r *RecvRing) Post(qp *QP, i int) error {
	r.wire.Put(r.bufs[i])
	r.bufs[i] = nil
	return qp.PostRecv(RQE{WRID: uint64(i), ring: r})
}

// Frame returns the message a receive completion of the ring reports. It is
// valid until the completion's slot is posted again.
func (r *RecvRing) Frame(cqe CQE) []byte { return r.bufs[cqe.WRID] }

// land gives slot i the buffer for a message of n bytes that is landing.
func (r *RecvRing) land(i uint64, n int) []byte {
	r.bufs[i] = r.wire.Get(n)
	return r.bufs[i]
}

func (r *RecvRing) release() {
	for _, buf := range r.bufs {
		r.wire.Put(buf)
	}
	r.bufs = nil
}
