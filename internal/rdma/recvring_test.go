package rdma

import (
	"bytes"
	"slices"
	"testing"
	"unsafe"

	"kafkadirect/internal/bufpool"
	"kafkadirect/internal/sim"
)

// A ring's slab goes back to the pool fully zero although only the bytes
// that landed are cleared — including a message whose completion nobody
// polled before the simulation stopped.
func TestRecvRingReleaseClearsWhatLanded(t *testing.T) {
	const slots, slotSize = 4, 1<<16 + 5 // a slab size no other test uses
	p := newPair(t)
	ring := p.db.NewRecvRing(slots, slotSize)
	slab := unsafe.SliceData(ring.slab)
	if err := ring.PostAll(p.qb); err != nil {
		t.Fatal(err)
	}
	long := bytes.Repeat([]byte{0xee}, 3000)
	short := bytes.Repeat([]byte{0x11}, 10)
	var frames [][]byte
	p.env.Go("sender", func(pr *sim.Proc) {
		// Slots 0..3 take long, short, short, long; slot 0 is then posted
		// again and takes a short message over the long one.
		for _, msg := range [][]byte{long, short, short, long} {
			if err := p.qa.PostSend(SendWR{Op: OpSend, Local: msg}); err != nil {
				t.Errorf("post: %v", err)
			}
		}
		for i := 0; i < 3; i++ { // the fourth completion stays unpolled
			cqe := p.qb.RecvCQ().Poll(pr)
			frames = append(frames, append([]byte(nil), ring.Frame(cqe)...))
			if i == 0 {
				if err := ring.Post(p.qb, int(cqe.WRID)); err != nil {
					t.Errorf("repost: %v", err)
				}
			}
		}
		if err := p.qa.PostSend(SendWR{Op: OpSend, Local: short}); err != nil {
			t.Errorf("post: %v", err)
		}
		pr.Sleep(100 * us)
	})
	p.env.Run()
	p.env.Shutdown()
	for i, want := range [][]byte{long, short, short} {
		if !bytes.Equal(frames[i], want) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(frames[i]), len(want))
		}
	}
	if p.qb.RecvCQ().Len() != 2 {
		t.Fatalf("%d completions left unpolled, want 2", p.qb.RecvCQ().Len())
	}
	if got, want := ring.landed, []int{3000, 10, 10, 3000}; !slices.Equal(got, want) {
		t.Fatalf("landed = %v, want %v", got, want)
	}
	p.net.Release()
	back := bufpool.Get(slots * slotSize)
	if unsafe.SliceData(back) != slab {
		t.Fatal("Release did not return the ring's slab to the pool")
	}
	for i, b := range back {
		if b != 0 {
			t.Fatalf("released slab dirty at %d (slot %d)", i, i/slotSize)
		}
	}
	bufpool.Put(back, 0)
}
