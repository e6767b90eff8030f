package rdma

import (
	"bytes"
	"testing"
	"unsafe"

	"kafkadirect/internal/bufpool"
	"kafkadirect/internal/sim"
)

// A ring slot holds what landed in it, whatever it held before: small then
// large, large then small, and a message of exactly slotSize. A frame stays
// valid while other slots take messages, until its own slot is posted again.
// A slot buffer of 64 KiB or more goes back to the process-wide pool at
// Release, zero, even when its completion was never polled.
func TestRecvRingReleaseClearsWhatLanded(t *testing.T) {
	const slotSize = 100 << 10
	p := newPair(t)
	ring := p.db.NewRecvRing(2, slotSize)
	if err := ring.PostAll(p.qb); err != nil {
		t.Fatal(err)
	}
	tiny := bytes.Repeat([]byte{0x11}, 10)
	mid := bytes.Repeat([]byte{0xee}, 3000)
	full := bytes.Repeat([]byte{0x77}, slotSize)
	var big *byte // the pooled buffer behind the 100 KiB frames
	p.env.Go("driver", func(pr *sim.Proc) {
		// recv sends msg and polls its completion, which must report slot.
		recv := func(msg []byte, slot uint64) CQE {
			if err := p.qa.PostSend(SendWR{Op: OpSend, Local: msg, Unsignaled: true}); err != nil {
				t.Errorf("post: %v", err)
			}
			cqe := p.qb.RecvCQ().Poll(pr)
			if cqe.Status != StatusOK || cqe.WRID != slot || !bytes.Equal(ring.Frame(cqe), msg) {
				t.Errorf("slot %d: completion %+v with a %d-byte frame, want slot %d and the %d bytes sent",
					cqe.WRID, cqe, len(ring.Frame(cqe)), slot, len(msg))
			}
			return cqe
		}
		repost := func(cqes ...CQE) {
			for _, cqe := range cqes {
				if err := ring.Post(p.qb, int(cqe.WRID)); err != nil {
					t.Errorf("repost: %v", err)
				}
			}
		}
		c0 := recv(tiny, 0)
		held := ring.Frame(c0)
		c1 := recv(mid, 1)
		if !bytes.Equal(held, tiny) {
			t.Error("slot 0's frame changed while slot 1 took a message")
		}
		repost(c0, c1)
		repost(recv(mid, 0), recv(tiny, 1)) // small then large, large then small
		c0 = recv(full, 0)
		big = unsafe.SliceData(ring.Frame(c0))
		repost(c0)
		repost(recv(tiny, 1))
		// The last message lands in slot 0 and its completion stays unpolled.
		if err := p.qa.PostSend(SendWR{Op: OpSend, Local: full, Unsignaled: true}); err != nil {
			t.Errorf("post: %v", err)
		}
		pr.Sleep(100 * us)
	})
	p.env.Run()
	p.env.Shutdown()
	if n := p.qb.RecvCQ().Len(); n != 1 {
		t.Fatalf("%d completions left unpolled, want 1", n)
	}
	p.net.Release()
	back := bufpool.Get(1 << 17) // the wire class of a 100 KiB message
	if unsafe.SliceData(back) != big {
		t.Fatal("Release did not return the unpolled slot's buffer to the pool")
	}
	for i, b := range back {
		if b != 0 {
			t.Fatalf("released slot buffer dirty at %d", i)
		}
	}
	bufpool.Put(back, 0)
}

// slotSize is a limit, not an allocation, and it still binds: one byte over
// fails the send and kills the pair exactly as an undersized buffer does.
func TestRecvRingRejectsOversizedMessage(t *testing.T) {
	const slotSize = 4096
	p := newPair(t)
	ring := p.db.NewRecvRing(4, slotSize)
	if err := ring.PostAll(p.qb); err != nil {
		t.Fatal(err)
	}
	var reasonA, reasonB string
	p.da.OnAsyncEvent(func(ev AsyncEvent) { reasonA = ev.Reason })
	p.db.OnAsyncEvent(func(ev AsyncEvent) { reasonB = ev.Reason })
	var cqe CQE
	p.env.Go("sender", func(pr *sim.Proc) {
		if err := p.qa.PostSend(SendWR{WRID: 7, Op: OpSend, Local: make([]byte, slotSize+1)}); err != nil {
			t.Errorf("post: %v", err)
		}
		cqe = p.qa.SendCQ().Poll(pr)
	})
	p.env.Run()
	if cqe.Status != StatusRemoteAccessErr || cqe.WRID != 7 {
		t.Fatalf("send completion %+v, want WR 7 with REMOTE_ACCESS_ERROR", cqe)
	}
	if p.qa.State() != QPError || p.qb.State() != QPError {
		t.Fatal("both QPs should be in the error state")
	}
	if reasonB != "receive buffer too small" || reasonA != "peer disconnect: receive buffer too small" {
		t.Fatalf("async events %q / %q", reasonA, reasonB)
	}
	// The oversized message consumed slot 0; the other three are flushed.
	for want := uint64(1); want < 4; want++ {
		if got, ok := p.qb.RecvCQ().TryPoll(); !ok || got.Status != StatusFlushed || got.WRID != want {
			t.Fatalf("flushed completion %+v, %v; want slot %d FLUSHED", got, ok, want)
		}
	}
	if p.qb.RecvCQ().Len() != 0 {
		t.Fatal("a completion for the slot the oversized message consumed")
	}
}

// A receive queue held at a fixed depth allocates nothing per post/consume
// cycle once warm, hands receives out in posting order, reports RNR when the
// last one is consumed, and flushes exactly the unconsumed ones on failure.
func TestRecvQueueSteadyState(t *testing.T) {
	const depth = 64
	p := newPair(t)
	buf := make([]byte, 64)
	for i := 0; i < depth; i++ {
		if err := p.qb.PostRecv(RQE{WRID: uint64(i), Buf: buf}); err != nil {
			t.Fatal(err)
		}
	}
	next := uint64(0) // WR id the next completion must carry
	consume := func() {
		if err := p.qa.PostSend(SendWR{Op: OpSend, Local: buf[:8], Unsignaled: true}); err != nil {
			t.Fatalf("post: %v", err)
		}
		p.env.Run()
		cqe, ok := p.qb.RecvCQ().TryPoll()
		if !ok || cqe.Status != StatusOK || cqe.WRID != next%depth {
			t.Fatalf("completion %+v, %v; want receive %d", cqe, ok, next%depth)
		}
		next++
	}
	cycle := func() {
		consume()
		if err := p.qb.PostRecv(RQE{WRID: (next - 1) % depth, Buf: buf}); err != nil {
			t.Fatalf("repost: %v", err)
		}
	}
	for i := 0; i < 4*depth; i++ {
		cycle()
	}
	// One run of many cycles: AllocsPerRun rounds an average down, and an
	// array re-grown every depth cycles is a fraction of an object per cycle.
	if n := testing.AllocsPerRun(1, func() {
		for i := 0; i < 10*depth; i++ {
			cycle()
		}
	}); n != 0 {
		t.Fatalf("%d post/consume cycles at depth %d allocate %.0f objects, want 0", 10*depth, depth, n)
	}
	if got := p.qb.RecvPosted(); got != depth {
		t.Fatalf("RecvPosted = %d, want %d", got, depth)
	}
	for p.qb.RecvPosted() > 3 {
		consume()
	}
	p.qb.Disconnect()
	for i := 0; i < 3; i++ {
		cqe, ok := p.qb.RecvCQ().TryPoll()
		if !ok || cqe.Status != StatusFlushed || cqe.WRID != (next+uint64(i))%depth {
			t.Fatalf("flushed completion %d = %+v, %v; want receive %d", i, cqe, ok, (next+uint64(i))%depth)
		}
	}
	if p.qb.RecvCQ().Len() != 0 || p.qb.RecvPosted() != 0 {
		t.Fatal("consumed receives were flushed too")
	}

	// Empty after use is as empty as never posted.
	q := newPair(t)
	q.postRecv(2)
	var last CQE
	q.env.Go("sender", func(pr *sim.Proc) {
		for i := 0; i < 3; i++ {
			q.qa.PostSend(SendWR{Op: OpSend, Local: buf[:8]})
			last = q.qa.SendCQ().Poll(pr)
		}
	})
	q.env.Run()
	if last.Status != StatusRNR || q.qb.State() != QPError {
		t.Fatalf("third send into two receives: %+v, want RNR and a dead QP", last)
	}
}
