package rdma

import (
	"bytes"
	"testing"
	"time"
	"unsafe"

	"kafkadirect/internal/sim"
)

// A staged SEND allocates nothing once the wire free list holds its buffer:
// one buffer goes round between SendCopy and putWR. The frame is the caller's
// again as soon as SendCopy returns.
func TestSendCopySteadyState(t *testing.T) {
	const depth = 64
	p := newPair(t)
	landing := make([]byte, 64)
	for i := 0; i < depth; i++ {
		if err := p.qb.PostRecv(RQE{Buf: landing}); err != nil {
			t.Fatal(err)
		}
	}
	frame := make([]byte, 48)
	want := make([]byte, 48)
	seq := byte(0)
	cycle := func() {
		seq++
		for i := range frame {
			frame[i], want[i] = seq, seq
		}
		if err := p.qa.SendCopy(frame); err != nil {
			t.Fatalf("send: %v", err)
		}
		clear(frame) // the staged copy travels, not the caller's frame
		p.env.Run()
		cqe, ok := p.qb.RecvCQ().TryPoll()
		if !ok || cqe.Status != StatusOK || !bytes.Equal(landing[:cqe.ByteLen], want) {
			t.Fatalf("completion %+v, %v, landed %x; want %x", cqe, ok, landing[:cqe.ByteLen], want)
		}
		if err := p.qb.PostRecv(RQE{Buf: landing}); err != nil {
			t.Fatalf("repost: %v", err)
		}
	}
	for i := 0; i < depth; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(1, func() {
		for i := 0; i < 10*depth; i++ {
			cycle()
		}
	}); n != 0 {
		t.Fatalf("%d staged sends allocate %.0f objects, want 0", 10*depth, n)
	}
	if p.qa.SendCQ().Len() != 0 {
		t.Fatalf("%d completions on the send CQ of unsignaled sends", p.qa.SendCQ().Len())
	}
}

// A staging buffer comes back to the wire free list exactly once, however its
// work request ends — acknowledged, flushed in flight when the QP dies at any
// instant of the pipeline, or refused at the post — and never while the
// responder can still read it: the free list is LIFO, so a buffer back early
// would be the next send's, and the message that lands would be the wrong one.
func TestSendCopyBufferReturnsWhenQPDies(t *testing.T) {
	const sends, size = 40, 300
	addr := func(b []byte) *byte { return unsafe.SliceData(b[:1]) }
	mostFlushed := 0 // staged sends the kill caught between post and landing
	for killAt := time.Duration(0); killAt <= 8*time.Microsecond; killAt += 50 * time.Nanosecond {
		p := newPair(t)
		wire := p.net.WireBufs()
		seeded := map[*byte]bool{}
		for i := 0; i < sends; i++ {
			buf := make([]byte, 512)
			seeded[addr(buf)] = true
			wire.Put(buf)
		}
		landing := make([][]byte, sends)
		for i := range landing {
			landing[i] = make([]byte, size)
			if err := p.qb.PostRecv(RQE{WRID: uint64(i), Buf: landing[i]}); err != nil {
				t.Fatal(err)
			}
		}
		refused := 0
		p.env.Go("sender", func(pr *sim.Proc) {
			frame := make([]byte, size)
			for i := 0; i < sends; i++ {
				for j := range frame {
					frame[j] = byte(i + 1)
				}
				if err := p.qa.SendCopy(frame); err != nil {
					refused++
				}
				pr.Sleep(100 * time.Nanosecond)
			}
		})
		p.env.Go("killer", func(pr *sim.Proc) {
			pr.Sleep(killAt)
			p.qb.Disconnect()
		})
		p.env.Run()

		landed := 0
		for cqe, ok := p.qb.RecvCQ().TryPoll(); ok; cqe, ok = p.qb.RecvCQ().TryPoll() {
			if cqe.Status != StatusOK {
				continue
			}
			if want := bytes.Repeat([]byte{byte(landed + 1)}, size); !bytes.Equal(landing[cqe.WRID], want) {
				t.Fatalf("kill at %v: message %d landed as %x..., want %x...", killAt, landed, landing[cqe.WRID][:4], want[:4])
			}
			landed++
		}
		if landed+refused > sends {
			t.Fatalf("kill at %v: %d landed and %d refused of %d sends", killAt, landed, refused, sends)
		}
		mostFlushed = max(mostFlushed, sends-landed-refused)
		for i := 0; i < sends; i++ {
			buf := wire.Get(size)
			if !seeded[addr(buf)] {
				t.Fatalf("kill at %v (%d landed, %d refused): the free list holds %d of its %d buffers, or one of them twice", killAt, landed, refused, i, sends)
			}
			delete(seeded, addr(buf))
		}
	}
	if mostFlushed < 5 {
		t.Fatalf("no kill caught more than %d sends in flight: the sweep does not cover the flush path", mostFlushed)
	}
}
