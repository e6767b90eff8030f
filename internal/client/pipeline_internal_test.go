package client

import (
	"bytes"
	"testing"
	"time"
	"unsafe"

	"kafkadirect/internal/core"
	"kafkadirect/internal/krecord"
	"kafkadirect/internal/kwire"
	"kafkadirect/internal/sim"
)

// retainingLink is a link that, like the RNIC, reads a submitted batch only
// later: it keeps every batch until awaitAck acknowledges it, oldest first,
// one delay apart.
type retainingLink struct {
	t       *testing.T
	delay   time.Duration
	pending *sim.Queue[[]byte]
	// held are the batches submitted and not yet acknowledged, with the
	// bytes each had at submission.
	held     [][]byte
	snapshot [][]byte
	maxHeld  int
}

func (l *retainingLink) submit(p *sim.Proc, batch []byte) error {
	for _, other := range l.held {
		if overlap(other, batch) {
			l.t.Errorf("a batch submitted with %d others in flight shares memory with one of them", len(l.held))
		}
	}
	l.held = append(l.held, batch)
	l.snapshot = append(l.snapshot, bytes.Clone(batch))
	l.maxHeld = max(l.maxHeld, len(l.held))
	l.pending.Push(batch)
	return nil
}

func (l *retainingLink) awaitAck(p *sim.Proc, ack *kwire.ProduceResp) error {
	batch := l.pending.Pop(p)
	p.Sleep(l.delay)
	// "Delivery": only now are the bytes read, and they must be the ones
	// submitted.
	if !bytes.Equal(batch, l.snapshot[0]) {
		l.t.Errorf("a batch changed between submission and delivery")
	}
	l.held, l.snapshot = l.held[1:], l.snapshot[1:]
	*ack = kwire.ProduceResp{}
	return nil
}

func (l *retainingLink) reopen(p *sim.Proc) error { return nil }
func (l *retainingLink) close()                   {}

// overlap reports whether two slices share any byte of their capacity.
func overlap(a, b []byte) bool {
	lo := func(s []byte) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(s))) }
	return lo(a) < lo(b)+uintptr(cap(b)) && lo(b) < lo(a)+uintptr(cap(a))
}

// The retained contract: on a link that reads a batch after submit returns,
// batches in flight together never share memory and none changes before its
// acknowledgement — while the ring reuses buffers, so that 40 windows of
// batches pass through window+1 of them.
func TestRetainedBatchesInFlightNeverShareMemory(t *testing.T) {
	const window, batches = 4, 160
	env := sim.NewEnv(5)
	cl := core.NewCluster(env, core.DefaultOptions())
	e := NewEndpoint(cl, "cli", DefaultConfig())
	l := &retainingLink{t: t, delay: 50 * time.Microsecond, pending: sim.NewQueue[[]byte]()}
	pl := newPipeline(e, l, window, true, 1)
	env.Go("producer", func(p *sim.Proc) {
		defer env.Stop()
		for i := 0; i < batches; i++ {
			// Sizes vary so that a reused buffer is both grown and shrunk.
			val := bytes.Repeat([]byte{byte(i)}, 100+37*(i%9))
			if err := pl.ProduceAsync(p, krecord.Record{Value: val, Timestamp: 1}); err != nil {
				t.Errorf("ProduceAsync #%d: %v", i, err)
				return
			}
		}
		if err := pl.Drain(p); err != nil {
			t.Errorf("Drain: %v", err)
		}
	})
	env.RunUntil(time.Second)
	env.Shutdown()
	if l.maxHeld != window {
		t.Fatalf("at most %d batches were in flight, want the window of %d", l.maxHeld, window)
	}
	if len(pl.ring) != window+1 {
		t.Fatalf("the ring has %d buffers, want %d", len(pl.ring), window+1)
	}
}
