package klog

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"kafkadirect/internal/krecord"
)

func smallCfg() Config { return Config{SegmentSize: 4096} }

func batchOf(t *testing.T, vals ...string) krecord.Batch {
	t.Helper()
	b := krecord.NewBuilder(1)
	for i, v := range vals {
		if err := b.Append(krecord.Record{Value: []byte(v), Timestamp: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := b.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	batch, _, err := krecord.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	return batch
}

func TestAppendAssignsDenseOffsets(t *testing.T) {
	l := New(smallCfg())
	base1, _, err := l.Append(batchOf(t, "a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	base2, _, err := l.Append(batchOf(t, "c"))
	if err != nil {
		t.Fatal(err)
	}
	if base1 != 0 || base2 != 2 || l.NextOffset() != 3 {
		t.Fatalf("offsets %d %d next %d", base1, base2, l.NextOffset())
	}
}

func TestRecordsReadableOnlyBelowHW(t *testing.T) {
	l := New(smallCfg())
	l.Append(batchOf(t, "a", "b"))
	l.Append(batchOf(t, "c"))
	if data, err := l.ReadCommitted(0, 1<<20); err != nil || data != nil {
		t.Fatalf("uncommitted data visible: %v %v", data, err)
	}
	l.AdvanceHW(2)
	data, err := l.ReadCommitted(0, 1<<20)
	if err != nil || data == nil {
		t.Fatalf("committed data unreadable: %v", err)
	}
	// Only the first batch (2 records) is committed.
	batch, n, err := krecord.Parse(data)
	if err != nil || n != len(data) {
		t.Fatalf("read should end at a batch boundary: n=%d len=%d err=%v", n, len(data), err)
	}
	if batch.Count() != 2 {
		t.Fatalf("count %d", batch.Count())
	}
}

func TestHWIsMonotonicAndClamped(t *testing.T) {
	l := New(smallCfg())
	l.Append(batchOf(t, "a"))
	l.AdvanceHW(100) // clamped to LEO
	if l.HighWatermark() != 1 {
		t.Fatalf("hw %d, want 1", l.HighWatermark())
	}
	l.AdvanceHW(0) // ignored
	if l.HighWatermark() != 1 {
		t.Fatalf("hw went backwards: %d", l.HighWatermark())
	}
}

func TestSegmentRollSealsHead(t *testing.T) {
	l := New(Config{SegmentSize: 256})
	var lastSeg *Segment
	for i := 0; i < 10; i++ {
		_, seg, err := l.Append(batchOf(t, string(bytes.Repeat([]byte("x"), 100))))
		if err != nil {
			t.Fatal(err)
		}
		lastSeg = seg
	}
	if l.NumSegments() < 2 {
		t.Fatal("no roll happened")
	}
	for i := 0; i < l.NumSegments()-1; i++ {
		if !l.Segment(i).Sealed() {
			t.Fatalf("segment %d not sealed", i)
		}
	}
	if l.Head().Sealed() {
		t.Fatal("head sealed")
	}
	if lastSeg != l.Head() {
		t.Fatal("last append did not land in head")
	}
}

func TestSealedSegmentFullyCommittedOnceHWPasses(t *testing.T) {
	l := New(Config{SegmentSize: 256})
	for i := 0; i < 6; i++ {
		l.Append(batchOf(t, string(bytes.Repeat([]byte("y"), 100))))
	}
	l.AdvanceHW(l.NextOffset())
	for i := 0; i < l.NumSegments(); i++ {
		s := l.Segment(i)
		if s.Committed() != s.Len() {
			t.Fatalf("segment %d committed %d of %d", i, s.Committed(), s.Len())
		}
	}
}

func TestBatchTooLargeRejected(t *testing.T) {
	l := New(Config{SegmentSize: 64})
	_, _, err := l.Append(batchOf(t, string(bytes.Repeat([]byte("z"), 128))))
	if err != ErrBatchTooLarge {
		t.Fatalf("err = %v", err)
	}
}

func TestReserveAndCommitZeroCopyPath(t *testing.T) {
	l := New(smallCfg())
	raw, _ := krecord.Encode(9, krecord.Record{Value: []byte("rdma"), Timestamp: 1})
	seg := l.Head()
	start := seg.Len()
	// Simulate the RNIC writing the bytes directly into the segment.
	copy(seg.Bytes()[start:], raw)
	base, err := l.CommitReserved(seg, start, len(raw))
	if err != nil {
		t.Fatal(err)
	}
	if base != 0 || l.NextOffset() != 1 {
		t.Fatalf("base %d next %d", base, l.NextOffset())
	}
	l.AdvanceHW(1)
	data, _ := l.ReadCommitted(0, 1<<20)
	batch, _, _ := krecord.Parse(data)
	recs, _ := batch.Records()
	if string(recs[0].Value) != "rdma" {
		t.Fatal("zero-copy committed record unreadable")
	}
}

func TestCommitReservedRejectsStaleReservation(t *testing.T) {
	l := New(smallCfg())
	raw, _ := krecord.Encode(9, krecord.Record{Value: []byte("x"), Timestamp: 1})
	seg := l.Head()
	start := seg.Len()
	copy(seg.Bytes()[start:], raw)
	l.Append(batchOf(t, "interloper")) // moves the append position
	if _, err := l.CommitReserved(seg, start, len(raw)); err != ErrReservation {
		t.Fatalf("stale reservation committed: %v", err)
	}
}

func TestFollowerMirrorsLeaderBytes(t *testing.T) {
	leader := New(smallCfg())
	follower := New(smallCfg())
	for i := 0; i < 5; i++ {
		leader.Append(batchOf(t, "msg", "msg2"))
	}
	leader.AdvanceHW(leader.NextOffset())
	// Pull every committed byte across, batch-at-a-time like the TCP
	// replication fetcher.
	off := int64(0)
	for off < leader.HighWatermark() {
		data, err := leader.ReadCommitted(off, 200)
		if err != nil || data == nil {
			t.Fatalf("read at %d: %v", off, err)
		}
		if err := follower.AppendReplicated(data); err != nil {
			t.Fatal(err)
		}
		batch, _, _ := krecord.Parse(data)
		off = batch.NextOffset()
	}
	if follower.NextOffset() != leader.NextOffset() {
		t.Fatalf("follower LEO %d, leader %d", follower.NextOffset(), leader.NextOffset())
	}
	// Byte-identical prefixes.
	for i := 0; i < follower.NumSegments(); i++ {
		ls, fs := leader.Segment(i), follower.Segment(i)
		if !bytes.Equal(ls.Bytes()[:fs.Len()], fs.Bytes()[:fs.Len()]) {
			t.Fatalf("segment %d bytes differ", i)
		}
	}
}

func TestAppendReplicatedRejectsOffsetGap(t *testing.T) {
	leader := New(smallCfg())
	follower := New(smallCfg())
	leader.Append(batchOf(t, "a"))
	second, _, _ := leader.Append(batchOf(t, "b"))
	leader.AdvanceHW(leader.NextOffset())
	seg, pos, _ := leader.Locate(second)
	data := seg.Bytes()[pos:seg.Committed()]
	if err := follower.AppendReplicated(data); err == nil {
		t.Fatal("gap in replicated offsets accepted")
	}
}

func TestLocate(t *testing.T) {
	l := New(Config{SegmentSize: 300})
	var bases []int64
	for i := 0; i < 8; i++ {
		base, _, err := l.Append(batchOf(t, string(bytes.Repeat([]byte("q"), 80)), "tiny"))
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, base)
	}
	for _, base := range bases {
		// Both records of each batch locate to the same batch start.
		segA, posA, err := l.Locate(base)
		if err != nil {
			t.Fatal(err)
		}
		segB, posB, err := l.Locate(base + 1)
		if err != nil {
			t.Fatal(err)
		}
		if segA != segB || posA != posB {
			t.Fatalf("offsets %d and %d locate differently", base, base+1)
		}
		batch, _, err := krecord.Parse(segA.Bytes()[posA:])
		if err != nil || batch.BaseOffset() != base {
			t.Fatalf("located batch base %d, want %d (err %v)", batch.BaseOffset(), base, err)
		}
	}
	if _, _, err := l.Locate(l.NextOffset()); err != ErrOutOfRange {
		t.Fatalf("LEO locate err = %v", err)
	}
	if _, _, err := l.Locate(-1); err != ErrOutOfRange {
		t.Fatalf("negative locate err = %v", err)
	}
}

func TestReadCommittedRespectsMaxBytesButMakesProgress(t *testing.T) {
	l := New(smallCfg())
	l.Append(batchOf(t, string(bytes.Repeat([]byte("w"), 500))))
	l.Append(batchOf(t, "small"))
	l.AdvanceHW(l.NextOffset())
	// maxBytes smaller than the first batch still returns the whole batch.
	data, err := l.ReadCommitted(0, 10)
	if err != nil || data == nil {
		t.Fatalf("no progress on large batch: %v", err)
	}
	batch, n, _ := krecord.Parse(data)
	if n != len(data) || batch.BaseOffset() != 0 {
		t.Fatal("should return exactly the first batch")
	}
}

// Property: however appends, HW advances, and reads interleave, (1) offsets
// are dense, (2) ReadCommitted never returns bytes past the HW, and (3) every
// returned range parses into valid batches.
func TestPropertyLogInvariants(t *testing.T) {
	property := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		l := New(Config{SegmentSize: 2048})
		expectNext := int64(0)
		for step := 0; step < 60; step++ {
			switch r.Intn(3) {
			case 0: // append
				nrec := 1 + r.Intn(3)
				b := krecord.NewBuilder(7)
				for i := 0; i < nrec; i++ {
					val := make([]byte, r.Intn(300))
					b.Append(krecord.Record{Value: val, Timestamp: int64(step)})
				}
				raw, _ := b.Bytes()
				batch, _, _ := krecord.Parse(raw)
				base, _, err := l.Append(batch)
				if err != nil || base != expectNext {
					return false
				}
				expectNext += int64(nrec)
			case 1: // advance HW somewhere
				l.AdvanceHW(l.HighWatermark() + int64(r.Intn(5)))
			case 2: // read from a random committed offset
				if l.HighWatermark() == 0 {
					continue
				}
				off := r.Int63n(l.HighWatermark())
				data, err := l.ReadCommitted(off, 1+r.Intn(4096))
				if err != nil {
					return false
				}
				if data == nil {
					continue
				}
				ok := true
				krecord.Scan(data, func(b krecord.Batch) error {
					if b.NextOffset() > l.HighWatermark() || b.Validate() != nil {
						ok = false
					}
					return nil
				})
				if !ok {
					return false
				}
			}
		}
		return l.NextOffset() == expectNext
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
