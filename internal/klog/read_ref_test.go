package klog

import (
	"math/rand"
	"testing"

	"kafkadirect/internal/krecord"
)

// refLocate and refReadUpTo are the linear index scans Locate and readUpTo
// used before they binary-searched the segment index, kept verbatim as the
// reference the property test below compares against.
func refLocate(l *Log, offset int64) (*Segment, int, error) {
	if offset < 0 || offset >= l.nextOffset {
		return nil, 0, ErrOutOfRange
	}
	var seg *Segment
	for _, s := range l.segments {
		if s.baseOffset <= offset {
			seg = s
		} else {
			break
		}
	}
	if seg == nil {
		return nil, 0, ErrOutOfRange
	}
	for _, e := range seg.index {
		if offset < e.nextOffset {
			return seg, e.startPos, nil
		}
	}
	return nil, 0, ErrOutOfRange
}

func refReadUpTo(l *Log, offset int64, maxBytes int, limit int64) ([]byte, error) {
	if offset >= limit {
		if offset > l.nextOffset {
			return nil, ErrOutOfRange
		}
		return nil, nil
	}
	seg, start, err := refLocate(l, offset)
	if err != nil {
		return nil, err
	}
	end := start
	for _, e := range seg.index {
		if e.startPos < start || e.nextOffset > limit {
			continue
		}
		if e.endPos-start > maxBytes && end > start {
			break
		}
		end = e.endPos
		if end-start >= maxBytes {
			break
		}
	}
	if end == start {
		for _, e := range seg.index {
			if e.startPos == start && e.nextOffset <= limit {
				end = e.endPos
				break
			}
		}
	}
	if end == start {
		return nil, nil
	}
	return seg.buf[start:end], nil
}

// sameView reports whether two read results are the same window of the same
// segment buffer (or both nil), not merely equal bytes.
func sameView(a, b []byte) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return len(a) == len(b) && &a[0] == &b[0]
}

// TestReadsMatchLinearReference drives random logs — appends of mixed sizes
// (some larger than any maxBytes used, some filling most of a segment, so
// segments roll at uneven fill), HW advances to arbitrary offsets including
// mid-batch ones, truncations back to batch boundaries — and after every step
// requires Locate, ReadCommitted and ReadUncommitted to return exactly what
// the linear scans return, for offsets on both sides of every boundary and
// maxBytes of 0, 1, huge and everything between.
func TestReadsMatchLinearReference(t *testing.T) {
	const segSize = 4096
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		l := New(Config{SegmentSize: segSize})
		var boundaries []int64 // every batch's next offset, ascending
		check := func(step int) {
			t.Helper()
			for probe := 0; probe < 24; probe++ {
				off := r.Int63n(l.nextOffset+4) - 2
				if probe < 8 && len(boundaries) > 0 {
					off = boundaries[r.Intn(len(boundaries))] - int64(r.Intn(2))
				}
				maxBytes := []int{0, 1, 1 << 30, r.Intn(200), r.Intn(2 * segSize)}[r.Intn(5)]
				gs, gp, gerr := l.Locate(off)
				ws, wp, werr := refLocate(l, off)
				if gs != ws || gp != wp || gerr != werr {
					t.Fatalf("seed %d step %d: Locate(%d) = (%p,%d,%v), linear scan says (%p,%d,%v)", seed, step, off, gs, gp, gerr, ws, wp, werr)
				}
				for _, limit := range []int64{l.hwOffset, l.nextOffset} {
					got, gerr := l.readUpTo(off, maxBytes, limit)
					want, werr := refReadUpTo(l, off, maxBytes, limit)
					if gerr != werr || !sameView(got, want) {
						t.Fatalf("seed %d step %d: read(off %d, max %d, limit %d) = %d bytes, %v; linear scan says %d bytes, %v",
							seed, step, off, maxBytes, limit, len(got), gerr, len(want), werr)
					}
				}
			}
		}
		for step := 0; step < 120; step++ {
			switch op := r.Intn(10); {
			case op < 6: // append
				b := krecord.NewBuilder(7)
				size := r.Intn(64)
				switch r.Intn(8) {
				case 0:
					size = 300 + r.Intn(600) // above every small maxBytes
				case 1:
					size = segSize/2 + r.Intn(segSize/4) // forces an early roll
				}
				for i, n := 0, 1+r.Intn(3); i < n; i++ {
					if err := b.Append(krecord.Record{Value: make([]byte, size/n), Timestamp: int64(step)}); err != nil {
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
				if _, _, err := l.Append(batch); err != nil {
					t.Fatal(err)
				}
				boundaries = append(boundaries, l.nextOffset)
			case op < 9: // advance the HW, possibly into the middle of a batch
				l.AdvanceHW(l.hwOffset + int64(r.Intn(6)))
			default: // truncate to a batch boundary at or above the HW
				cut := len(boundaries)
				for cut > 0 && boundaries[cut-1] >= l.hwOffset && r.Intn(3) != 0 {
					cut--
				}
				if cut == len(boundaries) || boundaries[cut] < l.hwOffset {
					continue
				}
				if _, err := l.TruncateTo(boundaries[cut]); err != nil {
					t.Fatalf("seed %d step %d: TruncateTo(%d): %v", seed, step, boundaries[cut], err)
				}
				boundaries = boundaries[:cut+1]
			}
			check(step)
		}
		l.Release()
	}
}
