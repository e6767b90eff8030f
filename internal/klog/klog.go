// Package klog implements the storage layout of a topic partition (TP): an
// ordered, immutable sequence of records physically split into preallocated
// segments ("files"), exactly as Figure 1 of the paper: new record batches
// are appended to the mutable head segment; all preceding segments are sealed
// and can never change.
//
// Two properties drive the design (§3, §4.2.2, §4.4.2):
//
//   - segments are preallocated at creation ("we enable the file
//     preallocation in Kafka's configuration") so an RNIC can write into
//     them at stable addresses — an RNIC cannot append, only write;
//   - each segment tracks a "last readable byte": the position after the
//     last fully replicated batch. RDMA consumers never read past it, which
//     is how uncommitted data stays invisible without broker CPU involvement.
//
// The log distinguishes the log end offset (LEO: everything appended on the
// leader) from the high watermark (HW: everything replicated to all in-sync
// replicas); records become readable only at the HW, matching Kafka's
// consistency model ("a record is not considered committed until it is fully
// replicated", §3).
package klog

import (
	"errors"
	"fmt"
	"sort"

	"kafkadirect/internal/bufpool"
	"kafkadirect/internal/krecord"
)

// Errors returned by log operations.
var (
	ErrBatchTooLarge = errors.New("klog: batch larger than segment size")
	ErrOutOfRange    = errors.New("klog: offset out of range")
	ErrReservation   = errors.New("klog: reservation outside the head segment")
)

// Config parameterises a partition log.
type Config struct {
	// SegmentSize is the preallocated size of each segment in bytes.
	// The paper deploys 1 GiB files; tests and examples use smaller ones.
	SegmentSize int
}

// DefaultConfig uses 64 MiB segments — large enough that segment rolls are
// rare in benchmarks, small enough to keep simulations cheap.
func DefaultConfig() Config { return Config{SegmentSize: 64 << 20} }

// Segment is one preallocated file of a topic partition.
type Segment struct {
	id         int   // dense per-log segment number
	baseOffset int64 // Kafka offset of the first record in this segment
	buf        []byte
	pos        int  // bytes appended (leader) / replicated (follower)
	committed  int  // last readable byte: end of last fully-replicated batch
	sealed     bool // true once a successor segment exists
	// dirty is the high-water mark of bytes written into buf by paths that
	// bypass pos (RDMA writes into reservations, shared-file copies); the
	// effective dirty extent of the segment is max(pos, dirty). Release
	// zeroes only that prefix before recycling the buffer.
	dirty int

	// index maps batch boundaries for offset→byte translation.
	index []indexEntry
}

type indexEntry struct {
	baseOffset int64
	nextOffset int64
	startPos   int
	endPos     int
}

// ID returns the segment's dense number within its log.
func (s *Segment) ID() int { return s.id }

// BaseOffset returns the offset of the segment's first record.
func (s *Segment) BaseOffset() int64 { return s.baseOffset }

// Bytes exposes the whole preallocated buffer; RDMA registration covers all
// of it so producers can write past the current append position.
func (s *Segment) Bytes() []byte { return s.buf }

// Len returns the number of appended bytes.
func (s *Segment) Len() int { return s.pos }

// Committed returns the last readable byte position.
func (s *Segment) Committed() int { return s.committed }

// Capacity returns the preallocated size.
func (s *Segment) Capacity() int { return len(s.buf) }

// Sealed reports whether the segment is immutable.
func (s *Segment) Sealed() bool { return s.sealed }

// Remaining returns the free space after the append position.
func (s *Segment) Remaining() int { return len(s.buf) - s.pos }

// NoteDirty records that bytes up to end were written into the segment
// buffer by a path the log itself does not see (an RNIC write into a
// reservation, a direct copy into a shared-access region). Release depends
// on it to know how much of a recycled buffer needs re-zeroing.
func (s *Segment) NoteDirty(end int) {
	if end > s.dirty {
		s.dirty = end
	}
}

// Log is a topic partition's storage: a list of segments, the last of which
// is the mutable head.
type Log struct {
	cfg      Config
	segments []*Segment
	// nextOffset is the log end offset: the offset the next record gets.
	nextOffset int64
	// hwOffset is the high watermark: offsets below it are committed.
	hwOffset int64
	// retired holds segments dropped by TruncateTo; their buffers may still
	// be referenced by in-flight simulated RNIC writes, so they are only
	// recycled in Release.
	retired []*Segment
}

// New creates an empty log with one preallocated head segment.
func New(cfg Config) *Log {
	if cfg.SegmentSize < krecord.HeaderSize {
		panic(fmt.Sprintf("klog: segment size %d too small", cfg.SegmentSize))
	}
	l := &Log{cfg: cfg}
	l.addSegment()
	return l
}

func (l *Log) addSegment() *Segment {
	s := &Segment{
		id:         len(l.segments),
		baseOffset: l.nextOffset,
		// Pooled and guaranteed zeroed: preallocating a segment "file" must
		// not cost a fresh multi-MiB clear per benchmark data point.
		buf: bufpool.Get(l.cfg.SegmentSize),
	}
	l.segments = append(l.segments, s)
	return s
}

// Head returns the mutable head segment.
func (l *Log) Head() *Segment { return l.segments[len(l.segments)-1] }

// Segment returns segment number id, or nil.
func (l *Log) Segment(id int) *Segment {
	if id < 0 || id >= len(l.segments) {
		return nil
	}
	return l.segments[id]
}

// NumSegments returns the number of segments (sealed + head).
func (l *Log) NumSegments() int { return len(l.segments) }

// NextOffset returns the log end offset.
func (l *Log) NextOffset() int64 { return l.nextOffset }

// HighWatermark returns the first uncommitted offset.
func (l *Log) HighWatermark() int64 { return l.hwOffset }

// Roll seals the head segment and creates a fresh preallocated head.
func (l *Log) Roll() *Segment {
	l.Head().sealed = true
	return l.addSegment()
}

// ensureRoom rolls the head if the batch does not fit.
func (l *Log) ensureRoom(n int) (*Segment, error) {
	if n > l.cfg.SegmentSize {
		return nil, ErrBatchTooLarge
	}
	head := l.Head()
	if head.Remaining() < n {
		head = l.Roll()
	}
	return head, nil
}

// Append validates nothing (the broker does that) and copies an encoded
// batch into the head segment, assigning its base offset in place. This is
// the TCP produce path's second copy (§4.2.1). It returns the assigned base
// offset and the segment written.
func (l *Log) Append(batch krecord.Batch) (int64, *Segment, error) {
	n := batch.Size()
	head, err := l.ensureRoom(n)
	if err != nil {
		return 0, nil, err
	}
	base := l.nextOffset
	start := head.pos
	copy(head.buf[start:], batch.Raw())
	// Assign the offset in the stored copy (CRC excludes it by design).
	stored, _, err := krecord.Parse(head.buf[start : start+n])
	if err != nil {
		return 0, nil, err
	}
	stored.SetBaseOffset(base)
	l.finishAppend(head, stored, start, n)
	return base, head, nil
}

// CommitReserved finalises a batch whose bytes were written directly into
// seg.Bytes()[start:start+n] by an RNIC: it assigns the base offset in place
// and advances the log end. The caller must have validated the batch. This
// is the zero-copy commit of §4.2.2 — no bytes move.
func (l *Log) CommitReserved(seg *Segment, start, n int) (int64, error) {
	if seg != l.Head() {
		return 0, ErrReservation
	}
	if start != seg.pos || start+n > len(seg.buf) {
		return 0, ErrReservation
	}
	stored, _, err := krecord.Parse(seg.buf[start : start+n])
	if err != nil {
		return 0, err
	}
	base := l.nextOffset
	stored.SetBaseOffset(base)
	l.finishAppend(seg, stored, start, n)
	return base, nil
}

// AppendReplicated copies a leader-encoded batch (offsets already assigned)
// onto a follower log, keeping byte positions identical to the leader's.
func (l *Log) AppendReplicated(data []byte) error {
	batch, n, err := krecord.Parse(data)
	if err != nil {
		return err
	}
	if batch.BaseOffset() != l.nextOffset {
		return fmt.Errorf("klog: replicated batch offset %d, expected %d", batch.BaseOffset(), l.nextOffset)
	}
	head, err := l.ensureRoom(n)
	if err != nil {
		return err
	}
	start := head.pos
	copy(head.buf[start:], data[:n])
	stored, _, _ := krecord.Parse(head.buf[start : start+n])
	l.finishAppend(head, stored, start, n)
	return nil
}

// CommitReplicatedInPlace finalises a batch push-replicated by RDMA directly
// into the follower head segment at the current append position (§4.3.2): no
// copy, offsets already assigned by the leader.
func (l *Log) CommitReplicatedInPlace(n int) error {
	head := l.Head()
	batch, _, err := krecord.Parse(head.buf[head.pos : head.pos+n])
	if err != nil {
		return err
	}
	if batch.BaseOffset() != l.nextOffset {
		return fmt.Errorf("klog: replicated batch offset %d, expected %d", batch.BaseOffset(), l.nextOffset)
	}
	l.finishAppend(head, batch, head.pos, n)
	return nil
}

func (l *Log) finishAppend(seg *Segment, batch krecord.Batch, start, n int) {
	seg.index = append(seg.index, indexEntry{
		baseOffset: batch.BaseOffset(),
		nextOffset: batch.NextOffset(),
		startPos:   start,
		endPos:     start + n,
	})
	seg.pos = start + n
	l.nextOffset = batch.NextOffset()
}

// TruncateTo discards every record at or above offset, which must lie on a
// batch boundary at or above the high watermark — this is Kafka's recovery
// rule: on leader failover a follower truncates its log to the high watermark
// and refetches from the new leader, discarding uncommitted records the dead
// leader never replicated. The segment containing offset becomes the (no
// longer sealed) head; fully truncated trailing segments are retired and
// their ids returned so callers can purge per-segment state (MRs, slot refs).
// Later rolls reuse the retired ids, preserving the id == slice-index
// invariant of Segment().
func (l *Log) TruncateTo(offset int64) (removed []int, err error) {
	if offset >= l.nextOffset {
		return nil, nil
	}
	if offset < l.hwOffset {
		return nil, ErrOutOfRange
	}
	keep := 0
	for i, s := range l.segments {
		if s.baseOffset <= offset {
			keep = i
		}
	}
	seg := l.segments[keep]
	cut := len(seg.index)
	for cut > 0 && seg.index[cut-1].nextOffset > offset {
		cut--
	}
	newPos := 0
	newEnd := seg.baseOffset
	if cut > 0 {
		newPos = seg.index[cut-1].endPos
		newEnd = seg.index[cut-1].nextOffset
	}
	if newEnd != offset {
		return nil, ErrOutOfRange // offset is not a batch boundary
	}
	seg.index = seg.index[:cut]
	// Re-zero the discarded extent: preallocated segment space is guaranteed
	// zero beyond pos (RDMA-write detection and buffer pooling both rely on
	// it), and truncated records would otherwise linger as garbage there.
	extent := seg.pos
	if seg.dirty > extent {
		extent = seg.dirty
	}
	for i := newPos; i < extent; i++ {
		seg.buf[i] = 0
	}
	if seg.dirty > newPos {
		seg.dirty = newPos
	}
	seg.pos = newPos
	seg.sealed = false
	if seg.committed > newPos {
		seg.committed = newPos
	}
	for _, s := range l.segments[keep+1:] {
		removed = append(removed, s.id)
		l.retired = append(l.retired, s)
	}
	l.segments = l.segments[:keep+1]
	l.nextOffset = offset
	return removed, nil
}

// AdvanceHW moves the high watermark to offset (monotonic; lower values are
// ignored) and updates each affected segment's last readable byte.
func (l *Log) AdvanceHW(offset int64) {
	if offset <= l.hwOffset {
		return
	}
	if offset > l.nextOffset {
		offset = l.nextOffset
	}
	l.hwOffset = offset
	for _, s := range l.segments {
		if s.baseOffset >= offset {
			break
		}
		committed := s.committed
		for i := len(s.index) - 1; i >= 0; i-- {
			if s.index[i].nextOffset <= offset {
				if s.index[i].endPos > committed {
					committed = s.index[i].endPos
				}
				break
			}
		}
		if s.sealed && l.hwOffset >= l.segEndOffset(s) {
			committed = s.pos
		}
		s.committed = committed
	}
}

func (l *Log) segEndOffset(s *Segment) int64 {
	if len(s.index) == 0 {
		return s.baseOffset
	}
	return s.index[len(s.index)-1].nextOffset
}

// Locate finds the segment and byte position of the batch containing offset.
// It returns ErrOutOfRange for offsets at or beyond the log end.
func (l *Log) Locate(offset int64) (*Segment, int, error) {
	seg, i, err := l.locate(offset)
	if err != nil {
		return nil, 0, err
	}
	return seg, seg.index[i].startPos, nil
}

// locate finds the segment and the index entry of the batch containing
// offset. The index is sorted by offset, so the entry is found by binary
// search: fetch paths call this per request, and a segment holds tens of
// thousands of small batches.
func (l *Log) locate(offset int64) (*Segment, int, error) {
	if offset < 0 || offset >= l.nextOffset {
		return nil, 0, ErrOutOfRange
	}
	// Segments are ordered by base offset; find the last one starting at or
	// before the requested offset.
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
	i := sort.Search(len(seg.index), func(i int) bool { return offset < seg.index[i].nextOffset })
	if i == len(seg.index) {
		return nil, 0, ErrOutOfRange
	}
	return seg, i, nil
}

// ReadCommitted returns a read-only view of up to maxBytes of committed
// batches starting at the batch containing offset, without copying. The
// returned slice always ends on a batch boundary and never extends past the
// high watermark; nil is returned when nothing is readable yet. This backs
// the TCP fetch path (Kafka's sendfile-style zero-copy response, §5.2).
func (l *Log) ReadCommitted(offset int64, maxBytes int) ([]byte, error) {
	return l.readUpTo(offset, maxBytes, l.hwOffset)
}

// ReadUncommitted is ReadCommitted without the high-watermark bound: it reads
// up to the log end. Replica fetchers use it — followers must copy data the
// leader has not yet committed (§4.3.1).
func (l *Log) ReadUncommitted(offset int64, maxBytes int) ([]byte, error) {
	return l.readUpTo(offset, maxBytes, l.nextOffset)
}

func (l *Log) readUpTo(offset int64, maxBytes int, limit int64) ([]byte, error) {
	if offset >= limit {
		if offset > l.nextOffset {
			return nil, ErrOutOfRange
		}
		return nil, nil
	}
	seg, first, err := l.locate(offset)
	if err != nil {
		return nil, err
	}
	// Batches are contiguous and sorted by position and offset: walk forward
	// from the located one, only as far as maxBytes and limit allow.
	start := seg.index[first].startPos
	end := start
	for _, e := range seg.index[first:] {
		if e.nextOffset > limit {
			break
		}
		// Even a single batch exceeding maxBytes is returned whole so that
		// progress is always possible.
		if e.endPos-start > maxBytes && end > start {
			break
		}
		end = e.endPos
		if end-start >= maxBytes {
			break
		}
	}
	if end == start {
		return nil, nil
	}
	return seg.buf[start:end], nil
}

// Release returns every segment buffer to the shared pool, zeroing each
// one's dirty prefix. The log must not be used afterwards, and no writer (in
// particular no simulated RNIC) may still hold a reference to the buffers —
// callers release only after the owning simulation has shut down. Callers
// that granted RDMA access must first fold each region's write high-water
// mark into the segment via NoteDirty.
func (l *Log) Release() {
	for _, list := range [2][]*Segment{l.segments, l.retired} {
		for _, s := range list {
			dirty := s.pos
			if s.dirty > dirty {
				dirty = s.dirty
			}
			bufpool.Put(s.buf, dirty)
			s.buf = nil
		}
	}
	l.segments = nil
	l.retired = nil
}
