// Package krecord implements the record batch format stored in topic
// partitions and carried by produce and fetch requests.
//
// The layout is modelled on Kafka's v2 record batch format, with the two
// properties KafkaDirect depends on (§4.2.2):
//
//   - the broker-assigned base offset is NOT covered by the checksum, so a
//     broker can assign offsets by rewriting eight bytes in place — no
//     re-serialisation, preserving the zero-copy produce path;
//   - everything else IS covered by a CRC32C, which the broker verifies
//     before committing records ("verifying checksums of new records").
//
// Batch layout (little-endian):
//
//	off  0: baseOffset  int64   assigned by the broker, excluded from CRC
//	off  8: batchLen    uint32  total batch length in bytes, incl. header
//	off 12: magic       byte    = 2
//	off 13: crc         uint32  CRC32C over bytes [17:batchLen)
//	off 17: attrs       byte
//	off 18: count       uint32  number of records
//	off 22: baseTime    int64   timestamp of the first record (unix nanos)
//	off 30: producerID  int64
//	off 38: records     ...
//
// Record layout (after a uvarint total-length prefix):
//
//	attrs byte, timestampDelta uvarint, offsetDelta uvarint,
//	keyLen+1 uvarint, key bytes, valueLen+1 uvarint, value bytes
//
// (the +1 encoding lets length 0 mean "null").
package krecord

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// HeaderSize is the fixed batch header size in bytes.
const HeaderSize = 38

// MaxRecordSize caps a single record, mirroring Kafka's 1 MiB default limit
// (§3, "The record size in Kafka is limited to 1 MiB").
const MaxRecordSize = 1 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Errors returned by parsing and validation.
var (
	ErrTooShort    = errors.New("krecord: buffer too short for a batch")
	ErrBadMagic    = errors.New("krecord: unsupported magic byte")
	ErrBadCRC      = errors.New("krecord: CRC mismatch")
	ErrCorrupt     = errors.New("krecord: malformed record data")
	ErrRecordSize  = errors.New("krecord: record exceeds maximum size")
	ErrEmptyBatch  = errors.New("krecord: batch contains no records")
	ErrShortRecord = errors.New("krecord: truncated record")
)

// Record is one key/value message.
type Record struct {
	Key       []byte
	Value     []byte
	Timestamp int64 // unix nanoseconds
	Offset    int64 // absolute Kafka offset (filled when iterating a batch)
}

// Builder accumulates records into a batch.
type Builder struct {
	buf        []byte
	body       []byte // per-record scratch, reused across Appends
	count      uint32
	baseTime   int64
	producerID int64
	started    bool
}

// NewBuilder returns a Builder for a batch owned by the given producer.
func NewBuilder(producerID int64) *Builder {
	b := &Builder{producerID: producerID}
	b.buf = make([]byte, HeaderSize, HeaderSize+256)
	return b
}

// Reset clears the builder for reuse.
func (b *Builder) Reset() {
	b.buf = b.buf[:HeaderSize]
	b.count = 0
	b.baseTime = 0
	b.started = false
}

// Count reports the number of appended records.
func (b *Builder) Count() int { return int(b.count) }

// Size reports the current encoded size in bytes.
func (b *Builder) Size() int { return len(b.buf) }

// Append adds a record. Timestamps must be non-decreasing relative to the
// first appended record.
func (b *Builder) Append(r Record) error {
	if len(r.Key)+len(r.Value) > MaxRecordSize {
		return ErrRecordSize
	}
	if !b.started {
		b.baseTime = r.Timestamp
		b.started = true
	}
	tsDelta := r.Timestamp - b.baseTime
	if tsDelta < 0 {
		return fmt.Errorf("krecord: timestamp delta %d is negative", tsDelta)
	}
	var tmp [binary.MaxVarintLen64]byte
	body := b.body[:0]
	body = append(body, 0) // record attrs
	body = append(body, tmp[:binary.PutUvarint(tmp[:], uint64(tsDelta))]...)
	body = append(body, tmp[:binary.PutUvarint(tmp[:], uint64(b.count))]...)
	body = appendBytesField(body, r.Key)
	body = appendBytesField(body, r.Value)
	b.body = body // keep the grown scratch for the next record

	b.buf = append(b.buf, tmp[:binary.PutUvarint(tmp[:], uint64(len(body)))]...)
	b.buf = append(b.buf, body...)
	b.count++
	return nil
}

// appendBytesField encodes len+1 (0 = null) followed by the bytes.
func appendBytesField(dst, v []byte) []byte {
	var tmp [binary.MaxVarintLen64]byte
	if v == nil {
		return append(dst, tmp[:binary.PutUvarint(tmp[:], 0)]...)
	}
	dst = append(dst, tmp[:binary.PutUvarint(tmp[:], uint64(len(v)+1))]...)
	return append(dst, v...)
}

// Bytes finalises and returns the encoded batch. The builder remains usable;
// further Appends invalidate previously returned slices.
func (b *Builder) Bytes() ([]byte, error) {
	if b.count == 0 {
		return nil, ErrEmptyBatch
	}
	buf := b.buf
	binary.LittleEndian.PutUint64(buf[0:], 0) // base offset, broker-assigned
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(buf)))
	buf[12] = 2
	buf[17] = 0 // batch attrs
	binary.LittleEndian.PutUint32(buf[18:], b.count)
	binary.LittleEndian.PutUint64(buf[22:], uint64(b.baseTime))
	binary.LittleEndian.PutUint64(buf[30:], uint64(b.producerID))
	binary.LittleEndian.PutUint32(buf[13:], crc32.Checksum(buf[17:], castagnoli))
	return buf, nil
}

// Encode is a convenience for building a single-batch payload from records.
func Encode(producerID int64, records ...Record) ([]byte, error) {
	b := NewBuilder(producerID)
	for _, r := range records {
		if err := b.Append(r); err != nil {
			return nil, err
		}
	}
	return b.Bytes()
}

// Batch is a read-only view over an encoded batch.
type Batch struct {
	raw []byte
}

// PeekSize reports the total encoded size of the batch starting at buf, if
// enough bytes (12) are present to know it. Consumers use it to reassemble
// batches from fixed-size RDMA reads (§4.4.2 "Fetch size for RDMA Reads").
func PeekSize(buf []byte) (int, bool) {
	if len(buf) < 12 {
		return 0, false
	}
	n := int(binary.LittleEndian.Uint32(buf[8:]))
	if n < HeaderSize {
		return 0, false
	}
	return n, true
}

// Parse interprets the start of buf as one batch, returning the view and the
// number of bytes consumed. It checks structural integrity but not the CRC;
// call Validate for that.
func Parse(buf []byte) (Batch, int, error) {
	if len(buf) < HeaderSize {
		return Batch{}, 0, ErrTooShort
	}
	if buf[12] != 2 {
		return Batch{}, 0, ErrBadMagic
	}
	n := int(binary.LittleEndian.Uint32(buf[8:]))
	if n < HeaderSize {
		return Batch{}, 0, ErrCorrupt
	}
	if n > len(buf) {
		return Batch{}, 0, ErrTooShort
	}
	return Batch{raw: buf[:n]}, n, nil
}

// Raw returns the underlying encoded bytes.
func (b Batch) Raw() []byte { return b.raw }

// Size returns the encoded size in bytes.
func (b Batch) Size() int { return len(b.raw) }

// BaseOffset returns the broker-assigned offset of the first record.
func (b Batch) BaseOffset() int64 { return int64(binary.LittleEndian.Uint64(b.raw[0:])) }

// SetBaseOffset assigns the batch's base offset in place. Because the field
// is excluded from the CRC, this is the zero-copy commit step the broker
// performs (§4.2.2).
func (b Batch) SetBaseOffset(off int64) { binary.LittleEndian.PutUint64(b.raw[0:], uint64(off)) }

// Count returns the number of records in the batch.
func (b Batch) Count() int { return int(binary.LittleEndian.Uint32(b.raw[18:])) }

// NextOffset returns the offset one past the batch's last record.
func (b Batch) NextOffset() int64 { return b.BaseOffset() + int64(b.Count()) }

// BaseTime returns the timestamp of the first record.
func (b Batch) BaseTime() int64 { return int64(binary.LittleEndian.Uint64(b.raw[22:])) }

// ProducerID returns the producer that built the batch.
func (b Batch) ProducerID() int64 { return int64(binary.LittleEndian.Uint64(b.raw[30:])) }

// CRC returns the stored checksum.
func (b Batch) CRC() uint32 { return binary.LittleEndian.Uint32(b.raw[13:]) }

// Validate recomputes the CRC32C and checks it, plus structural integrity of
// every record, in place. This is the verification brokers perform before
// committing (§4.2.2) and consumers perform on fetched data (§5.3).
func (b Batch) Validate() error {
	if crc32.Checksum(b.raw[17:], castagnoli) != b.CRC() {
		return ErrBadCRC
	}
	if b.Count() == 0 {
		return ErrEmptyBatch
	}
	return b.walk(nil, 0)
}

// Records decodes all records in the batch, assigning absolute offsets from
// the batch base offset.
func (b Batch) Records() ([]Record, error) {
	return b.AppendRecords(make([]Record, 0, b.Count()), math.MinInt64)
}

// AppendRecords appends the batch's records from offset from on to dst and
// returns the extended slice: a consumer decodes fetch after fetch into one
// slice of its own. On an error it returns dst as it came. The records alias
// the batch's bytes.
func (b Batch) AppendRecords(dst []Record, from int64) ([]Record, error) {
	out := dst
	if err := b.walk(&out, from); err != nil {
		return dst, err
	}
	return out, nil
}

// walk decodes the records one after the other, appends those from offset
// from on to *dst (nil: check only) and holds their number against the
// header's count.
func (b Batch) walk(dst *[]Record, from int64) error {
	base, baseTime := b.BaseOffset(), b.BaseTime()
	count := 0
	for buf := b.raw[HeaderSize:]; len(buf) > 0; count++ {
		rl, n := binary.Uvarint(buf)
		if n <= 0 || rl > uint64(len(buf)-n) {
			return ErrShortRecord
		}
		rec, err := decodeRecord(buf[n:n+int(rl)], base, baseTime)
		if err != nil {
			return err
		}
		if dst != nil && rec.Offset >= from {
			*dst = append(*dst, rec)
		}
		buf = buf[n+int(rl):]
	}
	if count != b.Count() {
		return ErrCorrupt
	}
	return nil
}

func decodeRecord(body []byte, baseOffset, baseTime int64) (Record, error) {
	if len(body) < 1 {
		return Record{}, ErrShortRecord
	}
	body = body[1:] // attrs
	tsDelta, n := binary.Uvarint(body)
	if n <= 0 {
		return Record{}, ErrCorrupt
	}
	body = body[n:]
	offDelta, n := binary.Uvarint(body)
	if n <= 0 {
		return Record{}, ErrCorrupt
	}
	body = body[n:]
	key, body, err := readBytesField(body)
	if err != nil {
		return Record{}, err
	}
	value, body, err := readBytesField(body)
	if err != nil {
		return Record{}, err
	}
	if len(body) != 0 {
		return Record{}, ErrCorrupt
	}
	return Record{
		Key:       key,
		Value:     value,
		Timestamp: baseTime + int64(tsDelta),
		Offset:    baseOffset + int64(offDelta),
	}, nil
}

func readBytesField(buf []byte) ([]byte, []byte, error) {
	l, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, nil, ErrCorrupt
	}
	buf = buf[n:]
	if l == 0 {
		return nil, buf, nil
	}
	l--
	if l > uint64(len(buf)) {
		return nil, nil, ErrShortRecord
	}
	return buf[:l], buf[l:], nil
}

// Scan iterates over consecutive batches in buf, calling fn for each, and
// returns the number of bytes consumed by complete batches. A final partial
// batch is not an error: scanning stops before it (consumers keep partial
// tails until more bytes arrive, §4.4.2).
func Scan(buf []byte, fn func(Batch) error) (int, error) {
	consumed := 0
	for {
		size, ok := PeekSize(buf[consumed:])
		if !ok || size > len(buf)-consumed {
			return consumed, nil
		}
		batch, n, err := Parse(buf[consumed:])
		if err != nil {
			return consumed, err
		}
		if err := fn(batch); err != nil {
			return consumed, err
		}
		consumed += n
	}
}
