package krecord

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustEncode(t *testing.T, pid int64, recs ...Record) []byte {
	t.Helper()
	buf, err := Encode(pid, recs...)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestRoundTripSingleRecord(t *testing.T) {
	buf := mustEncode(t, 7, Record{Key: []byte("k"), Value: []byte("v"), Timestamp: 1000})
	batch, n, err := Parse(buf)
	if err != nil || n != len(buf) {
		t.Fatalf("parse: n=%d err=%v", n, err)
	}
	if err := batch.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if batch.ProducerID() != 7 || batch.Count() != 1 {
		t.Fatalf("pid=%d count=%d", batch.ProducerID(), batch.Count())
	}
	recs, err := batch.Records()
	if err != nil {
		t.Fatal(err)
	}
	r := recs[0]
	if string(r.Key) != "k" || string(r.Value) != "v" || r.Timestamp != 1000 {
		t.Fatalf("record %+v", r)
	}
}

func TestOffsetsAssignedInPlaceWithoutBreakingCRC(t *testing.T) {
	buf := mustEncode(t, 1,
		Record{Value: []byte("a"), Timestamp: 5},
		Record{Value: []byte("b"), Timestamp: 6},
		Record{Value: []byte("c"), Timestamp: 9},
	)
	batch, _, _ := Parse(buf)
	batch.SetBaseOffset(1234)
	if err := batch.Validate(); err != nil {
		t.Fatalf("offset rewrite broke CRC: %v", err)
	}
	recs, _ := batch.Records()
	for i, r := range recs {
		if r.Offset != 1234+int64(i) {
			t.Fatalf("record %d offset %d", i, r.Offset)
		}
	}
	if batch.NextOffset() != 1237 {
		t.Fatalf("next offset %d", batch.NextOffset())
	}
}

func TestNullAndEmptyFieldsAreDistinct(t *testing.T) {
	buf := mustEncode(t, 1,
		Record{Key: nil, Value: []byte{}, Timestamp: 0},
		Record{Key: []byte{}, Value: nil, Timestamp: 0},
	)
	batch, _, _ := Parse(buf)
	recs, err := batch.Records()
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Key != nil || recs[0].Value == nil {
		t.Fatalf("record 0: key=%v value=%v", recs[0].Key, recs[0].Value)
	}
	if recs[1].Key == nil || recs[1].Value != nil {
		t.Fatalf("record 1: key=%v value=%v", recs[1].Key, recs[1].Value)
	}
}

func TestCorruptionDetected(t *testing.T) {
	buf := mustEncode(t, 1, Record{Value: bytes.Repeat([]byte("x"), 100), Timestamp: 1})
	for _, pos := range []int{17, 18, HeaderSize, len(buf) - 1} {
		corrupted := append([]byte(nil), buf...)
		corrupted[pos] ^= 0x40
		batch, _, err := Parse(corrupted)
		if err != nil {
			continue // structural rejection also counts
		}
		if batch.Validate() == nil {
			t.Fatalf("flip at %d not detected", pos)
		}
	}
}

func TestBaseOffsetCorruptionNotCRCProtected(t *testing.T) {
	// By design: the base offset is broker-owned and excluded from the CRC.
	buf := mustEncode(t, 1, Record{Value: []byte("x"), Timestamp: 1})
	buf[3] ^= 0xff
	batch, _, _ := Parse(buf)
	if err := batch.Validate(); err != nil {
		t.Fatalf("offset bytes must not be CRC-covered: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	if _, _, err := Parse(make([]byte, 4)); err != ErrTooShort {
		t.Fatalf("short: %v", err)
	}
	buf := mustEncode(t, 1, Record{Value: []byte("x"), Timestamp: 1})
	bad := append([]byte(nil), buf...)
	bad[12] = 9
	if _, _, err := Parse(bad); err != ErrBadMagic {
		t.Fatalf("magic: %v", err)
	}
	if _, _, err := Parse(buf[:len(buf)-1]); err != ErrTooShort {
		t.Fatalf("truncated: %v", err)
	}
}

func TestEmptyBuilderFails(t *testing.T) {
	if _, err := NewBuilder(1).Bytes(); err != ErrEmptyBatch {
		t.Fatalf("err = %v", err)
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	b := NewBuilder(1)
	err := b.Append(Record{Value: make([]byte, MaxRecordSize+1)})
	if err != ErrRecordSize {
		t.Fatalf("err = %v", err)
	}
}

func TestBuilderReset(t *testing.T) {
	b := NewBuilder(1)
	b.Append(Record{Value: []byte("a"), Timestamp: 1})
	b.Reset()
	if b.Count() != 0 || b.Size() != HeaderSize {
		t.Fatalf("reset left count=%d size=%d", b.Count(), b.Size())
	}
	b.Append(Record{Value: []byte("b"), Timestamp: 2})
	buf, err := b.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	batch, _, _ := Parse(buf)
	recs, _ := batch.Records()
	if string(recs[0].Value) != "b" {
		t.Fatal("stale data after reset")
	}
}

func TestPeekSize(t *testing.T) {
	buf := mustEncode(t, 1, Record{Value: []byte("hello"), Timestamp: 1})
	if _, ok := PeekSize(buf[:11]); ok {
		t.Fatal("PeekSize should need 12 bytes")
	}
	size, ok := PeekSize(buf[:12])
	if !ok || size != len(buf) {
		t.Fatalf("PeekSize = %d,%v want %d,true", size, ok, len(buf))
	}
}

func TestScanStopsAtPartialTail(t *testing.T) {
	b1 := mustEncode(t, 1, Record{Value: []byte("one"), Timestamp: 1})
	b2 := mustEncode(t, 1, Record{Value: []byte("two"), Timestamp: 2})
	joined := append(append([]byte(nil), b1...), b2...)
	// Chop the second batch in half — as a fixed-size RDMA read would.
	partial := joined[:len(b1)+len(b2)/2]
	var seen int
	consumed, err := Scan(partial, func(b Batch) error { seen++; return b.Validate() })
	if err != nil {
		t.Fatal(err)
	}
	if seen != 1 || consumed != len(b1) {
		t.Fatalf("seen=%d consumed=%d, want 1 complete batch of %d bytes", seen, consumed, len(b1))
	}
	// With the full buffer both batches scan.
	seen = 0
	consumed, err = Scan(joined, func(b Batch) error { seen++; return nil })
	if err != nil || seen != 2 || consumed != len(joined) {
		t.Fatalf("full scan: seen=%d consumed=%d err=%v", seen, consumed, err)
	}
}

func TestTimestampMustNotRegress(t *testing.T) {
	b := NewBuilder(1)
	b.Append(Record{Value: []byte("a"), Timestamp: 100})
	if err := b.Append(Record{Value: []byte("b"), Timestamp: 50}); err == nil {
		t.Fatal("regressing timestamp accepted")
	}
}

// quickRecords generates a random record set for property tests.
func quickRecords(r *rand.Rand) []Record {
	n := 1 + r.Intn(20)
	base := r.Int63n(1 << 40)
	recs := make([]Record, n)
	for i := range recs {
		var key []byte
		if r.Intn(3) > 0 {
			key = make([]byte, r.Intn(64))
			r.Read(key)
		}
		val := make([]byte, r.Intn(1024))
		r.Read(val)
		recs[i] = Record{Key: key, Value: val, Timestamp: base + int64(i*r.Intn(1000))}
	}
	return recs
}

func TestPropertyRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	property := func(seed int64, baseOffset int64) bool {
		r := rand.New(rand.NewSource(seed))
		if baseOffset < 0 {
			baseOffset = -baseOffset
		}
		in := quickRecords(r)
		buf, err := Encode(42, in...)
		if err != nil {
			return false
		}
		batch, n, err := Parse(buf)
		if err != nil || n != len(buf) {
			return false
		}
		batch.SetBaseOffset(baseOffset)
		if batch.Validate() != nil {
			return false
		}
		out, err := batch.Records()
		if err != nil || len(out) != len(in) {
			return false
		}
		for i := range in {
			want := in[i]
			got := out[i]
			if !bytes.Equal(normalize(want.Key), normalize(got.Key)) && !(want.Key == nil && got.Key == nil) {
				return false
			}
			if (want.Key == nil) != (got.Key == nil) {
				return false
			}
			if !bytes.Equal(want.Value, got.Value) {
				return false
			}
			if got.Timestamp != want.Timestamp || got.Offset != baseOffset+int64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

func normalize(b []byte) []byte {
	if b == nil {
		return []byte{}
	}
	return b
}

func TestPropertyRandomBytesNeverPanicAndRarelyValidate(t *testing.T) {
	property := func(data []byte) bool {
		batch, _, err := Parse(data)
		if err != nil {
			return true
		}
		// Parsing may succeed structurally; validation must be safe to call.
		_ = batch.Validate()
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyScanConsumesExactlyWholeBatches(t *testing.T) {
	property := func(seed int64, cut uint16) bool {
		r := rand.New(rand.NewSource(seed))
		var joined []byte
		var sizes []int
		for i := 0; i < 1+r.Intn(5); i++ {
			buf, err := Encode(int64(i), quickRecords(r)...)
			if err != nil {
				return false
			}
			joined = append(joined, buf...)
			sizes = append(sizes, len(buf))
		}
		limit := int(cut) % (len(joined) + 1)
		consumed, err := Scan(joined[:limit], func(Batch) error { return nil })
		if err != nil {
			return false
		}
		// consumed must be the largest prefix sum of sizes ≤ limit.
		want := 0
		for _, s := range sizes {
			if want+s > limit {
				break
			}
			want += s
		}
		return consumed == want
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// reseal recomputes the checksum of a damaged batch (and its size field, if
// the damage changed the length), so that Validate gets past the CRC to the
// structural walk it shares with Records.
func reseal(buf []byte) []byte {
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(buf)))
	binary.LittleEndian.PutUint32(buf[13:], crc32.Checksum(buf[17:], castagnoli))
	return buf
}

// wantValidate is Validate's contract in terms of Records: checksum first,
// then the empty batch, then whatever the record walk reports.
func wantValidate(b Batch) error {
	if crc32.Checksum(b.raw[17:], castagnoli) != b.CRC() {
		return ErrBadCRC
	}
	if b.Count() == 0 {
		return ErrEmptyBatch
	}
	_, err := b.Records()
	return err
}

func TestValidateAgreesWithRecords(t *testing.T) {
	good := mustEncode(t, 1,
		Record{Key: []byte("k"), Value: bytes.Repeat([]byte("x"), 100), Timestamp: 1},
		Record{Value: []byte("y"), Timestamp: 2})
	// The first record: a length byte at HeaderSize, then attrs, timestamp
	// delta, offset delta, key length, key, value length, value.
	const rec0 = HeaderSize
	damaged := func(fn func(b []byte) []byte) []byte { return fn(append([]byte(nil), good...)) }
	flip := func(pos int) []byte { return damaged(func(b []byte) []byte { b[pos] ^= 0x40; return b }) }
	set := func(pos int, v byte) []byte { return damaged(func(b []byte) []byte { b[pos] = v; return b }) }
	for _, tc := range []struct {
		name string
		buf  []byte
		want error
	}{
		{"intact", good, nil},
		// The flips of TestCorruptionDetected as the wire delivers them ...
		{"flipped attrs", flip(17), ErrBadCRC},
		{"flipped count", flip(18), ErrBadCRC},
		{"flipped record length", flip(rec0), ErrBadCRC},
		{"flipped last byte", flip(len(good) - 1), ErrBadCRC},
		// ... and under a matching checksum, where only the walk can object.
		{"resealed attrs", reseal(flip(17)), nil},
		{"resealed count", reseal(flip(18)), ErrCorrupt},
		{"resealed record length", reseal(flip(rec0)), ErrShortRecord},
		{"resealed last byte", reseal(flip(len(good) - 1)), nil},
		{"count zero", reseal(set(18, 0)), ErrEmptyBatch},
		{"count one short", reseal(set(18, 1)), ErrCorrupt},
		{"last record cut", reseal(damaged(func(b []byte) []byte { return b[:len(b)-1] })), ErrShortRecord},
		{"record length past the end", reseal(set(rec0, 0x7f)), ErrShortRecord},
		{"record length varint unterminated", reseal(damaged(func(b []byte) []byte { return append(b, 0x80) })), ErrShortRecord},
		{"empty record", reseal(damaged(func(b []byte) []byte { return append(b, 0) })), ErrShortRecord},
		{"timestamp varint unterminated", reseal(damaged(func(b []byte) []byte { return append(b[:rec0], 2, 0, 0x80) })), ErrCorrupt},
		{"offset varint unterminated", reseal(damaged(func(b []byte) []byte { return append(b[:rec0], 3, 0, 0, 0x80) })), ErrCorrupt},
		{"key past the record", reseal(set(rec0+4, 0x7f)), ErrShortRecord},
		{"value past the record", reseal(set(rec0+6, 0x7f)), ErrShortRecord},
		{"bytes after the value", reseal(set(rec0+6, 100)), ErrCorrupt},
	} {
		batch, _, err := Parse(tc.buf)
		if err != nil {
			t.Fatalf("%s: Parse: %v", tc.name, err)
		}
		if got, agreed := batch.Validate(), wantValidate(batch); got != tc.want || got != agreed {
			t.Errorf("%s: Validate = %v, want %v (Records says %v)", tc.name, got, tc.want, agreed)
		}
	}
}

// TestPropertyValidateAgreesWithRecords damages random bytes of random
// batches of short records (mostly framing, little payload) under a matching
// checksum. The count's upper bytes are spared: Records sizes its result by
// them.
func TestPropertyValidateAgreesWithRecords(t *testing.T) {
	rejected := 0
	property := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := NewBuilder(1)
		for i, n := 0, 1+r.Intn(8); i < n; i++ {
			val := make([]byte, r.Intn(4))
			r.Read(val)
			if err := b.Append(Record{Value: val, Timestamp: int64(i)}); err != nil {
				return false
			}
		}
		buf, err := b.Bytes()
		if err != nil {
			return false
		}
		for i, n := 0, 1+r.Intn(3); i < n; i++ {
			pos := 18
			if r.Intn(8) > 0 {
				pos = HeaderSize + r.Intn(len(buf)-HeaderSize)
			}
			buf[pos] ^= byte(1 + r.Intn(255))
		}
		batch, _, err := Parse(reseal(buf))
		if err != nil {
			return false
		}
		got := batch.Validate()
		if got != nil {
			rejected++
		}
		return got == wantValidate(batch)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if rejected < 250 {
		t.Fatalf("only %d of 500 damaged batches were rejected: the damage misses the framing", rejected)
	}
}

// TestValidateDoesNotAllocate: brokers validate every batch they commit and
// consumers every batch they fetch; the walk decodes records in place.
func TestValidateDoesNotAllocate(t *testing.T) {
	buf, err := Encode(1, quickRecords(rand.New(rand.NewSource(1)))...)
	if err != nil {
		t.Fatal(err)
	}
	batch, _, _ := Parse(buf)
	if avg := testing.AllocsPerRun(100, func() { err = batch.Validate() }); avg != 0 || err != nil {
		t.Fatalf("Validate allocates %.1f times per batch of %d records (err %v), want 0", avg, batch.Count(), err)
	}
}

func sameRecords(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Value, b[i].Value) ||
			a[i].Timestamp != b[i].Timestamp || a[i].Offset != b[i].Offset {
			return false
		}
	}
	return true
}

// AppendRecords is Records filtered by offset, appended to the caller's
// slice; an error leaves what the slice held.
func TestAppendRecordsEqualsFilteredRecords(t *testing.T) {
	raw, err := Encode(7,
		Record{Key: []byte("k0"), Value: []byte("v0"), Timestamp: 10},
		Record{Value: []byte("v1"), Timestamp: 11},
		Record{Key: []byte("k2"), Timestamp: 12},
		Record{Value: bytes.Repeat([]byte("v3"), 100), Timestamp: 20})
	if err != nil {
		t.Fatal(err)
	}
	batch, _, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	batch.SetBaseOffset(100)
	all, err := batch.Records()
	if err != nil || len(all) != 4 {
		t.Fatalf("Records = %d records, %v", len(all), err)
	}
	prefix := []Record{{Value: []byte("kept"), Offset: -1}}
	for from := int64(98); from <= 105; from++ {
		var want []Record
		for _, r := range all {
			if r.Offset >= from {
				want = append(want, r)
			}
		}
		got, err := batch.AppendRecords(prefix[:1:1], from)
		if err != nil || !sameRecords(got[:1], prefix) || !sameRecords(got[1:], want) {
			t.Fatalf("AppendRecords from %d = %+v, %v; want the prefix and %+v", from, got, err, want)
		}
	}

	// A batch that breaks off inside its last record: the error returns the
	// slice as it came, although three records decoded before it.
	torn := append([]byte(nil), raw[:len(raw)-150]...)
	binary.LittleEndian.PutUint32(torn[8:], uint32(len(torn)))
	broken, _, err := Parse(torn)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]Record, 1, 8)
	dst[0] = prefix[0]
	got, err := broken.AppendRecords(dst, 0)
	if err == nil || !sameRecords(got, prefix) {
		t.Fatalf("AppendRecords over a torn batch = %+v, %v; want the prefix alone and an error", got, err)
	}
	if recs, err := broken.Records(); err == nil || len(recs) != 0 {
		t.Fatalf("Records over a torn batch = %+v, %v", recs, err)
	}
}
