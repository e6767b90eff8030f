package kwire

import (
	"bytes"
	"encoding/hex"
	"os"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// roundTrip encodes and decodes a message, asserting equality.
func roundTrip(t *testing.T, corr uint32, m Message) Message {
	t.Helper()
	buf := Encode(corr, m)
	gotCorr, got, err := Decode(buf)
	if err != nil {
		t.Fatalf("decode %T: %v", m, err)
	}
	if gotCorr != corr {
		t.Fatalf("corr %d, want %d", gotCorr, corr)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip mismatch:\n sent %#v\n got  %#v", m, got)
	}
	return got
}

// allMessages is one populated message of every kind, in kind order. The
// frame of allMessages()[i] under correlation id corrOf(i) is line i of
// testdata/frames.golden.
func allMessages() []Message {
	return []Message{
		&ProduceReq{Topic: "events", Partition: 3, Acks: -1, Batch: []byte{1, 2, 3}},
		&ProduceResp{Err: ErrInvalidRecord, BaseOffset: 12345},
		&FetchReq{Topic: "t", Partition: 0, Offset: 99, MaxBytes: 4096, MaxWaitMicros: 500, ReplicaID: -1},
		&FetchResp{Err: ErrNone, HighWatermark: 7, LogEndOffset: 9, Data: bytes.Repeat([]byte{0xaa}, 100)},
		&MetadataReq{Topics: []string{"a", "b"}},
		&MetadataResp{Topics: []TopicMeta{
			{Name: "a", Err: ErrNone, Partitions: []PartitionMeta{
				{Partition: 0, Leader: "broker-1", Replicas: []string{"broker-1", "broker-2"}},
				{Partition: 1, Leader: "broker-2", Replicas: []string{"broker-2"}},
			}},
			{Name: "missing", Err: ErrUnknownTopic},
		}},
		&CreateTopicReq{Topic: "new", Partitions: 8, ReplicationFactor: 3},
		&CreateTopicResp{Err: ErrTopicExists},
		&ProduceAccessReq{Topic: "t", Partition: 1, Mode: AccessShared, Session: 99},
		&ProduceAccessResp{Err: ErrNone, FileID: 42, Addr: 0xdead0000, RKey: 17, FileLen: 1 << 30, WritePos: 4096, AtomicAddr: 0xbeef0000, AtomicRKey: 18},
		&ConsumeAccessReq{Topic: "t", Partition: 2, Offset: 1000, Session: 7},
		&ConsumeAccessResp{Err: ErrNone, FileID: 2, Addr: 0xcafe0000, RKey: 5, StartPos: 128, LastReadable: 8192, Mutable: true, SlotRegionAddr: 0xf00d0000, SlotRegionRKey: 6, SlotIndex: 3},
		&ReleaseFileReq{Topic: "t", Partition: 0, FileID: 1, Session: 7},
		&ReleaseFileResp{Err: ErrNone},
		&OffsetCommitReq{Group: "g", Topic: "t", Partition: 4, Offset: 777},
		&OffsetCommitResp{Err: ErrNone},
		&OffsetFetchReq{Group: "g", Topic: "t", Partition: 4},
		&OffsetFetchResp{Err: ErrNone, Offset: -1},
		&JoinGroupReq{Group: "g", MemberID: "g-2", Topics: []string{"t", "u"}, Strategy: 1, SessionTimeoutMicros: 500000},
		&JoinGroupResp{Err: ErrNone, Generation: 3, MemberID: "g-2", Members: []string{"g-1", "g-2"}},
		&SyncGroupReq{Group: "g", MemberID: "g-2", Generation: 3},
		&SyncGroupResp{Err: ErrNone, Generation: 3, Assigned: []TPAssign{{Topic: "t", Partition: 0}, {Topic: "u", Partition: 5}}},
		&HeartbeatReq{Group: "g", MemberID: "g-2", Generation: 3},
		&HeartbeatResp{Err: ErrRebalanceInProgress},
		&LeaveGroupReq{Group: "g", MemberID: "g-2"},
		&LeaveGroupResp{Err: ErrUnknownMember},
		&GroupCommitReq{Group: "g", MemberID: "g-2", Generation: 3, Topic: "t", Partition: 0, Offset: 1234},
		&GroupCommitResp{Err: ErrIllegalGeneration},
		&CommitAccessReq{Group: "g", MemberID: "g-2", Generation: 3, Session: 9},
		&CommitAccessResp{Err: ErrNotCoordinator, Generation: 3, Addr: 0xabc0000, RKey: 77, SlotBase: 64, Cells: 4},
	}
}

func corrOf(i int) uint32 { return uint32(i*13 + 1) }

func TestRoundTripAllMessages(t *testing.T) {
	for i, m := range allMessages() {
		roundTrip(t, corrOf(i), m)
	}
}

// goldenFrames reads testdata/frames.golden: the frame of every kind, one hex
// line each in kind order, as the hand-written encode/decode pairs produced
// them on the commit before the field walk replaced those pairs (d61c2b6). The
// file is the wire format's pin and is not to be regenerated.
func goldenFrames(t testing.TB) [][]byte {
	t.Helper()
	text, err := os.ReadFile("testdata/frames.golden")
	if err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	for _, line := range strings.Fields(string(text)) {
		frame, err := hex.DecodeString(line)
		if err != nil {
			t.Fatalf("frames.golden line %d: %v", len(frames)+1, err)
		}
		frames = append(frames, frame)
	}
	return frames
}

// TestGoldenFrames holds every kind's wire bytes, not only the kinds a figure
// floods: Encode must reproduce each committed frame byte for byte, and each
// committed frame must decode to the message it was made from.
func TestGoldenFrames(t *testing.T) {
	frames, msgs := goldenFrames(t), allMessages()
	if len(frames) != len(msgs) || len(msgs) != int(KindMax) {
		t.Fatalf("%d golden frames, %d messages, %d kinds", len(frames), len(msgs), KindMax)
	}
	for i, m := range msgs {
		if m.Kind() != Kind(i+1) {
			t.Fatalf("message %d is %T, kind %d", i, m, m.Kind())
		}
		if got := Encode(corrOf(i), m); !bytes.Equal(got, frames[i]) {
			t.Errorf("%T encodes to\n %x, golden\n %x", m, got, frames[i])
		}
		corr, got, err := Decode(frames[i])
		if err != nil || corr != corrOf(i) || !reflect.DeepEqual(got, m) {
			t.Errorf("golden %T decodes to corr %d, %#v, %v", m, corr, got, err)
		}
	}
}

// TestOverlongFieldPanics: a string or list longer than its 16-bit length
// prefix used to be framed under its length mod 65536 and decode, without
// error, as a different message. Encoding one now panics with the length; the
// longest that fits still round-trips.
func TestOverlongFieldPanics(t *testing.T) {
	roundTrip(t, 1, &CreateTopicReq{Topic: strings.Repeat("t", 0xffff), Partitions: 1})
	roundTrip(t, 2, &MetadataReq{Topics: make([]string, 0xffff)})
	for _, m := range []Message{
		&CreateTopicReq{Topic: strings.Repeat("t", 70000), Partitions: 1},
		&MetadataReq{Topics: make([]string, 0x10000)},
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(r.(string), "length") {
					t.Errorf("encoding an overlong %T: recovered %v, want a panic naming the length", m, r)
				}
			}()
			Encode(3, m)
		}()
	}
}

// TestKindParity pins the numbering the broker's admission check stands on
// (Kind.IsRequest): every assigned kind constructs its own message, requests
// are the odd kinds, and a request's response is the kind after it.
func TestKindParity(t *testing.T) {
	if KindMax%2 != 0 {
		t.Fatalf("KindMax = %d is a request without a response", KindMax)
	}
	for k := Kind(1); k <= KindMax; k++ {
		m := NewMessage(k)
		if m == nil || m.Kind() != k {
			t.Fatalf("NewMessage(%d) = %T", k, m)
		}
		name := reflect.TypeOf(m).Elem().Name()
		wantReq := k%2 == 1
		if k.IsRequest() != wantReq || strings.HasSuffix(name, "Req") != wantReq || strings.HasSuffix(name, "Resp") == wantReq {
			t.Errorf("kind %d is %s: IsRequest() = %v", k, name, k.IsRequest())
		}
		if wantReq {
			resp := reflect.TypeOf(NewMessage(k + 1)).Elem().Name()
			if strings.TrimSuffix(name, "Req") != strings.TrimSuffix(resp, "Resp") {
				t.Errorf("kind %d is %s but kind %d is %s", k, name, k+1, resp)
			}
		}
	}
	for _, k := range []Kind{0, KindMax + 1, KindMax + 2, 255} {
		if k.IsRequest() || NewMessage(k) != nil {
			t.Errorf("unassigned kind %d: IsRequest() = %v, NewMessage = %T", k, k.IsRequest(), NewMessage(k))
		}
	}
}

func TestEmptyCollectionsSurvive(t *testing.T) {
	buf := Encode(1, &MetadataReq{})
	_, got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.(*MetadataReq).Topics) != 0 {
		t.Fatal("empty topics list mangled")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode(nil); err != ErrTruncated {
		t.Fatalf("nil: %v", err)
	}
	if _, _, err := Decode([]byte{0xff, 0, 0, 0, 0}); err != ErrUnknownKind {
		t.Fatalf("unknown kind: %v", err)
	}
	full := Encode(9, &ProduceReq{Topic: "topic", Batch: []byte("data")})
	for cut := 1; cut < len(full); cut++ {
		if _, _, err := Decode(full[:cut]); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestErrCodeStringsAndErr(t *testing.T) {
	if ErrNone.Err() != nil {
		t.Fatal("ErrNone should map to nil error")
	}
	if ErrNotLeader.Err() == nil {
		t.Fatal("non-OK code should map to an error")
	}
	for c := ErrNone; c <= ErrUnknownMember; c++ {
		if c.String() == "" {
			t.Fatalf("no string for code %d", c)
		}
	}
	if AccessExclusive.String() != "exclusive" || AccessShared.String() != "shared" {
		t.Fatal("AccessMode strings")
	}
}

func TestBatchBytesAreCopiedOnDecode(t *testing.T) {
	buf := Encode(1, &ProduceReq{Topic: "t", Batch: []byte("payload")})
	_, m, _ := Decode(buf)
	req := m.(*ProduceReq)
	buf[len(buf)-1] ^= 0xff // clobber the wire buffer
	if string(req.Batch) != "payload" {
		t.Fatal("decoded message aliases the wire buffer")
	}
}

func TestPropertyProduceReqRoundTrip(t *testing.T) {
	property := func(topic string, partition int32, acks int8, batch []byte, corr uint32) bool {
		if len(topic) > 60000 {
			topic = topic[:60000]
		}
		m := &ProduceReq{Topic: topic, Partition: partition, Acks: acks, Batch: batch}
		buf := Encode(corr, m)
		gotCorr, got, err := Decode(buf)
		if err != nil || gotCorr != corr {
			return false
		}
		g := got.(*ProduceReq)
		if g.Topic != topic || g.Partition != partition || g.Acks != acks {
			return false
		}
		if len(batch) == 0 {
			return len(g.Batch) == 0
		}
		return bytes.Equal(g.Batch, batch)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDecodeNeverPanics(t *testing.T) {
	property := func(data []byte) bool {
		_, _, _ = Decode(data)
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
