// Package kwire defines the request/response protocol between clients and
// brokers. It is shaped like Kafka's protocol — correlation ids, topic and
// partition routing, acks, error codes — but uses its own compact binary
// encoding (the paper keeps Kafka's formats for backward compatibility; what
// matters for the reproduction is that the SAME broker log serves both the
// TCP and the RDMA datapaths).
//
// The protocol carries:
//
//   - the classical datapaths: Produce, Fetch (used by consumers AND by
//     replica fetchers in pull replication), Metadata, CreateTopic,
//     OffsetCommit/OffsetFetch;
//   - the RDMA control plane: "get RDMA produce access" and "get RDMA
//     consume access" requests sent via TCP (§4.2.2, §4.4.2), which return
//     virtual addresses, rkeys, file ids, lengths, atomic-word locations and
//     metadata-slot coordinates; plus ReleaseFile so consumers can ask the
//     broker to deregister fully-read files.
package kwire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Kind discriminates message types on the wire.
type Kind uint8

// Message kinds.
const (
	KindProduceReq Kind = iota + 1
	KindProduceResp
	KindFetchReq
	KindFetchResp
	KindMetadataReq
	KindMetadataResp
	KindCreateTopicReq
	KindCreateTopicResp
	KindProduceAccessReq
	KindProduceAccessResp
	KindConsumeAccessReq
	KindConsumeAccessResp
	KindReleaseFileReq
	KindReleaseFileResp
	KindOffsetCommitReq
	KindOffsetCommitResp
	KindOffsetFetchReq
	KindOffsetFetchResp
	// Consumer-group coordination (DESIGN.md §8). New kinds append after the
	// pre-group protocol so existing kind bytes stay stable on the wire.
	KindJoinGroupReq
	KindJoinGroupResp
	KindSyncGroupReq
	KindSyncGroupResp
	KindHeartbeatReq
	KindHeartbeatResp
	KindLeaveGroupReq
	KindLeaveGroupResp
	KindGroupCommitReq
	KindGroupCommitResp
	KindCommitAccessReq
	KindCommitAccessResp

	// KindMax is the highest assigned kind; per-kind pools size off it.
	KindMax = KindCommitAccessResp
)

// IsRequest reports whether k is an assigned request kind. Requests are the
// odd kinds and each one's response is the kind after it, so a server admits
// a frame, or refuses it, on its first byte.
func (k Kind) IsRequest() bool { return k&1 == 1 && k <= KindMax }

// ErrCode is a protocol-level error code.
type ErrCode int16

// Protocol error codes.
const (
	ErrNone ErrCode = iota
	ErrUnknownTopic
	ErrUnknownPartition
	ErrNotLeader
	ErrInvalidRecord
	ErrAccessDenied
	ErrOffsetOutOfRange
	ErrRevoked
	ErrTimeout
	ErrTopicExists
	ErrInternal
	// Consumer-group error codes (DESIGN.md §8).
	ErrNotCoordinator
	ErrRebalanceInProgress
	ErrIllegalGeneration
	ErrUnknownMember
)

func (e ErrCode) String() string {
	switch e {
	case ErrNone:
		return "OK"
	case ErrUnknownTopic:
		return "UNKNOWN_TOPIC"
	case ErrUnknownPartition:
		return "UNKNOWN_PARTITION"
	case ErrNotLeader:
		return "NOT_LEADER"
	case ErrInvalidRecord:
		return "INVALID_RECORD"
	case ErrAccessDenied:
		return "ACCESS_DENIED"
	case ErrOffsetOutOfRange:
		return "OFFSET_OUT_OF_RANGE"
	case ErrRevoked:
		return "RDMA_ACCESS_REVOKED"
	case ErrTimeout:
		return "TIMEOUT"
	case ErrTopicExists:
		return "TOPIC_EXISTS"
	case ErrInternal:
		return "INTERNAL"
	case ErrNotCoordinator:
		return "NOT_COORDINATOR"
	case ErrRebalanceInProgress:
		return "REBALANCE_IN_PROGRESS"
	case ErrIllegalGeneration:
		return "ILLEGAL_GENERATION"
	case ErrUnknownMember:
		return "UNKNOWN_MEMBER"
	}
	return fmt.Sprintf("ErrCode(%d)", int16(e))
}

// Err converts a non-OK code to a Go error (nil for ErrNone).
func (e ErrCode) Err() error {
	if e == ErrNone {
		return nil
	}
	return fmt.Errorf("kwire: broker error %s", e)
}

// Message is implemented by every protocol message.
type Message interface {
	Kind() Kind
	// fields walks the message body in wire order.
	fields(c *codec)
}

// AccessMode selects the RDMA produce protocol (§4.2.2).
type AccessMode uint8

// Produce access modes.
const (
	// AccessExclusive grants a single producer contiguous write access.
	AccessExclusive AccessMode = iota
	// AccessShared coordinates multiple producers through the RDMA
	// order/offset atomic word.
	AccessShared
)

func (m AccessMode) String() string {
	if m == AccessExclusive {
		return "exclusive"
	}
	return "shared"
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

// ProduceReq appends a record batch to a topic partition.
type ProduceReq struct {
	Topic     string
	Partition int32
	// Acks: 1 = leader only, -1 = all in-sync replicas (§4.2.1).
	Acks  int8
	Batch []byte
}

// ProduceResp acknowledges a produce.
type ProduceResp struct {
	Err        ErrCode
	BaseOffset int64
}

// FetchReq requests records from an offset. Replica fetchers set ReplicaID
// ≥ 0 and read up to the log end; clients read up to the high watermark.
type FetchReq struct {
	Topic     string
	Partition int32
	Offset    int64
	MaxBytes  int32
	// MaxWaitMicros long-polls: the broker holds the request until data is
	// available or the wait expires (Kafka's fetch purgatory).
	MaxWaitMicros int64
	ReplicaID     int32 // -1 for consumers
}

// FetchResp returns raw record-batch bytes.
type FetchResp struct {
	Err           ErrCode
	HighWatermark int64
	LogEndOffset  int64
	Data          []byte
}

// MetadataReq asks where partitions live.
type MetadataReq struct {
	Topics []string // empty = all
}

// PartitionMeta describes one partition.
type PartitionMeta struct {
	Partition int32
	Leader    string   // broker id of the leader
	Replicas  []string // all brokers hosting the partition
}

// TopicMeta describes one topic.
type TopicMeta struct {
	Name       string
	Err        ErrCode
	Partitions []PartitionMeta
}

// MetadataResp lists topic metadata.
type MetadataResp struct {
	Topics []TopicMeta
}

// CreateTopicReq creates a topic.
type CreateTopicReq struct {
	Topic             string
	Partitions        int32
	ReplicationFactor int32
}

// CreateTopicResp reports creation status.
type CreateTopicResp struct {
	Err ErrCode
}

// ProduceAccessReq asks for RDMA write access to the head file of a TP
// (§4.2.2 "Getting RDMA access").
type ProduceAccessReq struct {
	Topic     string
	Partition int32
	Mode      AccessMode
	// Session identifies the producer's RDMA session (QP bundle) at the
	// broker, established out-of-band by the connection manager.
	Session uint32
}

// ProduceAccessResp carries everything a producer needs to write with
// WriteWithImm: the mapped file's virtual address and rkey, its preallocated
// length, the current append position, the 16-bit file ID for immediate
// data, and (shared mode) the order/offset atomic word location (Fig. 5).
type ProduceAccessResp struct {
	Err     ErrCode
	FileID  uint16
	Addr    uint64
	RKey    uint32
	FileLen int64
	// WritePos is the current append position; exclusive producers write
	// contiguously from here.
	WritePos int64
	// AtomicAddr/AtomicRKey locate the 8-byte order|offset word (shared).
	AtomicAddr uint64
	AtomicRKey uint32
}

// ConsumeAccessReq asks for RDMA read access to the file containing Offset
// (§4.4.2 "Getting RDMA access").
type ConsumeAccessReq struct {
	Topic     string
	Partition int32
	Offset    int64
	// Session identifies the consumer's RDMA session at the broker.
	Session uint32
}

// ConsumeAccessResp describes the readable file and, if it is mutable, the
// consumer's metadata slot for it.
type ConsumeAccessResp struct {
	Err    ErrCode
	FileID int32 // dense segment id within the partition
	Addr   uint64
	RKey   uint32
	// StartPos is the byte position of the batch containing the requested
	// offset; LastReadable is the position after the last committed batch.
	StartPos     int64
	LastReadable int64
	Mutable      bool
	// Slot coordinates (valid when Mutable): the consumer's contiguous slot
	// region and the index of this file's slot within it (Fig. 9).
	SlotRegionAddr uint64
	SlotRegionRKey uint32
	SlotIndex      int32
}

// ReleaseFileReq tells the broker a consumer is done with a file so its
// registration can be dropped to reduce memory usage (§4.4.2).
type ReleaseFileReq struct {
	Topic     string
	Partition int32
	FileID    int32
	// Session identifies the consumer's RDMA session at the broker.
	Session uint32
}

// ReleaseFileResp acknowledges a release.
type ReleaseFileResp struct {
	Err ErrCode
}

// OffsetCommitReq records a consumer group's progress (§5.4).
type OffsetCommitReq struct {
	Group     string
	Topic     string
	Partition int32
	Offset    int64
}

// OffsetCommitResp acknowledges a commit.
type OffsetCommitResp struct {
	Err ErrCode
}

// OffsetFetchReq reads back a committed offset.
type OffsetFetchReq struct {
	Group     string
	Topic     string
	Partition int32
}

// OffsetFetchResp returns the committed offset (-1 if none).
type OffsetFetchResp struct {
	Err    ErrCode
	Offset int64
}

// ---------------------------------------------------------------------------
// Consumer-group coordination (DESIGN.md §8)
// ---------------------------------------------------------------------------

// JoinGroupReq enters (or re-enters) a consumer group. MemberID is empty on
// the first join; the coordinator assigns one. Rejoining with the previous
// MemberID preserves assignment affinity across generations.
type JoinGroupReq struct {
	Group    string
	MemberID string
	Topics   []string
	// Strategy selects the partition assignor: 0 = range, 1 = round-robin.
	Strategy             uint8
	SessionTimeoutMicros int64
}

// JoinGroupResp carries the generation the member joined. Assignment is
// computed server-side; members fetch it with SyncGroup once the join
// barrier completes.
type JoinGroupResp struct {
	Err        ErrCode
	Generation int32
	MemberID   string
	// Members lists the sorted member ids of the generation (observability;
	// assignment is server-side so no client-side leader election happens).
	Members []string
}

// TPAssign names one assigned topic partition.
type TPAssign struct {
	Topic     string
	Partition int32
}

// SyncGroupReq asks for the member's assignment in a generation. Members
// send it after their JoinGroupResp arrives (the join reply is what parks
// on the rebalance barrier), so the coordinator answers immediately.
type SyncGroupReq struct {
	Group      string
	MemberID   string
	Generation int32
}

// SyncGroupResp returns the member's assigned partitions for Generation, in
// the coordinator's canonical order (commit-table cells index into it).
type SyncGroupResp struct {
	Err        ErrCode
	Generation int32
	Assigned   []TPAssign
}

// HeartbeatReq keeps a member's session alive. ErrRebalanceInProgress in the
// response tells the member to revoke its partitions and rejoin.
type HeartbeatReq struct {
	Group      string
	MemberID   string
	Generation int32
}

// HeartbeatResp acknowledges a heartbeat.
type HeartbeatResp struct {
	Err ErrCode
}

// LeaveGroupReq removes a member, triggering an immediate rebalance.
type LeaveGroupReq struct {
	Group    string
	MemberID string
}

// LeaveGroupResp acknowledges a leave.
type LeaveGroupResp struct {
	Err ErrCode
}

// GroupCommitReq commits an offset on the RPC path with generation fencing:
// commits from a stale generation or unknown member are rejected, unlike the
// ungrouped OffsetCommitReq.
type GroupCommitReq struct {
	Group      string
	MemberID   string
	Generation int32
	Topic      string
	Partition  int32
	Offset     int64
}

// GroupCommitResp acknowledges a fenced commit.
type GroupCommitResp struct {
	Err ErrCode
}

// CommitAccessReq asks for one-sided commit access: the coordinator's
// per-generation offset table MR and this member's cell range within it.
type CommitAccessReq struct {
	Group      string
	MemberID   string
	Generation int32
	// Session identifies the consumer's RDMA session at the coordinator.
	Session uint32
}

// CommitAccessResp locates the member's commit cells. Cell i (16 bytes:
// generation u32, pad u32, offset+1 u64) corresponds to the i-th entry of the
// member's SyncGroupResp assignment; the table is registered per generation
// and deregistered on rebalance, so writes from a fenced generation complete
// with a remote-access error instead of clobbering newer commits.
type CommitAccessResp struct {
	Err        ErrCode
	Generation int32
	Addr       uint64
	RKey       uint32
	// SlotBase is the byte offset of the member's first cell inside the
	// table; the member owns Cells consecutive cells from there.
	SlotBase int64
	Cells    int32
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

// ErrTruncated reports a malformed or short message.
var ErrTruncated = errors.New("kwire: truncated message")

// ErrUnknownKind reports an unrecognised message kind byte.
var ErrUnknownKind = errors.New("kwire: unknown message kind")

// codec walks a message's fields in wire order, in either direction: encoding
// appends each field to buf, decoding (dec) consumes it from the front of buf
// and stores it through the same pointer, so a message names its fields once
// (its fields method) and the two directions cannot drift apart. The first
// short read sets err and every later one is a no-op: a failed decode leaves
// the fields it did not reach as they were, and callers must not read them.
type codec struct {
	buf []byte
	err error
	dec bool
	// recent is a ring of the last strings decoded into a changed field, next
	// the slot the following one takes: a pooled struct that sees two topics
	// alternate takes the other one from here instead of allocating it anew.
	// The codec pool carries the ring from one decode to the next.
	recent [4]string
	next   uint8
}

func (c *codec) take(n int) []byte {
	if c.err != nil || len(c.buf) < n {
		c.err = ErrTruncated
		return nil
	}
	b := c.buf[:n]
	c.buf = c.buf[n:]
	return b
}

// The fixed-width helpers below are the codec's inner loop; they append into
// (or slice from) caller-owned buffers and are part of the 0 allocs/op
// steady-state contract pinned by alloc_test.go. Integers are little-endian.

func (c *codec) u8(v *uint8) {
	if !c.dec {
		c.buf = append(c.buf, *v)
	} else if b := c.take(1); b != nil {
		*v = b[0]
	}
}

func (c *codec) u16(v *uint16) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint16(c.buf, *v)
	} else if b := c.take(2); b != nil {
		*v = binary.LittleEndian.Uint16(b)
	}
}

func (c *codec) u32(v *uint32) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, *v)
	} else if b := c.take(4); b != nil {
		*v = binary.LittleEndian.Uint32(b)
	}
}

func (c *codec) u64(v *uint64) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, *v)
	} else if b := c.take(8); b != nil {
		*v = binary.LittleEndian.Uint64(b)
	}
}

func (c *codec) i8(v *int8) {
	if !c.dec {
		c.buf = append(c.buf, uint8(*v))
	} else if b := c.take(1); b != nil {
		*v = int8(b[0])
	}
}

func (c *codec) i32(v *int32) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(*v))
	} else if b := c.take(4); b != nil {
		*v = int32(binary.LittleEndian.Uint32(b))
	}
}

func (c *codec) i64(v *int64) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(*v))
	} else if b := c.take(8); b != nil {
		*v = int64(binary.LittleEndian.Uint64(b))
	}
}

// code walks an error code, a signed 16-bit field.
func (c *codec) code(v *ErrCode) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint16(c.buf, uint16(*v))
	} else if b := c.take(2); b != nil {
		*v = ErrCode(binary.LittleEndian.Uint16(b))
	}
}

// boolean writes 0 or 1 and reads any non-zero byte as true.
func (c *codec) boolean(v *bool) {
	var u uint8
	if *v {
		u = 1
	}
	c.u8(&u)
	if c.dec {
		*v = u != 0
	}
}

// count walks the 16-bit length prefix of a string or a list of n elements
// and returns the length to walk: n when encoding, what the peer wrote when
// decoding (0 after an error). It is the one place a length is checked: a
// longer field would be framed under its length mod 65536, followed by all of
// its bytes, and decode without error as a different message, so encoding one
// panics instead — a programming error, reported where it is made.
func (c *codec) count(n int) int {
	if c.dec {
		n = 0
	} else if n > 0xffff {
		panic(fmt.Sprintf("kwire: field of length %d does not fit its 16-bit length prefix", n))
	}
	v := uint16(n)
	c.u16(&v)
	return int(v)
}

// str walks a string field. Decoding rewrites *s only when the value changed,
// and then with one of the codec's recent strings when it matches: neither
// `string(b)` comparison allocates, so decoding a stream of messages into a
// pooled struct costs nothing as long as it names at most four strings in
// turn (two topics, say).
func (c *codec) str(s *string) {
	n := c.count(len(*s))
	if !c.dec {
		c.buf = append(c.buf, *s...)
		return
	}
	b := c.take(n)
	if c.err != nil || *s == string(b) {
		return
	}
	for _, r := range c.recent {
		if r == string(b) {
			*s = r
			return
		}
	}
	*s = string(b)
	c.recent[c.next%uint8(len(c.recent))] = *s
	c.next++
}

// bytes walks a byte field behind a 32-bit length. Decoding reuses *b's
// capacity when the payload fits; the result never aliases the wire buffer.
func (c *codec) bytes(b *[]byte) {
	n := uint32(len(*b))
	c.u32(&n)
	if !c.dec {
		c.buf = append(c.buf, *b...)
	} else if src := c.take(int(n)); c.err == nil {
		if cap(*b) < len(src) {
			*b = nil // a fresh buffer of n bytes, not doubled and not zeroed first
		}
		*b = append((*b)[:0], src...)
	}
}

// list walks a counted list, each element through elem. Decoding refills *s
// from its start, appending one zero element at a time and walking it in
// place, and stops at the first error: the count a peer wrote never sizes
// anything, so a short frame that claims 65,535 elements costs one.
func list[T any](c *codec, s *[]T, elem func(*codec, *T)) {
	n := c.count(len(*s))
	if c.dec {
		*s = (*s)[:0]
	}
	for i := 0; i < n && c.err == nil; i++ {
		if c.dec {
			var zero T
			*s = append(*s, zero)
		}
		elem(c, &(*s)[i])
	}
}

// constructors is the kind table: each kind's empty message. TestKindParity
// holds it to the Kind methods below.
var constructors = [KindMax + 1]func() Message{
	KindProduceReq:        func() Message { return new(ProduceReq) },
	KindProduceResp:       func() Message { return new(ProduceResp) },
	KindFetchReq:          func() Message { return new(FetchReq) },
	KindFetchResp:         func() Message { return new(FetchResp) },
	KindMetadataReq:       func() Message { return new(MetadataReq) },
	KindMetadataResp:      func() Message { return new(MetadataResp) },
	KindCreateTopicReq:    func() Message { return new(CreateTopicReq) },
	KindCreateTopicResp:   func() Message { return new(CreateTopicResp) },
	KindProduceAccessReq:  func() Message { return new(ProduceAccessReq) },
	KindProduceAccessResp: func() Message { return new(ProduceAccessResp) },
	KindConsumeAccessReq:  func() Message { return new(ConsumeAccessReq) },
	KindConsumeAccessResp: func() Message { return new(ConsumeAccessResp) },
	KindReleaseFileReq:    func() Message { return new(ReleaseFileReq) },
	KindReleaseFileResp:   func() Message { return new(ReleaseFileResp) },
	KindOffsetCommitReq:   func() Message { return new(OffsetCommitReq) },
	KindOffsetCommitResp:  func() Message { return new(OffsetCommitResp) },
	KindOffsetFetchReq:    func() Message { return new(OffsetFetchReq) },
	KindOffsetFetchResp:   func() Message { return new(OffsetFetchResp) },
	KindJoinGroupReq:      func() Message { return new(JoinGroupReq) },
	KindJoinGroupResp:     func() Message { return new(JoinGroupResp) },
	KindSyncGroupReq:      func() Message { return new(SyncGroupReq) },
	KindSyncGroupResp:     func() Message { return new(SyncGroupResp) },
	KindHeartbeatReq:      func() Message { return new(HeartbeatReq) },
	KindHeartbeatResp:     func() Message { return new(HeartbeatResp) },
	KindLeaveGroupReq:     func() Message { return new(LeaveGroupReq) },
	KindLeaveGroupResp:    func() Message { return new(LeaveGroupResp) },
	KindGroupCommitReq:    func() Message { return new(GroupCommitReq) },
	KindGroupCommitResp:   func() Message { return new(GroupCommitResp) },
	KindCommitAccessReq:   func() Message { return new(CommitAccessReq) },
	KindCommitAccessResp:  func() Message { return new(CommitAccessResp) },
}

// NewMessage returns an empty message struct of the given kind, or nil for
// an unknown kind. Callers that pool decoded messages per kind (the broker's
// request free lists) use it to seed their pools.
func NewMessage(k Kind) Message {
	if k == 0 || k > KindMax {
		return nil
	}
	return constructors[k]()
}

// Kind implementations.
func (*ProduceReq) Kind() Kind        { return KindProduceReq }
func (*ProduceResp) Kind() Kind       { return KindProduceResp }
func (*FetchReq) Kind() Kind          { return KindFetchReq }
func (*FetchResp) Kind() Kind         { return KindFetchResp }
func (*MetadataReq) Kind() Kind       { return KindMetadataReq }
func (*MetadataResp) Kind() Kind      { return KindMetadataResp }
func (*CreateTopicReq) Kind() Kind    { return KindCreateTopicReq }
func (*CreateTopicResp) Kind() Kind   { return KindCreateTopicResp }
func (*ProduceAccessReq) Kind() Kind  { return KindProduceAccessReq }
func (*ProduceAccessResp) Kind() Kind { return KindProduceAccessResp }
func (*ConsumeAccessReq) Kind() Kind  { return KindConsumeAccessReq }
func (*ConsumeAccessResp) Kind() Kind { return KindConsumeAccessResp }
func (*ReleaseFileReq) Kind() Kind    { return KindReleaseFileReq }
func (*ReleaseFileResp) Kind() Kind   { return KindReleaseFileResp }
func (*OffsetCommitReq) Kind() Kind   { return KindOffsetCommitReq }
func (*OffsetCommitResp) Kind() Kind  { return KindOffsetCommitResp }
func (*OffsetFetchReq) Kind() Kind    { return KindOffsetFetchReq }
func (*OffsetFetchResp) Kind() Kind   { return KindOffsetFetchResp }
func (*JoinGroupReq) Kind() Kind      { return KindJoinGroupReq }
func (*JoinGroupResp) Kind() Kind     { return KindJoinGroupResp }
func (*SyncGroupReq) Kind() Kind      { return KindSyncGroupReq }
func (*SyncGroupResp) Kind() Kind     { return KindSyncGroupResp }
func (*HeartbeatReq) Kind() Kind      { return KindHeartbeatReq }
func (*HeartbeatResp) Kind() Kind     { return KindHeartbeatResp }
func (*LeaveGroupReq) Kind() Kind     { return KindLeaveGroupReq }
func (*LeaveGroupResp) Kind() Kind    { return KindLeaveGroupResp }
func (*GroupCommitReq) Kind() Kind    { return KindGroupCommitReq }
func (*GroupCommitResp) Kind() Kind   { return KindGroupCommitResp }
func (*CommitAccessReq) Kind() Kind   { return KindCommitAccessReq }
func (*CommitAccessResp) Kind() Kind  { return KindCommitAccessResp }

func (m *ProduceReq) fields(c *codec) {
	c.str(&m.Topic)
	c.i32(&m.Partition)
	c.i8(&m.Acks)
	c.bytes(&m.Batch)
}

func (m *ProduceResp) fields(c *codec) {
	c.code(&m.Err)
	c.i64(&m.BaseOffset)
}

func (m *FetchReq) fields(c *codec) {
	c.str(&m.Topic)
	c.i32(&m.Partition)
	c.i64(&m.Offset)
	c.i32(&m.MaxBytes)
	c.i64(&m.MaxWaitMicros)
	c.i32(&m.ReplicaID)
}

func (m *FetchResp) fields(c *codec) {
	c.code(&m.Err)
	c.i64(&m.HighWatermark)
	c.i64(&m.LogEndOffset)
	c.bytes(&m.Data)
}

func (m *MetadataReq) fields(c *codec) { list(c, &m.Topics, (*codec).str) }

func (m *MetadataResp) fields(c *codec) { list(c, &m.Topics, (*codec).topicMeta) }

func (c *codec) topicMeta(t *TopicMeta) {
	c.str(&t.Name)
	c.code(&t.Err)
	list(c, &t.Partitions, (*codec).partitionMeta)
}

func (c *codec) partitionMeta(p *PartitionMeta) {
	c.i32(&p.Partition)
	c.str(&p.Leader)
	list(c, &p.Replicas, (*codec).str)
}

func (m *CreateTopicReq) fields(c *codec) {
	c.str(&m.Topic)
	c.i32(&m.Partitions)
	c.i32(&m.ReplicationFactor)
}

func (m *CreateTopicResp) fields(c *codec) { c.code(&m.Err) }

func (m *ProduceAccessReq) fields(c *codec) {
	c.str(&m.Topic)
	c.i32(&m.Partition)
	c.u8((*uint8)(&m.Mode))
	c.u32(&m.Session)
}

func (m *ProduceAccessResp) fields(c *codec) {
	c.code(&m.Err)
	c.u16(&m.FileID)
	c.u64(&m.Addr)
	c.u32(&m.RKey)
	c.i64(&m.FileLen)
	c.i64(&m.WritePos)
	c.u64(&m.AtomicAddr)
	c.u32(&m.AtomicRKey)
}

func (m *ConsumeAccessReq) fields(c *codec) {
	c.str(&m.Topic)
	c.i32(&m.Partition)
	c.i64(&m.Offset)
	c.u32(&m.Session)
}

func (m *ConsumeAccessResp) fields(c *codec) {
	c.code(&m.Err)
	c.i32(&m.FileID)
	c.u64(&m.Addr)
	c.u32(&m.RKey)
	c.i64(&m.StartPos)
	c.i64(&m.LastReadable)
	c.boolean(&m.Mutable)
	c.u64(&m.SlotRegionAddr)
	c.u32(&m.SlotRegionRKey)
	c.i32(&m.SlotIndex)
}

func (m *ReleaseFileReq) fields(c *codec) {
	c.str(&m.Topic)
	c.i32(&m.Partition)
	c.i32(&m.FileID)
	c.u32(&m.Session)
}

func (m *ReleaseFileResp) fields(c *codec) { c.code(&m.Err) }

func (m *OffsetCommitReq) fields(c *codec) {
	c.str(&m.Group)
	c.str(&m.Topic)
	c.i32(&m.Partition)
	c.i64(&m.Offset)
}

func (m *OffsetCommitResp) fields(c *codec) { c.code(&m.Err) }

func (m *OffsetFetchReq) fields(c *codec) {
	c.str(&m.Group)
	c.str(&m.Topic)
	c.i32(&m.Partition)
}

func (m *OffsetFetchResp) fields(c *codec) {
	c.code(&m.Err)
	c.i64(&m.Offset)
}

func (m *JoinGroupReq) fields(c *codec) {
	c.str(&m.Group)
	c.str(&m.MemberID)
	list(c, &m.Topics, (*codec).str)
	c.u8(&m.Strategy)
	c.i64(&m.SessionTimeoutMicros)
}

func (m *JoinGroupResp) fields(c *codec) {
	c.code(&m.Err)
	c.i32(&m.Generation)
	c.str(&m.MemberID)
	list(c, &m.Members, (*codec).str)
}

func (m *SyncGroupReq) fields(c *codec) {
	c.str(&m.Group)
	c.str(&m.MemberID)
	c.i32(&m.Generation)
}

func (m *SyncGroupResp) fields(c *codec) {
	c.code(&m.Err)
	c.i32(&m.Generation)
	list(c, &m.Assigned, (*codec).tpAssign)
}

func (c *codec) tpAssign(a *TPAssign) {
	c.str(&a.Topic)
	c.i32(&a.Partition)
}

func (m *HeartbeatReq) fields(c *codec) {
	c.str(&m.Group)
	c.str(&m.MemberID)
	c.i32(&m.Generation)
}

func (m *HeartbeatResp) fields(c *codec) { c.code(&m.Err) }

func (m *LeaveGroupReq) fields(c *codec) {
	c.str(&m.Group)
	c.str(&m.MemberID)
}

func (m *LeaveGroupResp) fields(c *codec) { c.code(&m.Err) }

func (m *GroupCommitReq) fields(c *codec) {
	c.str(&m.Group)
	c.str(&m.MemberID)
	c.i32(&m.Generation)
	c.str(&m.Topic)
	c.i32(&m.Partition)
	c.i64(&m.Offset)
}

func (m *GroupCommitResp) fields(c *codec) { c.code(&m.Err) }

func (m *CommitAccessReq) fields(c *codec) {
	c.str(&m.Group)
	c.str(&m.MemberID)
	c.i32(&m.Generation)
	c.u32(&m.Session)
}

func (m *CommitAccessResp) fields(c *codec) {
	c.code(&m.Err)
	c.i32(&m.Generation)
	c.u64(&m.Addr)
	c.u32(&m.RKey)
	c.i64(&m.SlotBase)
	c.i32(&m.Cells)
}

// codecPool recycles codec state. A codec crosses an interface method call
// (Message.fields), so escape analysis pins it to the heap; pooling makes
// AppendEncode and DecodeInto allocation-free at steady state anyway.
var codecPool = sync.Pool{New: func() any { return new(codec) }}

// AppendEncode frames a message with its correlation id — kind(1) corr(4)
// body(...) — appending to dst (which may be nil) and returning the extended
// slice. When dst has enough capacity it performs no allocations. It panics
// on a string or list too long for its 16-bit length prefix.
func AppendEncode(dst []byte, corr uint32, m Message) []byte {
	c := codecPool.Get().(*codec)
	c.buf, c.dec = dst, false
	k := uint8(m.Kind())
	c.u8(&k)
	c.u32(&corr)
	m.fields(c)
	out := c.buf
	c.buf = nil
	codecPool.Put(c)
	return out
}

// Encode frames a message into a fresh buffer. Hot paths should prefer
// AppendEncode or Scratch with a reused buffer.
func Encode(corr uint32, m Message) []byte {
	return AppendEncode(make([]byte, 0, 64), corr, m)
}

// Scratch is a reusable encode buffer for per-process hot paths. The frame
// returned by Encode is only valid until the next call on the same Scratch,
// so callers must transmit (or copy) it before re-encoding. Not safe for
// concurrent use; give each simulated process its own.
type Scratch struct{ buf []byte }

// Encode frames a message into the scratch buffer, growing it on first use
// and reusing it afterwards (0 allocs/op at steady state).
func (s *Scratch) Encode(corr uint32, m Message) []byte {
	s.buf = AppendEncode(s.buf[:0], corr, m)
	return s.buf
}

// PeekKind returns the kind byte of a framed message without decoding it.
func PeekKind(buf []byte) (Kind, bool) {
	if len(buf) < 1 {
		return 0, false
	}
	return Kind(buf[0]), true
}

// ErrKindMismatch reports a DecodeInto target of the wrong message kind.
var ErrKindMismatch = errors.New("kwire: message kind mismatch")

// DecodeInto parses a framed message into m, which must match the frame's
// kind (see PeekKind). Unlike Decode it reuses m's existing field capacity —
// byte fields are overwritten in place when they fit, string fields are only
// reallocated when their value changed to one not among the last few the
// codec decoded — so decoding a stream of similar messages into a pooled
// struct does 0 allocs/op at steady state. Decoded fields never alias buf,
// which may be recycled as soon as DecodeInto returns.
func DecodeInto(buf []byte, m Message) (corr uint32, err error) {
	c := codecPool.Get().(*codec)
	c.buf, c.err, c.dec = buf, nil, true
	var k uint8
	c.u8(&k)
	c.u32(&corr)
	if c.err == nil && Kind(k) != m.Kind() {
		c.err = ErrKindMismatch
	}
	if c.err == nil {
		m.fields(c)
	}
	err = c.err
	c.buf, c.err = nil, nil
	codecPool.Put(c)
	if err != nil {
		return 0, err
	}
	return corr, nil
}

// Decode parses a framed message into a freshly allocated struct.
func Decode(buf []byte) (corr uint32, m Message, err error) {
	k, ok := PeekKind(buf)
	if !ok {
		return 0, nil, ErrTruncated
	}
	m = NewMessage(k)
	if m == nil {
		return 0, nil, ErrUnknownKind
	}
	corr, err = DecodeInto(buf, m)
	if err != nil {
		return 0, nil, err
	}
	return corr, m, nil
}
