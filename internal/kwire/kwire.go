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
	encode(w *writer)
	decode(r *reader) error
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

type writer struct{ buf []byte }

// The fixed-width writer and reader helpers below are the codec's inner
// loop; they append into (or slice from) caller-owned buffers and are part
// of the 0 allocs/op steady-state contract pinned by alloc_test.go.

func (w *writer) u8(v uint8) { w.buf = append(w.buf, v) }

func (w *writer) u16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }

func (w *writer) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

func (w *writer) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

func (w *writer) i32(v int32) { w.u32(uint32(v)) }

func (w *writer) i64(v int64) { w.u64(uint64(v)) }

func (w *writer) i16(v int16) { w.u16(uint16(v)) }

func (w *writer) boolean(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func (w *writer) str(s string) {
	w.u16(uint16(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *writer) bytes(b []byte) {
	w.u32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

type reader struct {
	buf []byte
	err error
}

func (r *reader) take(n int) []byte {
	if r.err != nil || len(r.buf) < n {
		r.err = ErrTruncated
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) i16() int16 { return int16(r.u16()) }

func (r *reader) i32() int32 { return int32(r.u32()) }

func (r *reader) i64() int64 { return int64(r.u64()) }

func (r *reader) boolean() bool {
	return r.u8() != 0
}
func (r *reader) str() string {
	n := int(r.u16())
	b := r.take(n)
	return string(b)
}

// strInto reads a string field into *dst, rewriting it only when the value
// changed: the `*dst != string(b)` comparison does not allocate, so decoding
// a stream of messages with a stable topic name into a pooled struct costs
// nothing.
func (r *reader) strInto(dst *string) {
	n := int(r.u16())
	b := r.take(n)
	if r.err != nil {
		*dst = ""
		return
	}
	if *dst != string(b) {
		*dst = string(b)
	}
}

// bytesInto reads a byte field into *dst, reusing its capacity when the
// payload fits. The result never aliases the wire buffer.
func (r *reader) bytesInto(dst *[]byte) {
	n := int(r.u32())
	b := r.take(n)
	if r.err != nil {
		*dst = nil
		return
	}
	if cap(*dst) < n {
		*dst = nil // a fresh buffer of n bytes, not doubled and not zeroed first
	}
	*dst = append((*dst)[:0], b...)
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

func (m *ProduceReq) encode(w *writer) {
	w.str(m.Topic)
	w.i32(m.Partition)
	w.u8(uint8(m.Acks))
	w.bytes(m.Batch)
}

func (m *ProduceReq) decode(r *reader) error {
	r.strInto(&m.Topic)
	m.Partition = r.i32()
	m.Acks = int8(r.u8())
	r.bytesInto(&m.Batch)
	return r.err
}

func (m *ProduceResp) encode(w *writer) {
	w.i16(int16(m.Err))
	w.i64(m.BaseOffset)
}

func (m *ProduceResp) decode(r *reader) error {
	m.Err = ErrCode(r.i16())
	m.BaseOffset = r.i64()
	return r.err
}

func (m *FetchReq) encode(w *writer) {
	w.str(m.Topic)
	w.i32(m.Partition)
	w.i64(m.Offset)
	w.i32(m.MaxBytes)
	w.i64(m.MaxWaitMicros)
	w.i32(m.ReplicaID)
}

func (m *FetchReq) decode(r *reader) error {
	r.strInto(&m.Topic)
	m.Partition = r.i32()
	m.Offset = r.i64()
	m.MaxBytes = r.i32()
	m.MaxWaitMicros = r.i64()
	m.ReplicaID = r.i32()
	return r.err
}

func (m *FetchResp) encode(w *writer) {
	w.i16(int16(m.Err))
	w.i64(m.HighWatermark)
	w.i64(m.LogEndOffset)
	w.bytes(m.Data)
}

func (m *FetchResp) decode(r *reader) error {
	m.Err = ErrCode(r.i16())
	m.HighWatermark = r.i64()
	m.LogEndOffset = r.i64()
	r.bytesInto(&m.Data)
	return r.err
}

func (m *MetadataReq) encode(w *writer) {
	w.u16(uint16(len(m.Topics)))
	for _, t := range m.Topics {
		w.str(t)
	}
}
func (m *MetadataReq) decode(r *reader) error {
	n := int(r.u16())
	m.Topics = m.Topics[:0]
	for i := 0; i < n && r.err == nil; i++ {
		m.Topics = append(m.Topics, r.str())
	}
	return r.err
}

func (m *MetadataResp) encode(w *writer) {
	w.u16(uint16(len(m.Topics)))
	for _, t := range m.Topics {
		w.str(t.Name)
		w.i16(int16(t.Err))
		w.u16(uint16(len(t.Partitions)))
		for _, p := range t.Partitions {
			w.i32(p.Partition)
			w.str(p.Leader)
			w.u16(uint16(len(p.Replicas)))
			for _, rep := range p.Replicas {
				w.str(rep)
			}
		}
	}
}
func (m *MetadataResp) decode(r *reader) error {
	nt := int(r.u16())
	m.Topics = m.Topics[:0]
	for i := 0; i < nt && r.err == nil; i++ {
		var t TopicMeta
		t.Name = r.str()
		t.Err = ErrCode(r.i16())
		np := int(r.u16())
		for j := 0; j < np && r.err == nil; j++ {
			var p PartitionMeta
			p.Partition = r.i32()
			p.Leader = r.str()
			nr := int(r.u16())
			for k := 0; k < nr && r.err == nil; k++ {
				p.Replicas = append(p.Replicas, r.str())
			}
			t.Partitions = append(t.Partitions, p)
		}
		m.Topics = append(m.Topics, t)
	}
	return r.err
}

func (m *CreateTopicReq) encode(w *writer) {
	w.str(m.Topic)
	w.i32(m.Partitions)
	w.i32(m.ReplicationFactor)
}
func (m *CreateTopicReq) decode(r *reader) error {
	r.strInto(&m.Topic)
	m.Partitions = r.i32()
	m.ReplicationFactor = r.i32()
	return r.err
}

func (m *CreateTopicResp) encode(w *writer) { w.i16(int16(m.Err)) }
func (m *CreateTopicResp) decode(r *reader) error {
	m.Err = ErrCode(r.i16())
	return r.err
}

func (m *ProduceAccessReq) encode(w *writer) {
	w.str(m.Topic)
	w.i32(m.Partition)
	w.u8(uint8(m.Mode))
	w.u32(m.Session)
}
func (m *ProduceAccessReq) decode(r *reader) error {
	r.strInto(&m.Topic)
	m.Partition = r.i32()
	m.Mode = AccessMode(r.u8())
	m.Session = r.u32()
	return r.err
}

func (m *ProduceAccessResp) encode(w *writer) {
	w.i16(int16(m.Err))
	w.u16(m.FileID)
	w.u64(m.Addr)
	w.u32(m.RKey)
	w.i64(m.FileLen)
	w.i64(m.WritePos)
	w.u64(m.AtomicAddr)
	w.u32(m.AtomicRKey)
}
func (m *ProduceAccessResp) decode(r *reader) error {
	m.Err = ErrCode(r.i16())
	m.FileID = r.u16()
	m.Addr = r.u64()
	m.RKey = r.u32()
	m.FileLen = r.i64()
	m.WritePos = r.i64()
	m.AtomicAddr = r.u64()
	m.AtomicRKey = r.u32()
	return r.err
}

func (m *ConsumeAccessReq) encode(w *writer) {
	w.str(m.Topic)
	w.i32(m.Partition)
	w.i64(m.Offset)
	w.u32(m.Session)
}
func (m *ConsumeAccessReq) decode(r *reader) error {
	r.strInto(&m.Topic)
	m.Partition = r.i32()
	m.Offset = r.i64()
	m.Session = r.u32()
	return r.err
}

func (m *ConsumeAccessResp) encode(w *writer) {
	w.i16(int16(m.Err))
	w.i32(m.FileID)
	w.u64(m.Addr)
	w.u32(m.RKey)
	w.i64(m.StartPos)
	w.i64(m.LastReadable)
	w.boolean(m.Mutable)
	w.u64(m.SlotRegionAddr)
	w.u32(m.SlotRegionRKey)
	w.i32(m.SlotIndex)
}
func (m *ConsumeAccessResp) decode(r *reader) error {
	m.Err = ErrCode(r.i16())
	m.FileID = r.i32()
	m.Addr = r.u64()
	m.RKey = r.u32()
	m.StartPos = r.i64()
	m.LastReadable = r.i64()
	m.Mutable = r.boolean()
	m.SlotRegionAddr = r.u64()
	m.SlotRegionRKey = r.u32()
	m.SlotIndex = r.i32()
	return r.err
}

func (m *ReleaseFileReq) encode(w *writer) {
	w.str(m.Topic)
	w.i32(m.Partition)
	w.i32(m.FileID)
	w.u32(m.Session)
}
func (m *ReleaseFileReq) decode(r *reader) error {
	r.strInto(&m.Topic)
	m.Partition = r.i32()
	m.FileID = r.i32()
	m.Session = r.u32()
	return r.err
}

func (m *ReleaseFileResp) encode(w *writer) { w.i16(int16(m.Err)) }
func (m *ReleaseFileResp) decode(r *reader) error {
	m.Err = ErrCode(r.i16())
	return r.err
}

func (m *OffsetCommitReq) encode(w *writer) {
	w.str(m.Group)
	w.str(m.Topic)
	w.i32(m.Partition)
	w.i64(m.Offset)
}
func (m *OffsetCommitReq) decode(r *reader) error {
	r.strInto(&m.Group)
	r.strInto(&m.Topic)
	m.Partition = r.i32()
	m.Offset = r.i64()
	return r.err
}

func (m *OffsetCommitResp) encode(w *writer) { w.i16(int16(m.Err)) }
func (m *OffsetCommitResp) decode(r *reader) error {
	m.Err = ErrCode(r.i16())
	return r.err
}

func (m *OffsetFetchReq) encode(w *writer) {
	w.str(m.Group)
	w.str(m.Topic)
	w.i32(m.Partition)
}
func (m *OffsetFetchReq) decode(r *reader) error {
	r.strInto(&m.Group)
	r.strInto(&m.Topic)
	m.Partition = r.i32()
	return r.err
}

func (m *OffsetFetchResp) encode(w *writer) {
	w.i16(int16(m.Err))
	w.i64(m.Offset)
}
func (m *OffsetFetchResp) decode(r *reader) error {
	m.Err = ErrCode(r.i16())
	m.Offset = r.i64()
	return r.err
}

func (m *JoinGroupReq) encode(w *writer) {
	w.str(m.Group)
	w.str(m.MemberID)
	w.u16(uint16(len(m.Topics)))
	for _, t := range m.Topics {
		w.str(t)
	}
	w.u8(m.Strategy)
	w.i64(m.SessionTimeoutMicros)
}
func (m *JoinGroupReq) decode(r *reader) error {
	r.strInto(&m.Group)
	r.strInto(&m.MemberID)
	n := int(r.u16())
	m.Topics = m.Topics[:0]
	for i := 0; i < n && r.err == nil; i++ {
		m.Topics = append(m.Topics, r.str())
	}
	m.Strategy = r.u8()
	m.SessionTimeoutMicros = r.i64()
	return r.err
}

func (m *JoinGroupResp) encode(w *writer) {
	w.i16(int16(m.Err))
	w.i32(m.Generation)
	w.str(m.MemberID)
	w.u16(uint16(len(m.Members)))
	for _, id := range m.Members {
		w.str(id)
	}
}
func (m *JoinGroupResp) decode(r *reader) error {
	m.Err = ErrCode(r.i16())
	m.Generation = r.i32()
	r.strInto(&m.MemberID)
	n := int(r.u16())
	m.Members = m.Members[:0]
	for i := 0; i < n && r.err == nil; i++ {
		m.Members = append(m.Members, r.str())
	}
	return r.err
}

func (m *SyncGroupReq) encode(w *writer) {
	w.str(m.Group)
	w.str(m.MemberID)
	w.i32(m.Generation)
}
func (m *SyncGroupReq) decode(r *reader) error {
	r.strInto(&m.Group)
	r.strInto(&m.MemberID)
	m.Generation = r.i32()
	return r.err
}

func (m *SyncGroupResp) encode(w *writer) {
	w.i16(int16(m.Err))
	w.i32(m.Generation)
	w.u16(uint16(len(m.Assigned)))
	for _, a := range m.Assigned {
		w.str(a.Topic)
		w.i32(a.Partition)
	}
}
func (m *SyncGroupResp) decode(r *reader) error {
	m.Err = ErrCode(r.i16())
	m.Generation = r.i32()
	n := int(r.u16())
	m.Assigned = m.Assigned[:0]
	for i := 0; i < n && r.err == nil; i++ {
		var a TPAssign
		a.Topic = r.str()
		a.Partition = r.i32()
		m.Assigned = append(m.Assigned, a)
	}
	return r.err
}

func (m *HeartbeatReq) encode(w *writer) {
	w.str(m.Group)
	w.str(m.MemberID)
	w.i32(m.Generation)
}
func (m *HeartbeatReq) decode(r *reader) error {
	r.strInto(&m.Group)
	r.strInto(&m.MemberID)
	m.Generation = r.i32()
	return r.err
}

func (m *HeartbeatResp) encode(w *writer) { w.i16(int16(m.Err)) }
func (m *HeartbeatResp) decode(r *reader) error {
	m.Err = ErrCode(r.i16())
	return r.err
}

func (m *LeaveGroupReq) encode(w *writer) {
	w.str(m.Group)
	w.str(m.MemberID)
}
func (m *LeaveGroupReq) decode(r *reader) error {
	r.strInto(&m.Group)
	r.strInto(&m.MemberID)
	return r.err
}

func (m *LeaveGroupResp) encode(w *writer) { w.i16(int16(m.Err)) }
func (m *LeaveGroupResp) decode(r *reader) error {
	m.Err = ErrCode(r.i16())
	return r.err
}

func (m *GroupCommitReq) encode(w *writer) {
	w.str(m.Group)
	w.str(m.MemberID)
	w.i32(m.Generation)
	w.str(m.Topic)
	w.i32(m.Partition)
	w.i64(m.Offset)
}
func (m *GroupCommitReq) decode(r *reader) error {
	r.strInto(&m.Group)
	r.strInto(&m.MemberID)
	m.Generation = r.i32()
	r.strInto(&m.Topic)
	m.Partition = r.i32()
	m.Offset = r.i64()
	return r.err
}

func (m *GroupCommitResp) encode(w *writer) { w.i16(int16(m.Err)) }
func (m *GroupCommitResp) decode(r *reader) error {
	m.Err = ErrCode(r.i16())
	return r.err
}

func (m *CommitAccessReq) encode(w *writer) {
	w.str(m.Group)
	w.str(m.MemberID)
	w.i32(m.Generation)
	w.u32(m.Session)
}
func (m *CommitAccessReq) decode(r *reader) error {
	r.strInto(&m.Group)
	r.strInto(&m.MemberID)
	m.Generation = r.i32()
	m.Session = r.u32()
	return r.err
}

func (m *CommitAccessResp) encode(w *writer) {
	w.i16(int16(m.Err))
	w.i32(m.Generation)
	w.u64(m.Addr)
	w.u32(m.RKey)
	w.i64(m.SlotBase)
	w.i32(m.Cells)
}
func (m *CommitAccessResp) decode(r *reader) error {
	m.Err = ErrCode(r.i16())
	m.Generation = r.i32()
	m.Addr = r.u64()
	m.RKey = r.u32()
	m.SlotBase = r.i64()
	m.Cells = r.i32()
	return r.err
}

// newMessage allocates the message struct for a kind.
func newMessage(k Kind) Message {
	switch k {
	case KindProduceReq:
		return &ProduceReq{}
	case KindProduceResp:
		return &ProduceResp{}
	case KindFetchReq:
		return &FetchReq{}
	case KindFetchResp:
		return &FetchResp{}
	case KindMetadataReq:
		return &MetadataReq{}
	case KindMetadataResp:
		return &MetadataResp{}
	case KindCreateTopicReq:
		return &CreateTopicReq{}
	case KindCreateTopicResp:
		return &CreateTopicResp{}
	case KindProduceAccessReq:
		return &ProduceAccessReq{}
	case KindProduceAccessResp:
		return &ProduceAccessResp{}
	case KindConsumeAccessReq:
		return &ConsumeAccessReq{}
	case KindConsumeAccessResp:
		return &ConsumeAccessResp{}
	case KindReleaseFileReq:
		return &ReleaseFileReq{}
	case KindReleaseFileResp:
		return &ReleaseFileResp{}
	case KindOffsetCommitReq:
		return &OffsetCommitReq{}
	case KindOffsetCommitResp:
		return &OffsetCommitResp{}
	case KindOffsetFetchReq:
		return &OffsetFetchReq{}
	case KindOffsetFetchResp:
		return &OffsetFetchResp{}
	case KindJoinGroupReq:
		return &JoinGroupReq{}
	case KindJoinGroupResp:
		return &JoinGroupResp{}
	case KindSyncGroupReq:
		return &SyncGroupReq{}
	case KindSyncGroupResp:
		return &SyncGroupResp{}
	case KindHeartbeatReq:
		return &HeartbeatReq{}
	case KindHeartbeatResp:
		return &HeartbeatResp{}
	case KindLeaveGroupReq:
		return &LeaveGroupReq{}
	case KindLeaveGroupResp:
		return &LeaveGroupResp{}
	case KindGroupCommitReq:
		return &GroupCommitReq{}
	case KindGroupCommitResp:
		return &GroupCommitResp{}
	case KindCommitAccessReq:
		return &CommitAccessReq{}
	case KindCommitAccessResp:
		return &CommitAccessResp{}
	}
	return nil
}

// NewMessage returns an empty message struct of the given kind, or nil for
// an unknown kind. Callers that pool decoded messages per kind (the broker's
// request free lists) use it to seed their pools.
func NewMessage(k Kind) Message { return newMessage(k) }

// writerPool and readerPool recycle codec state. A writer/reader crosses an
// interface method call (Message.encode/decode), so escape analysis pins it
// to the heap; pooling makes AppendEncode and DecodeInto allocation-free at
// steady state anyway.
var (
	writerPool = sync.Pool{New: func() any { return new(writer) }}
	readerPool = sync.Pool{New: func() any { return new(reader) }}
)

// AppendEncode frames a message with its correlation id — kind(1) corr(4)
// body(...) — appending to dst (which may be nil) and returning the extended
// slice. When dst has enough capacity it performs no allocations.
func AppendEncode(dst []byte, corr uint32, m Message) []byte {
	w := writerPool.Get().(*writer)
	w.buf = dst
	w.u8(uint8(m.Kind()))
	w.u32(corr)
	m.encode(w)
	out := w.buf
	w.buf = nil
	writerPool.Put(w)
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
// reallocated when their value changed — so decoding a stream of similar
// messages into a pooled struct does 0 allocs/op at steady state. Decoded
// fields never alias buf, which may be recycled as soon as DecodeInto
// returns.
func DecodeInto(buf []byte, m Message) (corr uint32, err error) {
	r := readerPool.Get().(*reader)
	r.buf, r.err = buf, nil
	k := Kind(r.u8())
	corr = r.u32()
	switch {
	case r.err != nil:
		err = r.err
	case k != m.Kind():
		err = ErrKindMismatch
	default:
		err = m.decode(r)
	}
	r.buf, r.err = nil, nil
	readerPool.Put(r)
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
	m = newMessage(k)
	if m == nil {
		return 0, nil, ErrUnknownKind
	}
	corr, err = DecodeInto(buf, m)
	if err != nil {
		return 0, nil, err
	}
	return corr, m, nil
}
