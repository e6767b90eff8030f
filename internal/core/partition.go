package core

import (
	"fmt"

	"kafkadirect/internal/klog"
	"kafkadirect/internal/krecord"
	"kafkadirect/internal/kwire"
	"kafkadirect/internal/rdma"
	"kafkadirect/internal/sim"
)

// Partition is one topic partition hosted on a broker — as the leader (it
// accepts produces and serves consumers) or as a follower (it passively
// replicates the leader, §3 "Kafka Broker").
type Partition struct {
	broker   *Broker
	topic    string
	index    int32
	log      *klog.Log
	leaderID string
	replicas []string // broker ids, leader included

	// lock serialises API workers on the partition: "each TP file can be
	// accessed by at most one API worker at a time due to locking" (§5.1).
	lock *sim.Resource

	// followerLEO tracks each follower's log end offset, learned from pull
	// fetch offsets or push-replication acks; the high watermark is the
	// minimum over the leader's LEO and all followers'.
	followerLEO map[string]int64

	// hwWaiters are produces in the log, in arrival order, acknowledged once
	// the high watermark reaches their request.hwTarget (acks=all responses).
	// leoWaiters are parked long-poll fetches from replicas (wake on append),
	// hwPollWaiters parked consumer fetches (wake on commit); a woken fetch's
	// hold (request.holds) passes to the shared queue.
	hwWaiters     []*request
	leoWaiters    []*request
	hwPollWaiters []*request

	// segWriteMRs and segReadMRs cache RDMA registrations of segments:
	// write grants (producers, replication) and read registrations
	// (consumers) are separate, so revoking a faulty producer's write
	// access does not fence off readers.
	segWriteMRs map[int]*rdma.MR
	segReadMRs  map[int]*rdma.MR
	// slotRefs lists the consumer metadata slots mirroring each segment's
	// last-readable byte, keyed by segment id (Fig. 9: "each registered
	// file has a list of slots assigned to it").
	slotRefs map[int][]*slotRef
	// segReaders counts RDMA consumers registered on each segment, for
	// deciding when a registration can be dropped.
	segReaders map[int]int

	// produceFile is the active RDMA produce grant for the head file, if any.
	produceFile *rdmaFile

	// pushRepl is the leader-side push replication state (nil unless the
	// RDMA replication module is enabled and this broker leads the TP).
	pushRepl *pushReplicator

	// fetcherActive marks a running pull-replication fetcher for this
	// partition (follower side), so a broker demoted while crashed can start
	// one on restart without ever doubling up.
	fetcherActive bool
}

func (pt *Partition) key() string { return fmt.Sprintf("%s/%d", pt.topic, pt.index) }

// IsLeader reports whether the owning broker leads this partition.
func (pt *Partition) IsLeader() bool { return pt.leaderID == pt.broker.id }

// Log exposes the underlying storage (tests and diagnostics).
func (pt *Partition) Log() *klog.Log { return pt.log }

// Replicas returns the broker ids hosting the partition.
func (pt *Partition) Replicas() []string { return pt.replicas }

// acquire/release wrap the per-partition API-worker lock.
func (pt *Partition) acquire(p *sim.Proc) { pt.lock.Acquire(p) }
func (pt *Partition) release()            { pt.lock.Release() }

// segWriteMR returns (registering on demand) the writable MR covering a
// segment, used by produce grants and push-replication grants.
func (pt *Partition) segWriteMR(seg *klog.Segment) (*rdma.MR, error) {
	return pt.cachedMR(pt.segWriteMRs, seg, rdma.AccessRemoteWrite)
}

// segReadMR returns (registering on demand) the readable MR covering a
// segment, used by RDMA consumers.
func (pt *Partition) segReadMR(seg *klog.Segment) (*rdma.MR, error) {
	return pt.cachedMR(pt.segReadMRs, seg, rdma.AccessRemoteRead)
}

func (pt *Partition) cachedMR(cache map[int]*rdma.MR, seg *klog.Segment, access rdma.Access) (*rdma.MR, error) {
	if mr, ok := cache[seg.ID()]; ok {
		return mr, nil
	}
	mr, err := pt.broker.pd.RegisterMR(seg.Bytes(), access)
	if err != nil {
		return nil, err
	}
	cache[seg.ID()] = mr
	return mr, nil
}

// dropWriteMR revokes a segment's write registration (produce revocation);
// dropReadMR drops its read registration (consumer ReleaseFile).
func (pt *Partition) dropWriteMR(segID int) { dropMR(pt.segWriteMRs, segID) }
func (pt *Partition) dropReadMR(segID int)  { dropMR(pt.segReadMRs, segID) }

func dropMR(cache map[int]*rdma.MR, segID int) {
	if mr, ok := cache[segID]; ok {
		mr.Deregister()
		delete(cache, segID)
	}
}

// foldWriteExtents tells each segment how far its buffer was physically
// written: RDMA write grants bypass the log's append position, so each cached
// write MR's high-water mark is folded into its segment before the log
// computes dirty extents (to re-zero on truncation, or to clear on release).
func (pt *Partition) foldWriteExtents() {
	for segID, mr := range pt.segWriteMRs {
		if seg := pt.log.Segment(segID); seg != nil {
			seg.NoteDirty(mr.Touched())
		}
	}
}

// releaseStorage returns the partition's segment buffers to the shared pool
// once the owning simulation has shut down.
func (pt *Partition) releaseStorage() {
	pt.foldWriteExtents()
	pt.log.Release()
}

// append copies a batch onto the leader's log at the next offset (the TCP
// produce path and the coordinator's offsets records). A head segment without
// room is sealed and rolled by klog.Append itself, which returns the head it
// wrote into, so nothing here seals; slots mirroring the sealed segment flip
// their mutable bit with the next high-watermark advance. Lock held.
func (pt *Partition) append(batch krecord.Batch) (int64, error) {
	base, _, err := pt.log.Append(batch)
	if err != nil {
		return 0, err
	}
	pt.appended()
	return base, nil
}

// appended runs after the leader log end advances, by a copied append or by
// an in-place commit: an unreplicated partition commits immediately, parked
// replica long-polls wake (the pull path needs no other notification), and
// so do the partition's push-replication links, if any. Lock held.
func (pt *Partition) appended() {
	if len(pt.replicas) <= 1 {
		pt.advanceHW(pt.log.NextOffset())
	}
	pt.wake(&pt.leoWaiters)
	if pt.pushRepl != nil {
		for _, link := range pt.pushRepl.links {
			link.cond.Broadcast()
		}
	}
}

// recordFollowerLEO updates a follower's replication progress and advances
// the high watermark if every in-sync replica has caught up further.
func (pt *Partition) recordFollowerLEO(brokerID string, leo int64) {
	if cur, ok := pt.followerLEO[brokerID]; !ok || leo > cur {
		pt.followerLEO[brokerID] = leo
	}
	pt.recomputeHW()
}

// recomputeHW advances the high watermark to the minimum log end over the
// leader and every in-sync replica. Crashed replicas are out of the ISR and
// do not hold the watermark back; a live replica that has not reported yet
// does.
func (pt *Partition) recomputeHW() {
	down := pt.broker.cluster.down
	min := pt.log.NextOffset()
	for _, id := range pt.replicas {
		if id == pt.broker.id || down[id] {
			continue
		}
		leo, ok := pt.followerLEO[id]
		if !ok {
			return // a replica has not reported yet
		}
		if leo < min {
			min = leo
		}
	}
	pt.advanceHW(min)
}

// truncateToHW discards everything above the high watermark — the Kafka
// recovery rule a follower applies before resyncing from a (possibly new)
// leader — and purges per-segment caches of retired segment ids, which later
// rolls will reuse. The caller holds the partition lock.
func (pt *Partition) truncateToHW() {
	// Truncation re-zeroes the discarded extent of the surviving head and
	// retires later segments, so the log must first know how far their
	// buffers were physically written.
	pt.foldWriteExtents()
	removed, err := pt.log.TruncateTo(pt.log.HighWatermark())
	if err != nil {
		return // HW always sits on a batch boundary; nothing to do
	}
	for _, id := range removed {
		pt.dropWriteMR(id)
		pt.dropReadMR(id)
		delete(pt.slotRefs, id)
		delete(pt.segReaders, id)
	}
}

// advanceHW commits offsets below hw: storage watermark and last-readable
// bytes move, metadata slots are rewritten (§4.4.2, "when the ... last
// readable byte of the file is changed, the broker updates all the metadata
// slots associated with it"), and parked produces and fetches complete.
func (pt *Partition) advanceHW(hw int64) {
	before := pt.log.HighWatermark()
	pt.log.AdvanceHW(hw)
	after := pt.log.HighWatermark()
	if after == before {
		return
	}
	// Replication lag in offsets: how far the log end runs ahead of the
	// committed watermark (the gauge's max is the window's worst lag).
	pt.broker.obsHWLag.Set(pt.log.NextOffset() - after)
	// Refresh every slot mirroring a segment whose committed byte moved.
	for segID, refs := range pt.slotRefs {
		seg := pt.log.Segment(segID)
		for _, ref := range refs {
			ref.update(seg)
		}
	}
	// Acknowledge the produces whose end offset is now committed.
	kept := pt.hwWaiters[:0]
	for _, req := range pt.hwWaiters {
		if req.hwTarget > after {
			kept = append(kept, req)
			continue
		}
		pt.broker.respond(req, pt.broker.produceResp(kwire.ErrNone, req.base))
		req.drop()
	}
	clear(pt.hwWaiters[len(kept):])
	pt.hwWaiters = kept
	pt.wake(&pt.hwPollWaiters)
}

// purgatory is the list a fetch parks in: a follower's waits for the log end
// to move, a consumer's for the high watermark.
func (pt *Partition) purgatory(m *kwire.FetchReq) *[]*request {
	if m.ReplicaID >= 0 {
		return &pt.leoWaiters
	}
	return &pt.hwPollWaiters
}

// wake sends every fetch parked in list back through the shared queue.
func (pt *Partition) wake(list *[]*request) {
	for _, req := range *list {
		pt.broker.enqueue(req)
	}
	clear(*list)
	*list = (*list)[:0]
}

// sealHead rolls the head segment and updates consume metadata: slots
// mirroring the sealed segment flip their mutable bit (§4.4.2).
func (pt *Partition) sealHead() *klog.Segment {
	old := pt.log.Head()
	newHead := pt.log.Roll()
	for _, ref := range pt.slotRefs[old.ID()] {
		ref.update(old)
	}
	return newHead
}

// newPartitionLog builds the partition's storage with the broker's segment
// size.
func newPartitionLog(cfg Config) *klog.Log {
	return klog.New(klog.Config{SegmentSize: cfg.SegmentSize})
}
