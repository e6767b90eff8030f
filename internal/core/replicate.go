package core

import (
	"fmt"
	"time"

	"kafkadirect/internal/krecord"
	"kafkadirect/internal/kwire"
	"kafkadirect/internal/rdma"
	"kafkadirect/internal/sim"
	"kafkadirect/internal/tcpnet"
)

// This file implements both replication datapaths of §4.3:
//
//   - TCP pull replication (§4.3.1): each follower runs a fetcher thread per
//     partition that long-polls the leader with replica fetch requests; the
//     offset in each fetch doubles as the follower's replication ack.
//   - RDMA push replication (§4.3.2): the leader holds a WriteWithImm grant
//     on each follower's replica file and pushes committed batches
//     immediately, with credit-based flow control and opportunistic batching
//     of contiguous writes.

// controlRTT approximates the TCP round trip of rare control-plane
// operations on the replication path (requesting a new replica file grant
// after a segment roll).
const controlRTT = 150 * time.Microsecond

// Replica fetchers back off exponentially between reconnect attempts after a
// transport failure (leader crash, connection reset, dial refused).
const (
	pullRetryMin = 1 * time.Millisecond
	pullRetryMax = 32 * time.Millisecond
)

// ---------------------------------------------------------------------------
// TCP pull replication (follower side)
// ---------------------------------------------------------------------------

// startPullFetcher launches the follower's replica fetcher thread for one
// partition ("dedicated worker threads that are responsible for keeping
// local TP copies in-sync with the leader", §4.3.1). The fetcher survives
// leader failures: on any transport error it backs off, re-resolves the
// leader from cluster metadata, truncates its log to the high watermark (the
// failover rule), and redials. It exits only when this broker is promoted to
// leader of the partition.
func (b *Broker) startPullFetcher(pt *Partition) {
	pt.fetcherActive = true
	b.env.Go(fmt.Sprintf("%s/fetcher/%s", b.id, pt.key()), func(p *sim.Proc) {
		var conn *tcpnet.Conn
		var corr uint32
		// One request scratch and one response for the fetcher's lifetime:
		// decoding copies the payload into resp.Data's reused capacity and
		// the append below copies it on into the log, so a steady fetch of
		// any size allocates nothing.
		var enc kwire.Scratch
		var req kwire.FetchReq
		var resp kwire.FetchResp
		backoff := pullRetryMin
		resync := false
		fail := func() {
			if conn != nil {
				conn.Close()
				conn = nil
			}
			resync = true
			p.Sleep(backoff)
			if backoff < pullRetryMax {
				backoff *= 2
			}
		}
		for {
			if pt.IsLeader() {
				// Promoted by failover: the partition no longer pulls.
				if conn != nil {
					conn.Close()
				}
				pt.fetcherActive = false
				return
			}
			if conn == nil {
				target := b.cluster.LeaderOf(pt.topic, pt.index)
				if target == nil || target == b {
					fail()
					continue
				}
				c2, err := b.host.Dial(p, target.host, TCPPort)
				if err != nil {
					fail()
					continue
				}
				conn = c2
				if resync {
					// Reconnecting after a failure: the leader may have
					// changed, so discard uncommitted records and refetch
					// from the high watermark.
					pt.acquire(p)
					pt.truncateToHW()
					pt.release()
					resync = false
				}
			}
			corr++
			req = kwire.FetchReq{
				Topic:         pt.topic,
				Partition:     pt.index,
				Offset:        pt.log.NextOffset(),
				MaxBytes:      int32(b.cfg.ReplicaMaxBytes),
				MaxWaitMicros: int64(b.cfg.ReplicaFetchWait / time.Microsecond),
				ReplicaID:     b.cluster.brokerIndex(b.id),
			}
			if err := conn.Send(p, enc.Encode(corr, &req)); err != nil {
				fail()
				continue
			}
			raw, err := conn.Recv(p)
			if err != nil {
				fail()
				continue
			}
			_, err = kwire.DecodeInto(raw, &resp)
			conn.Recycle(raw) // decoding copies every byte field out of the frame
			if err != nil {
				continue // malformed, or not a fetch response
			}
			if resp.Err != kwire.ErrNone {
				// ErrNotLeader after a failover this fetcher has not seen
				// yet, or ErrOffsetOutOfRange when its log runs ahead of a
				// new leader: both resolve by reconnecting with a resync.
				fail()
				continue
			}
			backoff = pullRetryMin
			if len(resp.Data) == 0 {
				continue
			}
			pt.acquire(p)
			// The follower validates and appends: this is where the two
			// receive-side copies of the TCP path land (§5.2).
			p.Sleep(b.crcTime(len(resp.Data)) + b.copyTime(len(resp.Data)))
			if _, err := krecord.Scan(resp.Data, func(batch krecord.Batch) error {
				return pt.log.AppendReplicated(batch.Raw())
			}); err != nil {
				pt.release()
				fail()
				continue
			}
			pt.advanceHW(resp.HighWatermark)
			pt.release()
		}
	})
}

// ---------------------------------------------------------------------------
// RDMA push replication (leader side)
// ---------------------------------------------------------------------------

// pushReplicator is a partition's leader-side push module (§4.3.2).
type pushReplicator struct {
	b     *Broker
	pt    *Partition
	links []*followerLink
}

// followerLink is the leader's state for one follower.
type followerLink struct {
	repl     *pushReplicator
	follower *Broker
	qp       *rdma.QP // leader-side QP; acks arrive on its recv CQ
	sess     *replFollowerSession

	credits  int
	ackedLEO int64
	cond     sim.Cond

	// push progress through the leader's log, in (segment, byte) space.
	segID int
	pos   int

	// resync marks a link re-established after a failure: its worker first
	// aligns with the follower's surviving log instead of assuming a fresh
	// pair of heads.
	resync bool

	// follower-side grant coordinates.
	fileID   uint16
	addr     uint64
	rkey     uint32
	capacity int
	// base is the leader-segment position corresponding to the start of the
	// follower file (both are zero on a fresh pair of heads).
	base int
}

// newPushReplicator wires a QP pair to every live follower and starts one
// replication worker per link: on fresh replica-file grants for a new
// partition, resyncing with each follower's surviving log after a failover or
// a restart (the old replicator's QPs are dead).
func newPushReplicator(b *Broker, pt *Partition, resync bool) *pushReplicator {
	pr := &pushReplicator{b: b, pt: pt}
	for _, id := range pt.replicas {
		if id == b.id || b.cluster.down[id] {
			continue
		}
		pr.addLink(b.cluster.broker(id), resync)
	}
	return pr
}

// addLink wires a QP pair to one follower and starts its replication worker.
// With resync (failover or broker restart), the worker first aligns with the
// follower's surviving log instead of assuming a fresh pair of heads. A
// still-healthy link to the same follower is left alone; dead ones are
// pruned so acks never route to an abandoned worker.
func (pr *pushReplicator) addLink(follower *Broker, resync bool) {
	b, pt := pr.b, pr.pt
	kept := pr.links[:0]
	for _, l := range pr.links {
		if l.follower == follower {
			if l.qp.State() == rdma.QPReady {
				return
			}
			continue
		}
		kept = append(kept, l)
	}
	pr.links = kept
	link := &followerLink{
		repl:     pr,
		follower: follower,
		credits:  b.cfg.PushCredits,
		segID:    pt.log.Head().ID(),
		pos:      pt.log.Head().Len(),
		resync:   resync,
	}
	// Leader-side QP: follower acks land on the leader's shared CQ.
	leaderQP := b.dev.CreateQP(rdma.QPConfig{RecvCQ: b.rdmaCQ, SendDepth: 2 * b.cfg.PushCredits})
	ack := &replAckSession{b: b, qp: leaderQP, link: link,
		ring: b.dev.NewRecvRing(2*b.cfg.PushCredits, ackPayloadSize)}
	leaderQP.SetUserData(ack)
	if err := ack.ring.PostAll(leaderQP); err != nil {
		return // freshly created QP died already: give up on the link
	}
	// Follower-side QP: WriteWithImm completions land on the follower's
	// shared CQ, exactly like RDMA produces.
	fpt := follower.Partition(pt.topic, pt.index)
	sess := &replFollowerSession{b: follower, qp: nil, pt: fpt}
	followerQP := follower.dev.CreateQP(rdma.QPConfig{RecvCQ: follower.rdmaCQ, SendDepth: 2 * b.cfg.PushCredits})
	sess.qp = followerQP
	followerQP.SetUserData(sess)
	// The follower posts exactly its advertised credits: a leader that
	// overruns them would kill the QP (§4.3.2).
	for i := 0; i < b.cfg.PushCredits; i++ {
		if err := followerQP.PostRecv(rdma.RQE{}); err != nil {
			return
		}
	}
	if err := rdma.Connect(leaderQP, followerQP); err != nil {
		return
	}
	link.qp = leaderQP
	link.sess = sess
	pr.links = append(pr.links, link)
	b.env.Go(fmt.Sprintf("%s/push/%s/%s", b.id, pt.key(), follower.id), link.run)
}

// onAck processes a follower acknowledgement (invoked from the leader's
// RDMA poller): return a credit, record replication progress, advance the
// high watermark, and wake the link worker.
func (l *followerLink) onAck(fileID uint16, leo int64) {
	l.credits++
	if leo > l.ackedLEO {
		l.ackedLEO = leo
	}
	l.repl.pt.recordFollowerLEO(l.follower.id, leo)
	l.cond.Broadcast()
}

// grantReplicaFile (re)acquires the follower-side replica file. It models
// the "get RDMA produce address" control request of §4.3.2 with an
// in-process grant plus a TCP round trip of latency. On a re-grant after the
// leader rolled, the follower seals its head and rolls too. On a resync — a
// link (re)established with a follower that already has data — the follower
// first truncates to its high watermark and reports its log end, which
// becomes the push position, since leader and follower layouts are
// byte-identical below it; the reported log end also seeds the leader's
// replication progress for the follower, so the high watermark can re-advance
// before any new write flows. It reports whether the grant succeeded; on
// failure the link is abandoned.
func (l *followerLink) grantReplicaFile(p *sim.Proc, roll, resync bool) bool {
	p.Sleep(controlRTT)
	fpt := l.sess.pt
	fpt.acquire(p)
	if resync {
		fpt.truncateToHW()
	}
	if roll {
		fpt.sealHead()
	}
	head := fpt.log.Head()
	mr, err := fpt.segWriteMR(head)
	if err != nil {
		fpt.release()
		return false
	}
	// Replica grants are routed by QP session at the follower, so the dense
	// segment id doubles as the file id in the immediate data.
	rf := &replicaFile{id: uint16(head.ID()), segID: head.ID(), mr: mr}
	l.sess.file = rf
	leo, pos := fpt.log.NextOffset(), head.Len()
	fpt.release()

	l.fileID = rf.id
	l.addr = mr.Addr()
	l.rkey = mr.RKey()
	l.capacity = head.Capacity()
	if resync {
		l.segID, l.pos, l.base = rf.segID, pos, 0
		l.ackedLEO = leo
		l.repl.pt.recordFollowerLEO(l.follower.id, leo)
	}
	return true
}

// run is the per-follower replication worker: it waits for committed leader
// bytes, batches contiguous writes opportunistically up to PushMaxBatch
// (§4.3.2 "Batching of RDMA Writes"), and pushes them with WriteWithImm.
func (l *followerLink) run(p *sim.Proc) {
	pt := l.repl.pt
	if !l.grantReplicaFile(p, false, l.resync) {
		return
	}
	for {
		seg := pt.log.Segment(l.segID)
		if l.pos == seg.Len() {
			if seg.Sealed() {
				// The leader rolled. Wait for the follower to drain, then
				// re-grant on the next file.
				segEnd := segEndOffset(pt, l.segID)
				for l.ackedLEO < segEnd {
					l.cond.Wait(p)
				}
				l.segID++
				l.pos = 0
				l.base = 0
				if !l.grantReplicaFile(p, true, false) {
					return
				}
				continue
			}
			l.cond.Wait(p)
			continue
		}
		if l.credits == 0 {
			l.cond.Wait(p)
			continue
		}
		start, end := l.pos, l.batchEnd(seg)
		imm := EncodeImm(0, l.fileID)
		err := l.qp.PostSend(rdma.SendWR{
			Op:         rdma.OpWriteImm,
			Local:      seg.Bytes()[start:end],
			RemoteAddr: l.addr + uint64(start-l.base),
			RKey:       l.rkey,
			Imm:        imm,
			Unsignaled: true,
		})
		if err != nil {
			return // link is dead; a real broker would re-establish it
		}
		l.credits--
		l.pos = end
	}
}

// batchEnd walks the leader segment's batch boundaries from the current
// push position, merging contiguous batches up to the configured limit. At
// least one batch is always sent whole.
func (l *followerLink) batchEnd(seg interface {
	Bytes() []byte
	Len() int
}) int {
	max := l.repl.b.cfg.PushMaxBatch
	pos := l.pos
	end := pos
	buf := seg.Bytes()
	for end < seg.Len() {
		size, ok := krecord.PeekSize(buf[end:])
		if !ok {
			break
		}
		if end+size-pos > max && end > pos {
			break
		}
		end += size
		if end-pos >= max {
			break
		}
	}
	if end == pos {
		// A single batch larger than the limit goes alone.
		if size, ok := krecord.PeekSize(buf[pos:]); ok {
			end = pos + size
		}
	}
	return end
}

func segEndOffset(pt *Partition, segID int) int64 {
	next := pt.log.Segment(segID + 1)
	if next != nil {
		return next.BaseOffset()
	}
	return pt.log.NextOffset()
}

// handleReplicaWrite processes a push-replicated blob at the follower: the
// bytes are already in the replica file (written by the leader's RNIC), so
// the follower validates, commits each contained batch in place, reposts the
// credit receive, and acks its new log end to the leader.
func (b *Broker) handleReplicaWrite(p *sim.Proc, req *request) {
	ev := &req.repl
	pt := ev.sess.pt
	pt.acquire(p)
	p.Sleep(b.cfg.APIFixedCost + b.cfg.ReplicaWriteExtra + b.crcTime(ev.size))
	head := pt.log.Head()
	start := head.Len()
	blob := head.Bytes()[start : start+ev.size]
	consumed := 0
	for consumed < ev.size {
		size, ok := krecord.PeekSize(blob[consumed:])
		if !ok || consumed+size > ev.size {
			break // torn write; the reliable transport makes this fatal
		}
		if err := pt.log.CommitReplicatedInPlace(size); err != nil {
			break
		}
		consumed += size
	}
	leo := pt.log.NextOffset()
	pt.release()
	// Return the credit, then ack: on the link, which is this request's
	// answer (respond has no transport for it).
	_ = ev.sess.qp.PostRecv(rdma.RQE{})
	ack := encodeAck(ev.sess.file.id, leo)
	_ = ev.sess.qp.SendCopy(ack[:])
	req.completed = true
}
