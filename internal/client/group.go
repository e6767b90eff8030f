package client

import (
	"errors"
	"fmt"
	"time"

	"kafkadirect/internal/core"
	"kafkadirect/internal/group"
	"kafkadirect/internal/kwire"
	"kafkadirect/internal/rdma"
	"kafkadirect/internal/sim"
)

// This file implements the group-aware consumer: join/sync/heartbeat on a
// control connection to the group coordinator, per-assigned-partition data
// consumers, and offset commits either as coordinator RPCs or as one-sided
// RDMA WRITEs into the registered per-group commit table (DESIGN.md §8).

// CommitMode selects the offset-commit datapath.
type CommitMode uint8

const (
	// CommitRPC commits through GroupCommit requests on the control
	// connection.
	CommitRPC CommitMode = iota
	// CommitOneSided commits by writing table cells with one-sided RDMA
	// WRITEs; generation fencing is the memory registration itself.
	CommitOneSided
)

func (m CommitMode) String() string {
	if m == CommitOneSided {
		return "one-sided"
	}
	return "rpc"
}

// GroupConfig parameterises a GroupConsumer.
type GroupConfig struct {
	Group    string
	Topics   []string
	Strategy group.Strategy
	// SessionTimeout is this member's session timeout (0: coordinator
	// default).
	SessionTimeout time.Duration
	// HeartbeatInterval paces heartbeats issued from Poll (default 250ms).
	HeartbeatInterval time.Duration
	CommitMode        CommitMode
}

// GroupClientStats counts the client side of the group protocol.
type GroupClientStats struct {
	Joins           int // completed join+sync rounds
	CommitsRPC      int
	CommitsOneSided int
	// FencedCommits counts commits rejected by generation fencing: a stale
	// generation on the RPC path, or a WRITE completing with a remote
	// access error after the table's registration was revoked.
	FencedCommits int
	// CtlRedials counts control-connection redials (coordinator moves or
	// control transport failures). Data connections are NOT torn down for
	// these — that is the point of the coordination/transport error split.
	CtlRedials int
	// DataDials and DataReused count per-partition data consumers created
	// vs. carried unchanged across a rebalance.
	DataDials  int
	DataReused int
	PollErrors int
}

// GroupConsumer consumes the subscribed topics as one member of a consumer
// group.
type GroupConsumer struct {
	e   *Endpoint
	cfg GroupConfig

	ctl       Transport
	ctlBroker *core.Broker
	rpc       rpc

	memberID   string
	generation int32
	joined     bool

	assigned      []group.TP
	data          []*RPCConsumer
	lastCommitted []int64

	// One-sided commit state: a QP to the coordinator broker and the
	// member's cell-range coordinates for the current generation.
	qp        *rdma.QP
	qpBroker  *core.Broker
	table     kwire.CommitAccessResp
	haveTable bool
	cellBuf   [group.CellSize]byte

	rr       int
	out      []TopicRecord // what Poll returns, rewritten by every Poll
	lastBeat sim.Time
	closed   bool

	// Stats is exported for benchmarks and tests.
	Stats GroupClientStats
}

// NewGroupConsumer joins the group and blocks until the first assignment
// is installed.
func NewGroupConsumer(p *sim.Proc, e *Endpoint, cfg GroupConfig) (*GroupConsumer, error) {
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 250 * time.Millisecond
	}
	c := &GroupConsumer{e: e, cfg: cfg}
	if err := c.ensureJoined(p); err != nil {
		return nil, err
	}
	return c, nil
}

// MemberID returns the coordinator-assigned member id.
func (c *GroupConsumer) MemberID() string { return c.memberID }

// Generation returns the member's current generation.
func (c *GroupConsumer) Generation() int32 { return c.generation }

// Assigned returns the current assignment in canonical order.
func (c *GroupConsumer) Assigned() []group.TP { return c.assigned }

// Position returns the next offset the member will consume from one of its
// assigned partitions (-1 if not assigned).
func (c *GroupConsumer) Position(tp group.TP) int64 {
	for i, a := range c.assigned {
		if a == tp {
			return c.data[i].Position()
		}
	}
	return -1
}

// --- control-plane plumbing ------------------------------------------------

func (c *GroupConsumer) ensureControl(p *sim.Proc) error {
	if c.ctl != nil {
		return nil
	}
	b := c.e.cluster.CoordinatorBroker(c.cfg.Group)
	if b == nil {
		return fmt.Errorf("client: no coordinator for group %q", c.cfg.Group)
	}
	t, err := NewTCPTransport(p, c.e, b)
	if err != nil {
		return err
	}
	c.ctl, c.ctlBroker = t, b
	return nil
}

func (c *GroupConsumer) closeControl() {
	if c.ctl != nil {
		c.ctl.Close()
		c.ctl, c.ctlBroker = nil, nil
	}
}

// redialControl re-resolves the coordinator and reconnects the control
// path only — the satellite fix: data-path connections stay up.
func (c *GroupConsumer) redialControl(p *sim.Proc) error {
	c.closeControl()
	c.Stats.CtlRedials++
	return c.ensureControl(p)
}

// roundTrip performs one control RPC. Transport errors surface unchanged
// so callers can classify them against coordination signals.
func (c *GroupConsumer) roundTrip(p *sim.Proc, req, resp kwire.Message) error {
	if err := c.ensureControl(p); err != nil {
		return err
	}
	return c.rpc.call(p, c.ctl, req, resp)
}

// classify maps group protocol error codes onto the coordination
// sentinels; codes it does not own are returned as plain errors.
func (c *GroupConsumer) classify(code kwire.ErrCode) error {
	switch code {
	case kwire.ErrNone:
		return nil
	case kwire.ErrNotCoordinator:
		return errCoordinatorMoved
	case kwire.ErrRebalanceInProgress:
		return errRebalancing
	case kwire.ErrIllegalGeneration:
		return errRebalancing
	case kwire.ErrUnknownMember:
		c.memberID = "" // fenced out: rejoin as a fresh member
		return errRebalancing
	}
	return code.Err()
}

// ensureJoined runs the join protocol until the member holds a synced
// assignment, classifying failures: coordinator moves redial the control
// connection only, rebalance signals just retry, and transport failures
// reconnect with backoff.
func (c *GroupConsumer) ensureJoined(p *sim.Proc) error {
	if c.joined {
		return nil
	}
	r := c.e.newRetrier(p)
	for {
		err := c.joinOnce(p)
		if err == nil {
			return nil
		}
		switch {
		case errors.Is(err, errCoordinatorMoved):
			if !r.wait(p) {
				return err
			}
			if rerr := c.redialControl(p); rerr != nil {
				c.closeControl() // coordinator unreachable; backoff redials
			}
		case errors.Is(err, errRebalancing):
			if !r.wait(p) {
				return err
			}
		case retryableErr(err):
			c.closeControl()
			if !r.wait(p) {
				return err
			}
		default:
			return err
		}
	}
}

// joinOnce runs one join → sync round and installs the assignment. The
// JoinGroupResp is parked at the coordinator until the rebalance barrier
// completes, so the Recv inside roundTrip IS the revoke→reassign barrier
// as experienced by the member.
func (c *GroupConsumer) joinOnce(p *sim.Proc) error {
	jreq := kwire.JoinGroupReq{
		Group:                c.cfg.Group,
		MemberID:             c.memberID,
		Topics:               c.cfg.Topics,
		Strategy:             uint8(c.cfg.Strategy),
		SessionTimeoutMicros: c.cfg.SessionTimeout.Microseconds(),
	}
	var jresp kwire.JoinGroupResp
	if err := c.roundTrip(p, &jreq, &jresp); err != nil {
		return err
	}
	if err := c.classify(jresp.Err); err != nil {
		return err
	}
	c.memberID = jresp.MemberID

	sreq := kwire.SyncGroupReq{Group: c.cfg.Group, MemberID: c.memberID, Generation: jresp.Generation}
	var sresp kwire.SyncGroupResp
	if err := c.roundTrip(p, &sreq, &sresp); err != nil {
		return err
	}
	if err := c.classify(sresp.Err); err != nil {
		return err
	}
	c.generation = sresp.Generation
	next := make([]group.TP, 0, len(sresp.Assigned))
	for _, a := range sresp.Assigned {
		next = append(next, group.TP{Topic: a.Topic, Partition: a.Partition})
	}
	if err := c.installAssignment(p, next); err != nil {
		return err
	}
	c.haveTable = false
	if c.cfg.CommitMode == CommitOneSided {
		if err := c.ensureCommitTable(p); err != nil {
			return err
		}
	}
	c.joined = true
	c.Stats.Joins++
	c.lastBeat = p.Now()
	return nil
}

// installAssignment rebuilds the data consumers, reusing the consumer (and
// its position) for every partition retained across the rebalance — no
// reconnect, no committed-offset fetch — and starting new ones from the
// group's committed offset.
func (c *GroupConsumer) installAssignment(p *sim.Proc, next []group.TP) error {
	reused := make([]bool, len(c.assigned))
	var data []*RPCConsumer
	var committed []int64
	for _, tp := range next {
		idx := -1
		for i, old := range c.assigned {
			if old == tp && !reused[i] {
				idx = i
				break
			}
		}
		if idx >= 0 {
			reused[idx] = true
			data = append(data, c.data[idx])
			committed = append(committed, c.lastCommitted[idx])
			c.Stats.DataReused++
			continue
		}
		off, err := c.fetchCommitted(p, tp)
		if err != nil {
			return err
		}
		if off < 0 {
			off = 0
		}
		rc, err := NewTCPConsumer(p, c.e, tp.Topic, tp.Partition, off, c.cfg.Group)
		if err != nil {
			return err
		}
		data = append(data, rc)
		committed = append(committed, off-1)
		c.Stats.DataDials++
	}
	for i := range c.assigned {
		if !reused[i] {
			c.data[i].Close()
		}
	}
	c.assigned, c.data, c.lastCommitted = next, data, committed
	if c.rr >= len(next) {
		c.rr = 0
	}
	return nil
}

// fetchCommitted asks the coordinator for the group's committed offset
// (-1 when the partition was never committed).
func (c *GroupConsumer) fetchCommitted(p *sim.Proc, tp group.TP) (int64, error) {
	req := kwire.OffsetFetchReq{Group: c.cfg.Group, Topic: tp.Topic, Partition: tp.Partition}
	var resp kwire.OffsetFetchResp
	if err := c.roundTrip(p, &req, &resp); err != nil {
		return -1, err
	}
	if resp.Err != kwire.ErrNone {
		return -1, resp.Err.Err()
	}
	return resp.Offset, nil
}

// maybeHeartbeat sends a heartbeat when the interval elapsed, reacting to
// coordination signals: a rebalance flushes progress and schedules a
// rejoin, a fenced generation rejoins, a coordinator move redials the
// control connection only.
func (c *GroupConsumer) maybeHeartbeat(p *sim.Proc) {
	if p.Now()-c.lastBeat < c.cfg.HeartbeatInterval {
		return
	}
	c.lastBeat = p.Now()
	req := kwire.HeartbeatReq{Group: c.cfg.Group, MemberID: c.memberID, Generation: c.generation}
	var resp kwire.HeartbeatResp
	if err := c.roundTrip(p, &req, &resp); err != nil {
		// Control transport died (e.g. the coordinator broker crashed).
		// Membership survives at the new coordinator; reconnect the control
		// path on the next use and keep consuming meanwhile.
		c.closeControl()
		c.Stats.CtlRedials++
		return
	}
	switch resp.Err {
	case kwire.ErrNone:
	case kwire.ErrRebalanceInProgress:
		c.onRevoked(p)
	case kwire.ErrIllegalGeneration:
		c.joined, c.haveTable = false, false
	case kwire.ErrUnknownMember:
		c.memberID, c.joined, c.haveTable = "", false, false
	case kwire.ErrNotCoordinator:
		if err := c.redialControl(p); err != nil {
			c.closeControl()
		}
	}
}

// onRevoked is the revoke phase of the barrier: flush progress over RPC
// while this generation is still current (the coordinator does not advance
// it before we rejoin or time out), then rejoin from Poll.
func (c *GroupConsumer) onRevoked(p *sim.Proc) {
	if err := c.flushRPC(p); err != nil && !coordinationErr(err) {
		// Flush is best effort: on a broken control path the committed
		// offsets re-converge after rejoin (consumption is at-least-once).
		c.closeControl()
	}
	c.joined, c.haveTable = false, false
}

// Poll returns the next batch of records from one of the member's assigned
// partitions, sweeping them round-robin. It drives the membership protocol:
// rejoin when revoked, heartbeat on the configured interval. The returned
// slice and the bytes its records point to are the consumer's and valid
// until its next Poll: copy out what is kept longer.
func (c *GroupConsumer) Poll(p *sim.Proc) ([]TopicRecord, error) {
	if c.closed {
		return nil, ErrProducerClosed
	}
	if err := c.ensureJoined(p); err != nil {
		return nil, err
	}
	c.maybeHeartbeat(p)
	if !c.joined {
		return nil, nil // revoked during heartbeat; next Poll rejoins
	}
	if len(c.assigned) == 0 {
		return nil, nil
	}
	for k := 0; k < len(c.assigned); k++ {
		i := (c.rr + k) % len(c.assigned)
		recs, err := c.data[i].Poll(p)
		if err != nil {
			c.Stats.PollErrors++
			continue
		}
		if len(recs) == 0 {
			continue
		}
		c.rr = (i + 1) % len(c.assigned)
		c.out = tagRecords(c.out, c.assigned[i].Topic, c.assigned[i].Partition, recs)
		return c.out, nil
	}
	c.rr = (c.rr + 1) % len(c.assigned)
	return nil, nil
}

// Commit publishes the member's current positions on the configured commit
// path. It does NOT rejoin a revoked membership: a fenced member's commit
// must fail (that is the zombie-fencing guarantee), and Poll owns rejoining.
func (c *GroupConsumer) Commit(p *sim.Proc) error {
	if c.closed {
		return ErrProducerClosed
	}
	if !c.joined {
		return errRebalancing
	}
	if c.cfg.CommitMode == CommitOneSided {
		return c.commitOneSided(p)
	}
	return c.flushRPC(p)
}

// flushRPC commits every advanced position via GroupCommit RPCs.
func (c *GroupConsumer) flushRPC(p *sim.Proc) error {
	for i, tp := range c.assigned {
		off := c.data[i].Position()
		if off <= c.lastCommitted[i] {
			continue
		}
		req := kwire.GroupCommitReq{
			Group: c.cfg.Group, MemberID: c.memberID, Generation: c.generation,
			Topic: tp.Topic, Partition: tp.Partition, Offset: off,
		}
		var resp kwire.GroupCommitResp
		if err := c.roundTrip(p, &req, &resp); err != nil {
			return err
		}
		switch resp.Err {
		case kwire.ErrNone:
			c.lastCommitted[i] = off
			c.Stats.CommitsRPC++
		case kwire.ErrIllegalGeneration, kwire.ErrUnknownMember:
			c.Stats.FencedCommits++
			c.joined, c.haveTable = false, false
			return c.classify(resp.Err)
		default:
			return c.classify(resp.Err)
		}
	}
	return nil
}

// commitOneSided writes every advanced position as a 16-byte WRITE into
// the member's cells. A WRITE completing with a remote access error means
// the table's registration was revoked — the generation is fenced.
func (c *GroupConsumer) commitOneSided(p *sim.Proc) error {
	if !c.haveTable {
		if err := c.ensureCommitTable(p); err != nil {
			return err
		}
	}
	for i, tp := range c.assigned {
		off := c.data[i].Position()
		if off <= c.lastCommitted[i] {
			continue
		}
		if i >= int(c.table.Cells) {
			return fmt.Errorf("client: commit cell %d out of range for %v", i, tp)
		}
		group.EncodeCell(c.cellBuf[:], c.generation, off)
		err := c.qp.PostSend(rdma.SendWR{
			Op:         rdma.OpWrite,
			Local:      c.cellBuf[:],
			RemoteAddr: c.table.Addr + uint64(i*group.CellSize),
			RKey:       c.table.RKey,
		})
		if err != nil {
			c.haveTable = false
			return fmt.Errorf("%w: commit write post: %v", errQPFailed, err)
		}
		cqe := c.qp.SendCQ().Poll(p)
		if cqe.Status != rdma.StatusOK {
			c.haveTable = false
			if cqe.Status == rdma.StatusRemoteAccessErr {
				c.Stats.FencedCommits++
				c.joined = false
				return fmt.Errorf("client: one-sided commit fenced: %v", cqe.Status)
			}
			return fmt.Errorf("%w: commit write %v", errQPFailed, cqe.Status)
		}
		c.lastCommitted[i] = off
		c.Stats.CommitsOneSided++
	}
	return nil
}

// ensureCommitTable connects a QP to the coordinator broker (if not
// already) and requests the member's cell-range coordinates, retrying
// while the table swap for this generation is still pending.
func (c *GroupConsumer) ensureCommitTable(p *sim.Proc) error {
	b := c.e.cluster.CoordinatorBroker(c.cfg.Group)
	if b == nil {
		return fmt.Errorf("client: no coordinator for group %q", c.cfg.Group)
	}
	if c.qp == nil || c.qpBroker != b || c.qp.State() != rdma.QPReady {
		qp, _, err := b.ConnectConsumer(c.e.dev)
		if err != nil {
			return err
		}
		c.qp, c.qpBroker = qp, b
	}
	r := c.e.newRetrier(p)
	for {
		req := kwire.CommitAccessReq{Group: c.cfg.Group, MemberID: c.memberID, Generation: c.generation}
		var resp kwire.CommitAccessResp
		if err := c.roundTrip(p, &req, &resp); err != nil {
			return err
		}
		switch resp.Err {
		case kwire.ErrNone:
			c.table = resp
			c.haveTable = true
			return nil
		case kwire.ErrRebalanceInProgress:
			// The harvester has not swapped the table for this generation
			// yet; back off and retry.
			if !r.wait(p) {
				return errRebalancing
			}
		default:
			return c.classify(resp.Err)
		}
	}
}

// Close leaves the group (best effort) and releases every connection.
func (c *GroupConsumer) Close(p *sim.Proc) {
	if c.closed {
		return
	}
	c.closed = true
	if c.joined && c.ctl != nil {
		req := kwire.LeaveGroupReq{Group: c.cfg.Group, MemberID: c.memberID}
		var resp kwire.LeaveGroupResp
		if err := c.roundTrip(p, &req, &resp); err != nil {
			c.Stats.PollErrors++ // leaving is best effort; session expiry cleans up
		}
	}
	for _, rc := range c.data {
		rc.Close()
	}
	c.closeControl()
}
