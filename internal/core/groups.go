package core

import (
	"fmt"
	"sort"
	"time"

	"kafkadirect/internal/group"
	"kafkadirect/internal/krecord"
	"kafkadirect/internal/kwire"
	"kafkadirect/internal/obs"
	"kafkadirect/internal/rdma"
	"kafkadirect/internal/sim"
)

// This file hosts the consumer-group integration: the coordinator runs at
// cluster level (like the PR-3 controller), brokers route group RPCs to it
// when they lead the group's __consumer_offsets partition, committed offsets
// are written through the ordinary klog produce path, and the one-sided
// commit path registers a per-group cell table on the coordinator broker's
// protection domain. See DESIGN.md §8.

// offsetsProducerID tags __consumer_offsets batches written by the
// coordinator itself.
const offsetsProducerID int64 = -2

// groupRuntime is the cluster-level consumer-group state.
type groupRuntime struct {
	co  *group.Coordinator
	cfg group.Config

	// tables holds the registered one-sided commit table per group. A
	// table belongs to one generation on one broker; generation changes
	// and coordinator moves queue a swap.
	tables map[string]*groupTable
	// swapQ carries group names whose table must be (re)built. Pushed from
	// coordinator callbacks (possibly timer context), drained by the
	// harvester process.
	swapQ *sim.Queue[string]

	// valScratch holds the encoded offsets-record value, reused across
	// appendGroupCommit calls.
	valScratch []byte

	// o gates the harvester's telemetry: the lag walk only runs when a
	// registry is attached. stHarvest records the sim time one harvest pass
	// spends folding tables (the one-sided commit path's visibility latency);
	// obsLag mirrors the summed consumer lag after each pass.
	o         *obs.Obs
	stHarvest *obs.Histogram
	obsLag    *obs.Gauge
}

// groupTable is one group's registered commit table.
type groupTable struct {
	gen    int32
	broker *Broker
	buf    []byte
	mr     *rdma.MR
	layout []group.MemberAssignment
}

// EnableGroups creates the __consumer_offsets topic and starts the group
// coordinator and its harvester process. Call once, after AddBrokers and
// before running clients.
func (c *Cluster) EnableGroups(offsetsPartitions, replicationFactor int, gcfg group.Config) error {
	if c.groups != nil {
		return fmt.Errorf("core: groups already enabled")
	}
	if err := c.CreateTopic(group.OffsetsTopic, offsetsPartitions, replicationFactor); err != nil {
		return err
	}
	rt := &groupRuntime{
		cfg:    gcfg,
		tables: make(map[string]*groupTable),
		swapQ:  sim.NewQueue[string](),
	}
	rt.o = c.net.Obs()
	rt.stHarvest = rt.o.Histogram("group/harvest_ns")
	rt.obsLag = rt.o.Gauge("group/lag")
	rt.co = group.NewCoordinator(c.env, gcfg, group.Hooks{
		AppendCommit: func(p *sim.Proc, name string, gen int32, tp group.TP, offset int64) {
			c.appendGroupCommit(p, name, gen, tp, offset)
		},
		HighWatermark: func(tp group.TP) int64 {
			b := c.LeaderOf(tp.Topic, tp.Partition)
			if b == nil {
				return 0
			}
			pt := b.Partition(tp.Topic, tp.Partition)
			if pt == nil {
				return 0
			}
			return pt.log.HighWatermark()
		},
		Partitions: func(topic string) []int32 {
			ct := c.topics[topic]
			if ct == nil {
				return nil
			}
			parts := make([]int32, len(ct.parts))
			for i := range parts {
				parts[i] = int32(i)
			}
			return parts
		},
		OnGeneration: func(name string) { rt.swapQ.Push(name) },
	})
	if rt.o != nil {
		rt.co.SetObs(rt.o)
	}
	c.groups = rt
	c.env.Go("group-harvester", c.groupHarvester)
	return nil
}

// GroupCoordinator exposes the coordinator (tests, benchmarks); nil until
// EnableGroups.
func (c *Cluster) GroupCoordinator() *group.Coordinator {
	if c.groups == nil {
		return nil
	}
	return c.groups.co
}

// NumPartitions returns a topic's partition count (0 if unknown). Clients
// use it with group.CoordinatorPartition for coordinator discovery; like
// Endpoint.leader it stands in for metadata a long-lived client caches.
func (c *Cluster) NumPartitions(topic string) int {
	ct := c.topics[topic]
	if ct == nil {
		return 0
	}
	return len(ct.parts)
}

// CoordinatorBroker returns the broker currently coordinating a group: the
// leader of the offsets partition the group name hashes to.
func (c *Cluster) CoordinatorBroker(groupName string) *Broker {
	if c.groups == nil {
		return nil
	}
	pi := group.CoordinatorPartition(groupName, c.NumPartitions(group.OffsetsTopic))
	return c.LeaderOf(group.OffsetsTopic, pi)
}

// groupCoordinator resolves the coordinator for handlers on broker b: the
// code is ErrNone only when groups are enabled (else ErrInternal) and b
// currently holds the role for the group (else ErrNotCoordinator).
func (b *Broker) groupCoordinator(groupName string) (*group.Coordinator, kwire.ErrCode) {
	rt := b.cluster.groups
	switch {
	case rt == nil:
		return nil, kwire.ErrInternal
	case b.cluster.CoordinatorBroker(groupName) != b:
		return rt.co, kwire.ErrNotCoordinator
	}
	return rt.co, kwire.ErrNone
}

// appendGroupCommit makes one committed offset durable in the group's
// offsets partition. Runs on a broker API worker or the harvester. If the
// offsets partition has no live leader right now the append is skipped: the
// commit stays in coordinator memory and the next commit (or harvest) of a
// higher offset re-appends — the log converges once a leader is back.
func (c *Cluster) appendGroupCommit(p *sim.Proc, name string, gen int32, tp group.TP, offset int64) {
	rt := c.groups
	pi := group.CoordinatorPartition(name, c.NumPartitions(group.OffsetsTopic))
	b := c.LeaderOf(group.OffsetsTopic, pi)
	if b == nil || c.down[b.id] {
		return
	}
	pt := b.Partition(group.OffsetsTopic, pi)
	if pt == nil || !pt.IsLeader() {
		return
	}
	rt.valScratch = group.AppendOffsetRecord(rt.valScratch[:0], name, gen, tp, offset)
	raw, err := krecord.Encode(offsetsProducerID, krecord.Record{Value: rt.valScratch, Timestamp: 1})
	if err != nil {
		panic(fmt.Sprintf("core: encode offsets record: %v", err))
	}
	batch, _, err := krecord.Parse(raw)
	if err != nil {
		panic(fmt.Sprintf("core: parse offsets record: %v", err))
	}
	pt.acquire(p)
	_, err = pt.append(batch)
	pt.release()
	if err != nil {
		// A ~60-byte batch can only fail on log corruption — deterministic
		// bug territory, not an operational condition.
		panic(fmt.Sprintf("core: append offsets record: %v", err))
	}
}

// GroupOffset is one replayed __consumer_offsets entry.
type GroupOffset struct {
	Group  string
	TP     group.TP
	Gen    int32
	Offset int64
}

// ReplayGroupOffsets replays every offsets partition from offset zero,
// keeping the highest offset per (group, partition) — the compaction view a
// restarted coordinator would load. Results are in canonical order. Tests
// audit it against coordinator memory to prove zero committed-offset loss.
func (c *Cluster) ReplayGroupOffsets() []GroupOffset {
	if c.groups == nil {
		return nil
	}
	type key struct {
		g  string
		tp group.TP
	}
	last := make(map[key]GroupOffset)
	for pi := 0; pi < c.NumPartitions(group.OffsetsTopic); pi++ {
		b := c.LeaderOf(group.OffsetsTopic, int32(pi))
		if b == nil {
			continue
		}
		pt := b.Partition(group.OffsetsTopic, int32(pi))
		if pt == nil {
			continue
		}
		off := int64(0)
		for off < pt.log.NextOffset() {
			data, err := pt.log.ReadUncommitted(off, 1<<20)
			if err != nil || len(data) == 0 {
				break
			}
			next := off
			_, err = krecord.Scan(data, func(batch krecord.Batch) error {
				recs, err := batch.Records()
				if err != nil {
					return err
				}
				for _, rec := range recs {
					name, gen, tp, o, err := group.DecodeOffsetRecord(rec.Value)
					if err != nil {
						return err
					}
					k := key{name, tp}
					if prev, ok := last[k]; !ok || o > prev.Offset {
						last[k] = GroupOffset{Group: name, TP: tp, Gen: gen, Offset: o}
					}
				}
				next = batch.NextOffset()
				return nil
			})
			if err != nil || next == off {
				break
			}
			off = next
		}
	}
	keys := make([]key, 0, len(last))
	for k := range last {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].g != keys[j].g {
			return keys[i].g < keys[j].g
		}
		return keys[i].tp.Less(keys[j].tp)
	})
	out := make([]GroupOffset, 0, len(keys))
	for _, k := range keys {
		out = append(out, last[k])
	}
	return out
}

// --- commit-table lifecycle ------------------------------------------------

// groupHarvester is the cluster process that owns commit-table memory: it
// performs table swaps queued by generation changes and periodically folds
// live tables into the coordinator's committed map.
func (c *Cluster) groupHarvester(p *sim.Proc) {
	rt := c.groups
	for {
		name, ok := rt.swapQ.PopTimeout(p, rt.co.Config().HarvestInterval)
		if !ok {
			c.harvestGroupTables(p)
			continue
		}
		c.swapGroupTable(p, name)
		for {
			more, ok := rt.swapQ.TryPop()
			if !ok {
				break
			}
			c.swapGroupTable(p, more)
		}
	}
}

// harvestGroupTables folds every registered table, groups in sorted order.
func (c *Cluster) harvestGroupTables(p *sim.Proc) {
	rt := c.groups
	start := p.Now()
	names := make([]string, 0, len(rt.tables))
	for name := range rt.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := rt.tables[name]
		rt.co.HarvestCells(p, name, t.gen, t.layout, t.buf)
	}
	rt.stHarvest.ObserveDur(p.Now() - start)
	if rt.o != nil {
		var lag int64
		for _, name := range rt.co.GroupNames() {
			lag += rt.co.Group(name).Lag()
		}
		rt.obsLag.Set(lag)
	}
}

// swapGroupTable retires a group's commit table and registers one for the
// current generation on the current coordinator broker. The retired buffer
// is harvested BEFORE deregistration — plain memory stays readable even if
// its broker crashed — so nothing a fenced generation legitimately wrote is
// lost. Zombie writers keep coordinates into the old MR: once deregistered,
// their WRITEs complete with StatusRemoteAccessErr (the fencing mechanism).
func (c *Cluster) swapGroupTable(p *sim.Proc, name string) {
	rt := c.groups
	if old := rt.tables[name]; old != nil {
		rt.co.HarvestCells(p, name, old.gen, old.layout, old.buf)
		old.mr.Deregister()
		delete(rt.tables, name)
	}
	g := rt.co.Group(name)
	if g == nil {
		return
	}
	gen, layout := g.GenAssignment()
	cells := 0
	for _, ma := range layout {
		cells += len(ma.Assigned)
	}
	if cells == 0 {
		return // empty group: no table until the next generation
	}
	b := c.CoordinatorBroker(name)
	if b == nil || c.down[b.id] {
		return // re-queued when a client's CommitAccessReq finds no table
	}
	buf := make([]byte, cells*group.CellSize)
	mr, err := b.pd.RegisterMR(buf, rdma.AccessRemoteWrite)
	if err != nil {
		panic(fmt.Sprintf("core: register commit table: %v", err))
	}
	rt.tables[name] = &groupTable{gen: gen, broker: b, buf: buf, mr: mr, layout: layout}
}

// --- broker request handlers ----------------------------------------------

// handleJoinGroup parks the response on the coordinator's join barrier: the
// reply fires when the rebalance completes (or fails the member), which is
// the revoke→reassign barrier as seen by the client.
func (b *Broker) handleJoinGroup(req *request, m *kwire.JoinGroupReq) kwire.Message {
	co, ec := b.groupCoordinator(m.Group)
	if ec != kwire.ErrNone {
		return &kwire.JoinGroupResp{Err: ec}
	}
	req.holds++ // the barrier's, until the reply (which fires exactly once)
	co.Join(m.Group, m.MemberID, m.Topics, group.Strategy(m.Strategy),
		time.Duration(m.SessionTimeoutMicros)*time.Microsecond,
		func(res group.JoinResult) {
			b.respond(req, &kwire.JoinGroupResp{
				Err:        res.Err,
				Generation: res.Generation,
				MemberID:   res.MemberID,
				Members:    res.Members,
			})
			req.drop()
		})
	return nil
}

func (b *Broker) handleSyncGroup(m *kwire.SyncGroupReq) kwire.Message {
	co, ec := b.groupCoordinator(m.Group)
	if ec != kwire.ErrNone {
		return &kwire.SyncGroupResp{Err: ec}
	}
	res := co.Sync(m.Group, m.MemberID, m.Generation)
	resp := &kwire.SyncGroupResp{Err: res.Err, Generation: res.Generation}
	for _, tp := range res.Assigned {
		resp.Assigned = append(resp.Assigned, kwire.TPAssign{Topic: tp.Topic, Partition: tp.Partition})
	}
	return resp
}

func (b *Broker) handleHeartbeat(m *kwire.HeartbeatReq) kwire.Message {
	co, ec := b.groupCoordinator(m.Group)
	if ec == kwire.ErrNone {
		ec = co.Heartbeat(m.Group, m.MemberID, m.Generation)
	}
	b.scratchBeatResp = kwire.HeartbeatResp{Err: ec}
	return &b.scratchBeatResp
}

func (b *Broker) handleLeaveGroup(m *kwire.LeaveGroupReq) kwire.Message {
	co, ec := b.groupCoordinator(m.Group)
	if ec == kwire.ErrNone {
		ec = co.Leave(m.Group, m.MemberID)
	}
	b.scratchLeaveResp = kwire.LeaveGroupResp{Err: ec}
	return &b.scratchLeaveResp
}

func (b *Broker) handleGroupCommit(p *sim.Proc, m *kwire.GroupCommitReq) kwire.Message {
	co, ec := b.groupCoordinator(m.Group)
	if ec == kwire.ErrNone {
		ec = co.Commit(p, m.Group, m.MemberID, m.Generation,
			group.TP{Topic: m.Topic, Partition: m.Partition}, m.Offset)
	}
	b.scratchGCommitResp = kwire.GroupCommitResp{Err: ec}
	return &b.scratchGCommitResp
}

// handleCommitAccess grants a member one-sided WRITE access to its cell
// range of the group's commit table, registering coordinates only when the
// table matches the member's generation on this broker. A table that is
// stale (pending swap) or stranded on a previous coordinator is re-queued
// for the harvester and the client told to retry.
func (b *Broker) handleCommitAccess(m *kwire.CommitAccessReq) kwire.Message {
	co, ec := b.groupCoordinator(m.Group)
	if ec != kwire.ErrNone {
		return &kwire.CommitAccessResp{Err: ec}
	}
	base, count, code := co.MemberCells(m.Group, m.MemberID, m.Generation)
	if code != kwire.ErrNone {
		return &kwire.CommitAccessResp{Err: code}
	}
	rt := b.cluster.groups
	t := rt.tables[m.Group]
	if t == nil || t.gen != m.Generation || t.broker != b {
		rt.swapQ.Push(m.Group)
		return &kwire.CommitAccessResp{Err: kwire.ErrRebalanceInProgress}
	}
	return &kwire.CommitAccessResp{
		Err:        kwire.ErrNone,
		Generation: m.Generation,
		Addr:       t.mr.Addr() + uint64(base*group.CellSize),
		RKey:       t.mr.RKey(),
		SlotBase:   int64(base),
		Cells:      int32(count),
	}
}
