package group

import (
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"kafkadirect/internal/kwire"
	"kafkadirect/internal/obs"
	"kafkadirect/internal/sim"
)

// Hooks connects a Coordinator to the cluster it runs on. The coordinator
// never touches the log or the RDMA stack directly; everything durable or
// device-bound goes through here.
type Hooks struct {
	// AppendCommit makes one committed offset durable by appending an
	// offsets record to the group's __consumer_offsets partition. Called
	// from a broker API worker or the harvester, always with a live Proc.
	AppendCommit func(p *sim.Proc, group string, gen int32, tp TP, offset int64)
	// HighWatermark reports a partition's high watermark for lag math.
	HighWatermark func(tp TP) int64
	// Partitions lists a topic's partition IDs in ascending order.
	Partitions func(topic string) []int32
	// OnGeneration fires after every generation change (rebalance completed
	// or group emptied). It may run from a timer context, so it must not
	// block: the core adapter just queues a commit-table swap.
	OnGeneration func(group string)
}

// JoinResult is the (possibly deferred) outcome of a Join call.
type JoinResult struct {
	Err        kwire.ErrCode
	Generation int32
	MemberID   string
	Members    []string
}

// SyncResult is the outcome of a Sync call.
type SyncResult struct {
	Err        kwire.ErrCode
	Generation int32
	Assigned   []TP
}

// GenRecord is one entry of a group's assignment history: the generation
// number and every member's assignment, members sorted by ID. It contains
// no timestamps, so the history (and its checksum) is a pure function of
// the membership event order.
type GenRecord struct {
	Gen     int32
	Members []MemberAssignment
}

// GroupStats counts a group's lifecycle events.
type GroupStats struct {
	// Rebalances counts transitions into StatePreparing.
	Rebalances int
	// Evictions counts members removed by session expiry or the rebalance
	// timeout (voluntary leaves are not evictions).
	Evictions int
	// CommitsApplied counts offset commits that advanced the committed map.
	CommitsApplied uint64
	// FencedRPC counts RPC commits rejected for a stale generation or an
	// unknown member.
	FencedRPC uint64
	// FencedCells counts harvested commit-table cells whose generation did
	// not match the table's generation.
	FencedCells uint64
}

// Member is one group member's coordinator-side state.
type Member struct {
	id             string
	topics         []string
	sessionTimeout time.Duration
	lastBeat       sim.Time
	expiryArmed    bool
	gone           bool
	rejoined       bool
	synced         bool
	joinReply      func(JoinResult)
	assigned       []TP
	cellBase       int
}

// Group is one consumer group's state. All methods must be called from the
// coordinator's simulation (broker handlers or env timers).
type Group struct {
	name       string
	co         *Coordinator
	state      State
	strategy   Strategy
	generation int32
	// epoch guards deferred timer callbacks: it bumps on every transition
	// into Preparing or Empty, invalidating callbacks armed for earlier
	// rebalances.
	epoch     int
	notBefore sim.Time
	members   map[string]*Member
	memberSeq int
	// syncPending counts members that have not fetched the current
	// generation's assignment yet (Completing → Stable edge).
	syncPending int
	committed   map[TP]int64
	history     []GenRecord
	stats       GroupStats

	// preparingAt / completingAt stamp the entries into Preparing and
	// Completing, for the rebalance phase-duration histograms.
	preparingAt  sim.Time
	completingAt sim.Time
}

// Coordinator manages every consumer group whose offsets partition this
// node leads. In this reproduction the coordinator state lives at cluster
// level (like the PR-3 controller): broker handlers route requests to it
// only when they lead the group's offsets partition, so a coordinator
// crash moves the role without losing membership state — the durable
// source of truth for offsets remains the __consumer_offsets log.
type Coordinator struct {
	env    *sim.Env
	cfg    Config
	hooks  Hooks
	groups map[string]*Group

	// Telemetry handles, cached by SetObs. All nil-safe: a coordinator
	// without telemetry records nothing at zero cost.
	obsRebalances  *obs.Counter
	obsEvictions   *obs.Counter
	obsCommits     *obs.Counter
	obsFencedRPC   *obs.Counter
	obsFencedCells *obs.Counter
	stJoinBarrier  *obs.Histogram
	stSyncPhase    *obs.Histogram
}

// SetObs attaches telemetry to the coordinator. Call once, before group
// activity; without it every instrument below stays nil and records nothing.
func (c *Coordinator) SetObs(o *obs.Obs) {
	c.obsRebalances = o.Counter("group/rebalances")
	c.obsEvictions = o.Counter("group/evictions")
	c.obsCommits = o.Counter("group/commits_applied")
	c.obsFencedRPC = o.Counter("group/fenced_rpc")
	c.obsFencedCells = o.Counter("group/fenced_cells")
	c.stJoinBarrier = o.Histogram("group/rebalance_join_ns")
	c.stSyncPhase = o.Histogram("group/rebalance_sync_ns")
}

// NewCoordinator builds a coordinator on the given simulation.
func NewCoordinator(env *sim.Env, cfg Config, hooks Hooks) *Coordinator {
	if cfg.SessionTimeout <= 0 {
		cfg.SessionTimeout = DefaultConfig().SessionTimeout
	}
	if cfg.RebalanceTimeout <= 0 {
		cfg.RebalanceTimeout = DefaultConfig().RebalanceTimeout
	}
	if cfg.HarvestInterval <= 0 {
		cfg.HarvestInterval = DefaultConfig().HarvestInterval
	}
	return &Coordinator{env: env, cfg: cfg, hooks: hooks, groups: make(map[string]*Group)}
}

// Config returns the coordinator's timing knobs.
func (c *Coordinator) Config() Config { return c.cfg }

// Group returns a group's state, or nil if the group has never been joined.
func (c *Coordinator) Group(name string) *Group { return c.groups[name] }

// GroupNames lists all known groups in sorted order.
func (c *Coordinator) GroupNames() []string {
	names := make([]string, 0, len(c.groups))
	for name := range c.groups {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func (c *Coordinator) ensureGroup(name string) *Group {
	g := c.groups[name]
	if g == nil {
		g = &Group{
			name:      name,
			co:        c,
			members:   make(map[string]*Member),
			committed: make(map[TP]int64),
		}
		c.groups[name] = g
	}
	return g
}

// Join registers (or re-registers) a member and starts a rebalance. The
// reply fires exactly once: immediately if the join barrier is already
// satisfied, later when it completes, or with an error if the member is
// evicted or re-joins first. An empty memberID asks the coordinator to
// assign one ("<group>-<seq>", stable across rejoins).
func (c *Coordinator) Join(name, memberID string, topics []string, strategy Strategy, sessionTimeout time.Duration, reply func(JoinResult)) {
	g := c.ensureGroup(name)
	g.strategy = strategy
	if memberID == "" {
		g.memberSeq++
		memberID = fmt.Sprintf("%s-%d", name, g.memberSeq)
	}
	m := g.members[memberID]
	if m == nil {
		m = &Member{id: memberID}
		g.members[memberID] = m
	}
	// The request message is pooled by the broker: copy the topics out.
	m.topics = append(m.topics[:0], topics...)
	if sessionTimeout <= 0 {
		sessionTimeout = c.cfg.SessionTimeout
	}
	m.sessionTimeout = sessionTimeout
	m.lastBeat = c.env.Now()
	c.armExpiry(g, m)
	// A re-join while a previous join is still parked fails the old one:
	// every broker request gets exactly one response.
	if old := m.joinReply; old != nil {
		m.joinReply = nil
		old(JoinResult{Err: kwire.ErrRebalanceInProgress})
	}
	m.joinReply = reply
	g.prepareRebalance()
	m.rejoined = true
	g.checkBarrier()
}

// member finds a group's member and, as every RPC a member sends does,
// refreshes its session. m is nil for an unknown member; g is nil too when
// the group has never been joined.
func (c *Coordinator) member(name, memberID string) (g *Group, m *Member) {
	if g = c.groups[name]; g == nil {
		return nil, nil
	}
	if m = g.members[memberID]; m != nil {
		m.lastBeat = c.env.Now()
		c.armExpiry(g, m)
	}
	return g, m
}

// Sync returns the member's assignment for the given generation. Members
// call it after their Join reply fires, so it never parks.
func (c *Coordinator) Sync(name, memberID string, gen int32) SyncResult {
	g, m := c.member(name, memberID)
	if m == nil {
		return SyncResult{Err: kwire.ErrUnknownMember}
	}
	if gen != g.generation {
		return SyncResult{Err: kwire.ErrIllegalGeneration}
	}
	if g.state == StatePreparing {
		return SyncResult{Err: kwire.ErrRebalanceInProgress}
	}
	if !m.synced {
		m.synced = true
		g.syncPending--
		if g.syncPending == 0 && g.state == StateCompleting {
			g.state = StateStable
			c.stSyncPhase.ObserveDur(c.env.Now() - g.completingAt)
		}
	}
	return SyncResult{Err: kwire.ErrNone, Generation: g.generation, Assigned: m.assigned}
}

// Heartbeat refreshes a member's session and reports whether it must
// rejoin (a rebalance is in progress) or has been fenced.
func (c *Coordinator) Heartbeat(name, memberID string, gen int32) kwire.ErrCode {
	g, m := c.member(name, memberID)
	if m == nil {
		return kwire.ErrUnknownMember
	}
	if g.state == StatePreparing && !m.rejoined {
		return kwire.ErrRebalanceInProgress
	}
	if gen != g.generation {
		return kwire.ErrIllegalGeneration
	}
	return kwire.ErrNone
}

// Leave removes a member voluntarily and triggers a rebalance.
func (c *Coordinator) Leave(name, memberID string) kwire.ErrCode {
	g := c.groups[name]
	if g == nil {
		return kwire.ErrUnknownMember
	}
	m := g.members[memberID]
	if m == nil {
		return kwire.ErrUnknownMember
	}
	g.removeMember(m, kwire.ErrUnknownMember)
	g.memberGone()
	return kwire.ErrNone
}

// Commit applies one RPC offset commit. Stale generations and unknown
// members are fenced.
func (c *Coordinator) Commit(p *sim.Proc, name, memberID string, gen int32, tp TP, offset int64) kwire.ErrCode {
	g, m := c.member(name, memberID)
	if g == nil {
		return kwire.ErrUnknownMember
	}
	if m == nil {
		g.stats.FencedRPC++
		c.obsFencedRPC.Inc()
		return kwire.ErrUnknownMember
	}
	if gen != g.generation {
		g.stats.FencedRPC++
		c.obsFencedRPC.Inc()
		return kwire.ErrIllegalGeneration
	}
	g.applyCommit(p, gen, tp, offset)
	return kwire.ErrNone
}

// Committed returns a group's committed offset for one partition, or -1.
func (c *Coordinator) Committed(name string, tp TP) int64 {
	g := c.groups[name]
	if g == nil {
		return -1
	}
	return g.Committed(tp)
}

// MemberCells validates a one-sided commit-table access request and
// returns the member's cell range in the current generation's table.
func (c *Coordinator) MemberCells(name, memberID string, gen int32) (base, count int, code kwire.ErrCode) {
	g, m := c.member(name, memberID)
	if m == nil {
		return 0, 0, kwire.ErrUnknownMember
	}
	if gen != g.generation {
		return 0, 0, kwire.ErrIllegalGeneration
	}
	if g.state == StatePreparing {
		return 0, 0, kwire.ErrRebalanceInProgress
	}
	return m.cellBase, len(m.assigned), kwire.ErrNone
}

// HarvestCells folds a commit-table buffer into the committed map. layout
// must be the assignment the table was registered for and gen its
// generation; cells carrying any other generation are fenced. Harvesting
// is idempotent (commits are monotonic), so periodic and final (pre-swap)
// harvests of the same buffer are safe.
func (c *Coordinator) HarvestCells(p *sim.Proc, name string, gen int32, layout []MemberAssignment, buf []byte) (applied, fenced int) {
	g := c.groups[name]
	if g == nil {
		return 0, 0
	}
	for _, ma := range layout {
		for i, tp := range ma.Assigned {
			off := (ma.CellBase + i) * CellSize
			if off+CellSize > len(buf) {
				return applied, fenced
			}
			cgen, coff, ok := DecodeCell(buf[off : off+CellSize])
			if !ok {
				continue
			}
			if cgen != gen {
				g.stats.FencedCells++
				c.obsFencedCells.Inc()
				fenced++
				continue
			}
			before := g.stats.CommitsApplied
			g.applyCommit(p, cgen, tp, coff)
			if g.stats.CommitsApplied != before {
				applied++
			}
		}
	}
	return applied, fenced
}

// --- Group internals -------------------------------------------------------

func (g *Group) sortedIDs() []string {
	ids := make([]string, 0, len(g.members))
	for id := range g.members {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// prepareRebalance moves the group into Preparing. Every member must rejoin
// before the barrier completes; the rebalance timeout evicts stragglers.
func (g *Group) prepareRebalance() {
	if g.state == StatePreparing {
		return
	}
	co := g.co
	g.state = StatePreparing
	g.epoch++
	g.stats.Rebalances++
	co.obsRebalances.Inc()
	g.preparingAt = co.env.Now()
	g.notBefore = co.env.Now() + co.cfg.RebalanceDelay
	for _, id := range g.sortedIDs() {
		g.members[id].rejoined = false
	}
	epoch := g.epoch
	if co.cfg.RebalanceDelay > 0 {
		co.env.After(co.cfg.RebalanceDelay, func() {
			if g.epoch == epoch && g.state == StatePreparing {
				g.checkBarrier()
			}
		})
	}
	co.env.After(co.cfg.RebalanceTimeout, func() { g.onRebalanceTimeout(epoch) })
}

// checkBarrier completes the join barrier once every member has rejoined
// and the coalescing delay has elapsed.
func (g *Group) checkBarrier() {
	if g.state != StatePreparing {
		return
	}
	for _, id := range g.sortedIDs() {
		if !g.members[id].rejoined {
			return
		}
	}
	if g.co.env.Now() < g.notBefore {
		return // the RebalanceDelay timer re-checks
	}
	g.completeJoin()
}

func (g *Group) onRebalanceTimeout(epoch int) {
	if g.epoch != epoch || g.state != StatePreparing {
		return
	}
	for _, id := range g.sortedIDs() {
		m := g.members[id]
		if !m.rejoined {
			g.removeMember(m, kwire.ErrUnknownMember)
			g.stats.Evictions++
			g.co.obsEvictions.Inc()
		}
	}
	if len(g.members) == 0 {
		g.emptyTransition()
		return
	}
	g.completeJoin()
}

// completeJoin advances the generation: compute assignments, record
// history, fire parked Join replies, and signal the table swap.
func (g *Group) completeJoin() {
	co := g.co
	g.generation++
	now := co.env.Now()
	co.stJoinBarrier.ObserveDur(now - g.preparingAt)
	g.completingAt = now
	ids := g.sortedIDs()
	subs := make([]Subscription, 0, len(ids))
	for _, id := range ids {
		subs = append(subs, Subscription{MemberID: id, Topics: g.members[id].topics})
	}
	asg := Assign(g.strategy, subs, co.hooks.Partitions)
	g.history = append(g.history, GenRecord{Gen: g.generation, Members: asg})
	g.state = StateCompleting
	g.syncPending = len(ids)
	for _, ma := range asg {
		m := g.members[ma.ID]
		m.assigned = ma.Assigned
		m.cellBase = ma.CellBase
		m.synced = false
		// Members parked on the barrier could not heartbeat: refresh their
		// sessions so the wait does not count against them.
		m.lastBeat = now
		co.armExpiry(g, m)
	}
	if co.hooks.OnGeneration != nil {
		co.hooks.OnGeneration(g.name)
	}
	for _, id := range ids {
		m := g.members[id]
		if reply := m.joinReply; reply != nil {
			m.joinReply = nil
			reply(JoinResult{Err: kwire.ErrNone, Generation: g.generation, MemberID: id, Members: ids})
		}
	}
}

// emptyTransition retires a group that lost its last member: the
// generation still bumps (fencing any zombie from the last populated
// generation) and the commit table is retired via OnGeneration.
func (g *Group) emptyTransition() {
	g.state = StateEmpty
	g.generation++
	g.epoch++
	g.syncPending = 0
	g.history = append(g.history, GenRecord{Gen: g.generation})
	if g.co.hooks.OnGeneration != nil {
		g.co.hooks.OnGeneration(g.name)
	}
}

// removeMember deletes a member, failing its parked Join reply if any.
func (g *Group) removeMember(m *Member, code kwire.ErrCode) {
	delete(g.members, m.id)
	m.gone = true
	if reply := m.joinReply; reply != nil {
		m.joinReply = nil
		reply(JoinResult{Err: code})
	}
}

// memberGone rebalances (or empties) the group after a removal.
func (g *Group) memberGone() {
	if len(g.members) == 0 {
		g.emptyTransition()
		return
	}
	if g.state == StatePreparing {
		g.checkBarrier()
		return
	}
	g.prepareRebalance()
	g.checkBarrier()
}

func (g *Group) applyCommit(p *sim.Proc, gen int32, tp TP, offset int64) {
	if cur, ok := g.committed[tp]; ok && offset <= cur {
		return // commits are monotonic; stale and duplicate writes are no-ops
	}
	g.committed[tp] = offset
	g.stats.CommitsApplied++
	g.co.obsCommits.Inc()
	if g.co.hooks.AppendCommit != nil {
		g.co.hooks.AppendCommit(p, g.name, gen, tp, offset)
	}
}

// --- session expiry --------------------------------------------------------

// armExpiry schedules the member's session-expiry check. The timer is a
// deferred check: it fires at the earliest possible expiry instant and
// re-arms for the remainder if the member has been heard from since.
func (c *Coordinator) armExpiry(g *Group, m *Member) {
	if m.expiryArmed || m.sessionTimeout <= 0 {
		return
	}
	m.expiryArmed = true
	c.scheduleExpiry(g, m, m.sessionTimeout)
}

func (c *Coordinator) scheduleExpiry(g *Group, m *Member, d time.Duration) {
	c.env.After(d, func() {
		if m.gone {
			return
		}
		idle := c.env.Now() - m.lastBeat
		if idle < m.sessionTimeout {
			c.scheduleExpiry(g, m, m.sessionTimeout-idle)
			return
		}
		m.expiryArmed = false
		g.removeMember(m, kwire.ErrUnknownMember)
		g.stats.Evictions++
		c.obsEvictions.Inc()
		g.memberGone()
	})
}

// --- read-side accessors ---------------------------------------------------

// Name returns the group's name.
func (g *Group) Name() string { return g.name }

// State returns the group's lifecycle state.
func (g *Group) State() State { return g.state }

// Generation returns the current generation number.
func (g *Group) Generation() int32 { return g.generation }

// NumMembers returns the current member count.
func (g *Group) NumMembers() int { return len(g.members) }

// Stats returns a copy of the group's counters.
func (g *Group) Stats() GroupStats { return g.stats }

// History returns the group's assignment history. The slice is live;
// callers must not mutate it.
func (g *Group) History() []GenRecord { return g.history }

// Committed returns the committed offset for one partition, or -1 if the
// group never committed it.
func (g *Group) Committed(tp TP) int64 {
	if v, ok := g.committed[tp]; ok {
		return v
	}
	return -1
}

// CommittedOffset is one (partition, offset) pair of a group's snapshot.
type CommittedOffset struct {
	TP     TP
	Offset int64
}

// CommittedSnapshot returns every committed offset in canonical order.
func (g *Group) CommittedSnapshot() []CommittedOffset {
	tps := make([]TP, 0, len(g.committed))
	for tp := range g.committed {
		tps = append(tps, tp)
	}
	sort.Slice(tps, func(i, j int) bool { return tps[i].Less(tps[j]) })
	out := make([]CommittedOffset, 0, len(tps))
	for _, tp := range tps {
		out = append(out, CommittedOffset{TP: tp, Offset: g.committed[tp]})
	}
	return out
}

// GenAssignment returns the current generation and its assignment layout
// (nil when the group is empty or has never completed a join).
func (g *Group) GenAssignment() (int32, []MemberAssignment) {
	if len(g.history) == 0 {
		return g.generation, nil
	}
	rec := g.history[len(g.history)-1]
	if rec.Gen != g.generation {
		return g.generation, nil
	}
	return rec.Gen, rec.Members
}

// Lag sums high-watermark minus committed offset over every partition the
// group is assigned or has ever committed.
func (g *Group) Lag() int64 {
	if g.co.hooks.HighWatermark == nil {
		return 0
	}
	set := make(map[TP]bool, len(g.committed))
	for tp := range g.committed {
		set[tp] = true
	}
	for _, id := range g.sortedIDs() {
		for _, tp := range g.members[id].assigned {
			set[tp] = true
		}
	}
	tps := make([]TP, 0, len(set))
	for tp := range set {
		tps = append(tps, tp)
	}
	sort.Slice(tps, func(i, j int) bool { return tps[i].Less(tps[j]) })
	var lag int64
	for _, tp := range tps {
		hw := g.co.hooks.HighWatermark(tp)
		committed := g.committed[tp] // zero when absent: nothing consumed yet
		if d := hw - committed; d > 0 {
			lag += d
		}
	}
	return lag
}

// HistoryChecksum is an FNV-64a digest of the canonical rendering of the
// assignment history. Byte-identical histories — the determinism the
// rebalance tests assert across workers × shards — have equal checksums.
func (g *Group) HistoryChecksum() uint64 {
	h := fnv.New64a()
	for _, rec := range g.history {
		fmt.Fprintf(h, "gen=%d;", rec.Gen)
		for _, ma := range rec.Members {
			fmt.Fprintf(h, "%s@%d=", ma.ID, ma.CellBase)
			for _, tp := range ma.Assigned {
				fmt.Fprintf(h, "%s/%d,", tp.Topic, tp.Partition)
			}
			h.Write([]byte(";"))
		}
		h.Write([]byte("\n"))
	}
	return h.Sum64()
}
