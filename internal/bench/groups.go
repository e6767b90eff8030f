package bench

import (
	"encoding/binary"
	"fmt"
	"time"

	"kafkadirect/internal/chaos"
	"kafkadirect/internal/client"
	"kafkadirect/internal/group"
	"kafkadirect/internal/krecord"
	"kafkadirect/internal/sim"
)

// This file is the consumer-group experiment, in three sections sharing one
// table: (a) a rebalance storm — staggered joins, then two members killed
// mid-run (one by a chaos link cut, one by a silent crash-stop) — audited
// for delivery, committed-offset loss, and zombie fencing on both commit
// datapaths; (b) lag drain versus group size, up to hundreds of consumers
// joining over a preloaded topic; (c) the commit-path latency comparison,
// coordinator RPC versus one-sided RDMA WRITE into the registered commit
// table. Deterministic like every other figure: same seeds, same table,
// for any -workers / -shards value.

func runGroups(st *Stats) *Table {
	t := &Table{
		ID:    "groups",
		Title: "Consumer groups: rebalance storm, lag drain vs group size, commit paths (3 brokers)",
		Columns: []string{"case", "members", "produced", "delivered", "dups", "lost",
			"gens", "stable_ms", "drain_ms", "commit_us"},
	}
	for _, mode := range []client.CommitMode{client.CommitRPC, client.CommitOneSided} {
		res := runGroupStorm(mode, st)
		t.AddRow("storm/"+mode.String(), "4", fmt.Sprint(res.produced), fmt.Sprint(res.delivered),
			fmt.Sprint(res.dups), fmt.Sprint(res.lost), fmt.Sprint(res.gens),
			recMS(res.stable), recMS(res.drain), "-")
		t.Note("storm/%s: evictions=%d zombie-commits-fenced=%d history-checksum=%#016x",
			mode, res.evictions, res.fenced, res.checksum)
	}
	for _, g := range []int{1, 8, 64, 256} {
		res := runGroupDrain(g, st)
		t.AddRow("drain/rpc", fmt.Sprint(g), "3200", fmt.Sprint(res.delivered),
			fmt.Sprint(res.dups), fmt.Sprint(res.lost), fmt.Sprint(res.gens),
			recMS(res.stable), recMS(res.drain), "-")
	}
	for _, mode := range []client.CommitMode{client.CommitRPC, client.CommitOneSided} {
		lat := groupCommitLatency(mode, st)
		t.AddRow("commit/"+mode.String(), "1", "-", "-", "-", "-", "-", "-", "-", lat)
	}
	t.Note("storm: 8 partitions rf=2, 4 members joining staggered; at 500/520 ms one member loses its links (chaos) and one silently halts; session expiry evicts both and the survivors drain")
	t.Note("stable_ms: kill (storm) or first join (drain) to the stable surviving generation; drain_ms: stable generation to zero group lag")
	t.Note("lost counts produced records never delivered to any member (must be 0); dups are at-least-once redeliveries after rebalances")
	return t
}

// groupSegment sizes every TP file of the group rigs. No section writes more
// than 60 eight-byte records to a data partition, and the offsets partitions
// take one record of about 100 bytes per commit — under 12 KiB in the
// busiest of them — so the smallest segment holds either many times over.
var groupSegment = segmentFor(60, 8)

// groupFigCfg is the coordinator configuration every section runs with:
// timeouts tightened so the multi-second protocol fits a short simulation.
func groupFigCfg() group.Config {
	return group.Config{
		SessionTimeout:   150 * time.Millisecond,
		RebalanceTimeout: 150 * time.Millisecond,
		RebalanceDelay:   10 * time.Millisecond,
		HarvestInterval:  10 * time.Millisecond,
	}
}

// figMember is one group member driven by its own process.
type figMember struct {
	gc   *client.GroupConsumer
	stop bool
	seqs []uint64
}

// spawnMember starts a member process that joins at the given instant and
// polls until stopped, committing after every delivery when commitEach is
// set (members that never commit leave guaranteed progress for the zombie
// probes).
func spawnMember(r *sysRig, name string, at time.Duration, m *figMember, cfg client.GroupConfig, commitEach bool) {
	e := r.endpoint(name)
	r.env.Go(name, func(p *sim.Proc) {
		if d := at - time.Duration(p.Now()); d > 0 {
			p.Sleep(d)
		}
		gc, err := client.NewGroupConsumer(p, e, cfg)
		if err != nil {
			panic(fmt.Sprintf("bench: %s join: %v", name, err))
		}
		m.gc = gc
		for !m.stop {
			recs, err := gc.Poll(p)
			if err != nil {
				return // the chaos-cut member exhausts its retry budget
			}
			for _, rec := range recs {
				m.seqs = append(m.seqs, binary.BigEndian.Uint64(rec.Value))
			}
			if commitEach && len(recs) > 0 {
				_ = gc.Commit(p) // rejected mid-rebalance; Poll rejoins
			}
			p.Sleep(2 * time.Millisecond)
		}
	})
}

// audit merges the members' delivery logs against sequence space [0, n).
func auditDelivery(members []*figMember, n int) (delivered, dups, lost int) {
	seen := make(map[uint64]int, n)
	total := 0
	for _, m := range members {
		for _, s := range m.seqs {
			seen[s]++
			total++
		}
	}
	for s := 0; s < n; s++ {
		if seen[uint64(s)] == 0 {
			lost++
		}
	}
	return len(seen), total - len(seen), lost
}

type stormResult struct {
	produced, delivered, dups, lost int
	gens, evictions, fenced         int
	stable, drain                   time.Duration
	checksum                        uint64
}

// runGroupStorm is section (a): four members on one commit datapath, two of
// them killed mid-run, then survivors rebalance and drain.
func runGroupStorm(mode client.CommitMode, st *Stats) stormResult {
	const (
		parts  = 8
		rounds = 60
		killC  = 500 * time.Millisecond
		killD  = 520 * time.Millisecond
	)
	r := newSysRig(rigConfig{brokers: 3, repl: replPull, segmentSize: groupSegment, stats: st})
	r.topic("t", parts, 2)
	must(r.cl.EnableGroups(4, 1, groupFigCfg()))
	var faults []chaos.Fault
	for _, b := range r.cl.Brokers() {
		faults = append(faults, chaos.Fault{At: killC, Kind: chaos.LinkCut, Broker: b.ID(), Peer: "gm-2"})
	}
	chaos.New(r.cl, chaos.Plan{Seed: 7, Faults: faults})

	members := []*figMember{{}, {}, {}, {}}
	cfg := client.GroupConfig{
		Group: "cg", Topics: []string{"t"}, Strategy: group.StrategyRange,
		HeartbeatInterval: 25 * time.Millisecond, CommitMode: mode,
	}
	for i, m := range members {
		// Members 2 and 3 never commit while alive, so their zombie commits
		// are guaranteed to carry stale progress.
		spawnMember(r, fmt.Sprintf("gm-%d", i), time.Duration(100+30*i)*time.Millisecond, m, cfg, i < 2)
	}

	var res stormResult
	r.run(func(p *sim.Proc) {
		prod := r.endpoint("prod")
		var prs [parts]client.Producer
		for part := range prs {
			prs[part] = newProducer(p, prod, sysKafka, "t", int32(part), 1, 42)
		}
		var val [8]byte
		for round := 0; round < rounds; round++ {
			for part := 0; part < parts; part++ {
				binary.BigEndian.PutUint64(val[:], uint64(round*parts+part))
				mustProduce(p, prs[part], krecord.Record{Value: val[:], Timestamp: 1})
			}
			p.Sleep(4 * time.Millisecond)
		}
		for _, pr := range prs {
			pr.Close()
		}

		// Kill: gm-2's links are cut by the chaos plan; gm-3 halts silently.
		if d := killC - time.Duration(p.Now()); d > 0 {
			p.Sleep(d)
		}
		members[2].stop = true
		p.Sleep(killD - killC)
		members[3].stop = true
		preGen := members[0].gc.Generation()

		g := r.cl.GroupCoordinator().Group("cg")
		for g.NumMembers() != 2 || g.State() != group.StateStable || g.Generation() != preGen+1 {
			if p.Now() > 2*time.Second {
				panic(fmt.Sprintf("bench: storm never restabilised: members=%d state=%v", g.NumMembers(), g.State()))
			}
			p.Sleep(5 * time.Millisecond)
		}
		res.stable = time.Duration(p.Now()) - killC

		// The halted member wakes up and pushes its stale commit: the RPC
		// path answers with a generation error, the one-sided path completes
		// the WRITE with a remote access error (registration revoked).
		if err := members[3].gc.Commit(p); err == nil {
			panic("bench: zombie commit was accepted")
		}
		res.fenced = members[3].gc.Stats.FencedCommits

		drainFrom := p.Now()
		for g.Lag() != 0 {
			if p.Now() > 3*time.Second {
				panic(fmt.Sprintf("bench: storm lag stuck at %d", g.Lag()))
			}
			p.Sleep(5 * time.Millisecond)
		}
		res.drain = p.Now() - drainFrom
		members[0].stop, members[1].stop = true, true
		p.Sleep(25 * time.Millisecond) // final harvest folds trailing cells

		res.produced = rounds * parts
		res.delivered, res.dups, res.lost = auditDelivery(members, rounds*parts)
		res.gens = int(g.Generation())
		res.evictions = g.Stats().Evictions
		res.checksum = g.HistoryChecksum()
	})
	return res
}

type drainResult struct {
	delivered, dups, lost, gens int
	stable, drain               time.Duration
}

// runGroupDrain is section (b): a preloaded 64-partition topic and a cold
// group of n members joining in a storm, measured to the stable generation
// and to zero lag.
func runGroupDrain(n int, st *Stats) drainResult {
	const (
		parts   = 64
		perPart = 50
	)
	r := newSysRig(rigConfig{brokers: 3, repl: replNone, segmentSize: groupSegment, stats: st})
	r.topic("d", parts, 1)
	must(r.cl.EnableGroups(4, 1, groupFigCfg()))
	members := make([]*figMember, n)
	cfg := client.GroupConfig{
		Group: "dg", Topics: []string{"d"}, Strategy: group.StrategyRange,
		HeartbeatInterval: 50 * time.Millisecond, CommitMode: client.CommitRPC,
	}
	const firstJoin = 100 * time.Millisecond
	for i := range members {
		members[i] = &figMember{}
		spawnMember(r, fmt.Sprintf("dm-%d", i), firstJoin+time.Duration(i)*time.Millisecond, members[i], cfg, true)
	}

	var res drainResult
	r.run(func(p *sim.Proc) {
		prod := r.endpoint("prod")
		var val [8]byte
		for part := 0; part < parts; part++ {
			pr := newProducer(p, prod, sysKafka, "d", int32(part), 1, 42)
			flood(p, pr, perPart, func(i int) krecord.Record {
				binary.BigEndian.PutUint64(val[:], uint64(part*perPart+i))
				return krecord.Record{Value: val[:], Timestamp: 1}
			})
			pr.Close()
		}

		co := r.cl.GroupCoordinator()
		for co.Group("dg") == nil {
			p.Sleep(time.Millisecond)
		}
		g := co.Group("dg")
		for g.NumMembers() != n || g.State() != group.StateStable {
			if p.Now() > 10*time.Second {
				panic(fmt.Sprintf("bench: drain group never stabilised at %d members (%d, %v)",
					n, g.NumMembers(), g.State()))
			}
			p.Sleep(5 * time.Millisecond)
		}
		res.stable = time.Duration(p.Now()) - firstJoin
		drainFrom := p.Now()
		for g.Lag() != 0 {
			if p.Now() > 20*time.Second {
				panic(fmt.Sprintf("bench: drain lag stuck at %d", g.Lag()))
			}
			p.Sleep(5 * time.Millisecond)
		}
		res.drain = p.Now() - drainFrom
		for _, m := range members {
			m.stop = true
		}
		p.Sleep(10 * time.Millisecond)
		res.delivered, res.dups, res.lost = auditDelivery(members, parts*perPart)
		res.gens = int(g.Generation())
	})
	return res
}

// groupCommitLatency is section (c): the median closed-loop commit time of
// one member tracking a slow producer — a coordinator RPC round trip versus
// a single one-sided WRITE into the registered commit table.
func groupCommitLatency(mode client.CommitMode, st *Stats) time.Duration {
	r := newSysRig(rigConfig{brokers: 1, repl: replNone, segmentSize: groupSegment, stats: st})
	r.topic("t", 1, 1)
	must(r.cl.EnableGroups(1, 1, groupFigCfg()))
	var med time.Duration
	r.run(func(p *sim.Proc) {
		pr := newProducer(p, r.endpoint("prod"), sysKafka, "t", 0, 1, 7)
		gc, err := client.NewGroupConsumer(p, r.endpoint("cm"), client.GroupConfig{
			Group: "lg", Topics: []string{"t"}, Strategy: group.StrategyRange, CommitMode: mode,
		})
		must(err)
		rec := krecord.Record{Value: []byte("v"), Timestamp: 1}
		// Every commit needs fresh progress to record: produce one record
		// and fetch it, outside the measurement.
		med = median(closedLoop(p, 3, 31,
			func() { mustProduce(p, pr, rec); pollRecords(p, gc) },
			func() { must(gc.Commit(p)) }))
	})
	return med
}
