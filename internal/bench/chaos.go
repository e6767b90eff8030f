package bench

import (
	"encoding/binary"
	"fmt"
	"time"

	"kafkadirect/internal/chaos"
	"kafkadirect/internal/client"
	"kafkadirect/internal/krecord"
	"kafkadirect/internal/sim"
)

// This file is the failure-handling experiment: a seeded schedule of faults
// (leader crash, broker restart, QP error / connection reset, link cut and
// restore) is injected into a replicated 3-broker deployment while a
// synchronous producer runs, and the table reports per-fault recovery time
// plus end-to-end durability — every acknowledged record must survive, with
// duplicates bounded by the producer's retries (at-least-once delivery).
//
// Like every other experiment the run is a deterministic simulation: same
// seed, same fault plan, same table, for any -workers value.

// chaosFaultTimes are the injection instants of the three producer-visible
// faults; recovery time is measured from each to the next acknowledgement.
var chaosFaultTimes = []time.Duration{
	50 * time.Millisecond,  // crash of the original leader
	250 * time.Millisecond, // QP error (RDMA) / connection reset (TCP) burst
	350 * time.Millisecond, // client<->broker link cut (restored at 400 ms)
}

// chaosResult is one datapath's outcome.
type chaosResult struct {
	produced, acked, lost, dups int
	recovery                    []time.Duration
	trace                       []string
}

func runChaos(st *Stats) *Table {
	t := &Table{
		ID:    "chaos",
		Title: "Fault injection: recovery time and acked-record durability (3 brokers, rf=3)",
		Columns: []string{"datapath", "produced", "acked", "lost", "dups",
			"rec_crash_ms", "rec_fault_ms", "rec_cut_ms"},
	}
	for _, path := range []systemKind{sysKafka, sysKDExcl} {
		res := runChaosPath(path, st)
		t.AddRow(string(path), fmt.Sprint(res.produced), fmt.Sprint(res.acked),
			fmt.Sprint(res.lost), fmt.Sprint(res.dups),
			recMS(res.recovery[0]), recMS(res.recovery[1]), recMS(res.recovery[2]))
		for _, line := range res.trace {
			t.Note("%s %s", path, line)
		}
	}
	t.Note("faults: leader crash @50ms, restart @150ms, %s @250ms, client link cut @350-400ms",
		"qp-error/conn-reset x2")
	t.Note("lost counts acknowledged records missing after re-consuming from offset 0; dups counts extra deliveries from produce retries (at-least-once)")
	return t
}

func recMS(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond))
}

// runChaosPath drives one datapath (TCP with pull replication, or exclusive
// RDMA produce with push replication) through the fault schedule.
func runChaosPath(kind systemKind, st *Stats) chaosResult {
	repl := replPull
	if kind == sysKDExcl || kind == sysKDShared {
		repl = replPush
	}
	// The producer sends one 8-byte record per pace until the schedule has
	// run its course; retries add a handful of duplicates.
	const (
		runFor = 450 * time.Millisecond
		pace   = 200 * time.Microsecond
	)
	r := newSysRig(rigConfig{brokers: 3, repl: repl, segmentSize: segmentFor(int(runFor/pace), 8), stats: st})
	r.topic("t", 1, 3)

	leader := r.cl.LeaderOf("t", 0).ID()
	// Which survivor wins the election depends on replication progress at the
	// crash instant, so the 250 ms fault burst hits both survivors, and the
	// 350 ms cut severs the client from both — guaranteeing the producer
	// datapath is disturbed whichever broker leads.
	faultKind := chaos.ConnReset
	if repl == replPush {
		faultKind = chaos.QPError
	}
	var survivors []string
	for _, b := range r.cl.Brokers() {
		if b.ID() != leader {
			survivors = append(survivors, b.ID())
		}
	}
	faults := []chaos.Fault{
		{At: chaosFaultTimes[0], Kind: chaos.BrokerCrash, Broker: leader},
		{At: 150 * time.Millisecond, Kind: chaos.BrokerRestart, Broker: leader},
	}
	for _, id := range survivors {
		faults = append(faults,
			chaos.Fault{At: chaosFaultTimes[1], Kind: faultKind, Broker: id, Count: 2},
			chaos.Fault{At: chaosFaultTimes[2], Kind: chaos.LinkCut, Broker: id, Peer: "cli"},
			chaos.Fault{At: 400 * time.Millisecond, Kind: chaos.LinkRestore, Broker: id, Peer: "cli"})
	}
	inj := chaos.New(r.cl, chaos.Plan{Seed: 7, Faults: faults})

	var res chaosResult
	r.run(func(p *sim.Proc) {
		pr := newProducer(p, r.endpoint("cli"), kind, "t", 0, -1, 1)
		// Produce sequence-numbered records until past the whole schedule,
		// recording each produce's issue and acknowledgement instants for
		// recovery-time math.
		var acks []ackSpan
		acked := make(map[uint64]bool)
		maxOffset := int64(-1)
		seq := uint64(0)
		for p.Now() < runFor {
			val := make([]byte, 8)
			binary.BigEndian.PutUint64(val, seq)
			start := p.Now()
			off, err := pr.Produce(p, krecord.Record{Value: val, Timestamp: 1})
			if err == nil {
				acked[seq] = true
				acks = append(acks, ackSpan{start: start, acked: p.Now()})
				if off > maxOffset {
					maxOffset = off
				}
			}
			seq++
			p.Sleep(pace)
		}
		pr.Close()
		res.produced = int(seq)
		res.acked = len(acked)
		for _, ft := range chaosFaultTimes {
			res.recovery = append(res.recovery, firstAckAfter(acks, ft)-ft)
		}

		// Re-consume everything from offset 0 over TCP and audit durability:
		// every acknowledged sequence number must appear; extra appearances
		// are retry duplicates.
		seen := make(map[uint64]int)
		c, err := client.NewTCPConsumer(p, r.endpoint("auditor"), "t", 0, 0, "audit")
		must(err)
		for c.Position() <= maxOffset {
			for _, rec := range mustPoll(p, c) {
				seen[binary.BigEndian.Uint64(rec.Value)]++
			}
		}
		c.Close()
		for s := range acked {
			if seen[s] == 0 {
				res.lost++
			}
		}
		for _, n := range seen {
			if n > 1 {
				res.dups += n - 1
			}
		}
	})
	res.trace = inj.Trace()
	return res
}

// ackSpan is one successful produce: when it was issued and when it was
// acknowledged.
type ackSpan struct {
	start, acked time.Duration
}

// firstAckAfter returns the acknowledgement instant of the first produce
// issued at or after t (acks is in ascending order), or t if none followed.
// Requiring start >= t excludes acks that were already in flight when the
// fault hit — those measure wire latency, not recovery.
func firstAckAfter(acks []ackSpan, t time.Duration) time.Duration {
	for _, a := range acks {
		if a.start >= t {
			return a.acked
		}
	}
	return t
}
