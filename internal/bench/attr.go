package bench

import (
	"fmt"
	"strings"
	"time"

	"kafkadirect/internal/obs"
	"kafkadirect/internal/sim"
)

// This file is the latency-attribution figure: it decomposes the closed-loop
// produce RTT of every datapath into the telemetry stages recorded across
// the stack (client encode/wakeup, NIC and wire occupancy, broker poll,
// handoff, queue wait, API work, response path) and checks that the stages
// tile the measured end-to-end latency. The tiling is the figure's claim:
// each stage histogram covers a disjoint interval of the request's life, so
// their sums must add up to the measured RTT — the footer prints the
// coverage, and the obs determinism test pins it to 100 +/- 1 %.

// attrStages is the canonical display order of every produce-path stage.
// Stages a datapath never touches render as "-". stage/rdma_ack_wire is
// deliberately ABSENT: it is the return transit of a signaled Send's
// transport ack, which nothing on the request's path waits for. (The broker's
// ack Sends are unsignaled and do not feed it; DESIGN.md §10.)
var attrStages = []string{
	"stage/client_encode",
	"stage/client_osu_send",
	"stage/tcp_send",
	"stage/tcp_wire",
	"stage/tcp_sock_wait",
	"stage/rdma_req_nic",
	"stage/rdma_wire",
	"stage/rdma_resp_nic",
	"stage/rdma_resp_wire",
	"stage/broker_cqe_wait",
	"stage/broker_rdma_poll",
	"stage/broker_net_recv",
	"stage/broker_handoff",
	"stage/broker_queue_wait",
	"stage/broker_api",
	"stage/broker_resp_wait",
	"stage/broker_net_send",
	"stage/tcp_recv",
	"stage/client_cqe_wait",
	"stage/client_osu_recv",
	"stage/client_wakeup",
}

// attrResult is one datapath's measured attribution window.
type attrResult struct {
	delta    obs.Snapshot
	produces int
	e2e      time.Duration // summed RTT of the measured produces
}

// attrExcluded reports stages excluded from the coverage sum (recorded but
// off the request's critical path).
func attrExcluded(name string) bool { return name == "stage/rdma_ack_wire" }

// runAttrSystem runs one datapath's closed-loop produce window against a
// rig-local registry and returns the stage delta across the measured loop.
func runAttrSystem(kind systemKind, st *Stats) attrResult {
	o := obs.New(0) // metrics only: the attribution needs histograms, not spans
	const warm, n, size = 5, 40, 1024
	r := newSysRig(rigConfig{brokers: 1, repl: replNone, segmentSize: segmentFor(warm+n, size), stats: st, obs: o})
	r.topic("t", 1, 1)
	var res attrResult
	r.run(func(p *sim.Proc) {
		pr := newProducer(p, r.endpoint("cli"), kind, "t", 0, 1, 1)
		rec := payload(size, 'x')
		produce := func() { mustProduce(p, pr, rec) }
		// The stage snapshot brackets the measured produces only, so the
		// warm-up is its own loop.
		closedLoop(p, warm, 0, nil, produce)
		pre := o.Reg.Snapshot(p.Now())
		for _, rtt := range closedLoop(p, 0, n, nil, produce) {
			res.e2e += rtt
		}
		res.delta = o.Reg.Snapshot(p.Now()).Sub(pre)
		res.produces = n
	})
	return res
}

// stageSum totals the on-path stage time of a window delta.
func (a attrResult) stageSum() time.Duration {
	var sum uint64
	for name, h := range a.delta.Hists {
		if strings.HasPrefix(name, "stage/") && !attrExcluded(name) {
			sum += h.Sum
		}
	}
	return time.Duration(sum)
}

// perProduceUS renders one stage's per-produce cost in microseconds.
func (a attrResult) perProduceUS(name string) string {
	h, ok := a.delta.Hists[name]
	if !ok || h.Count == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", float64(h.Sum)/float64(a.produces)/1e3)
}

func runAttr(st *Stats) *Table {
	t := &Table{
		ID:      "attr",
		Title:   "Produce latency attribution by stage (us, 1 KiB records, rf=1)",
		Columns: []string{"stage", "kafka", "osu", "kd_excl", "kd_shared"},
	}
	kinds := []systemKind{sysKafka, sysOSU, sysKDExcl, sysKDShared}
	results := make([]attrResult, len(kinds))
	forEach(len(kinds), func(i int) { results[i] = runAttrSystem(kinds[i], st) })
	for _, name := range attrStages {
		row := []string{strings.TrimPrefix(name, "stage/")}
		used := false
		for _, res := range results {
			cell := res.perProduceUS(name)
			if cell != "-" {
				used = true
			}
			row = append(row, cell)
		}
		if used {
			t.Rows = append(t.Rows, row)
		}
	}
	sums := []string{"stage_sum"}
	e2es := []string{"end_to_end"}
	covs := []string{"coverage_pct"}
	for _, res := range results {
		sum := res.stageSum()
		sums = append(sums, fmt.Sprintf("%.2f", float64(sum)/float64(res.produces)/1e3))
		e2es = append(e2es, fmt.Sprintf("%.2f", float64(res.e2e)/float64(res.produces)/1e3))
		covs = append(covs, fmt.Sprintf("%.1f", 100*float64(sum)/float64(res.e2e)))
	}
	t.Rows = append(t.Rows, sums, e2es, covs)
	t.Note("stages tile the closed-loop RTT; coverage_pct is their sum over the measured end-to-end latency")
	t.Note("stage/rdma_ack_wire (broker ack-send return transit) is off the critical path and excluded")
	return t
}
