package bench

import (
	"time"

	"kafkadirect/internal/client"
	"kafkadirect/internal/kwire"
	"kafkadirect/internal/sim"
)

// notifyConfig is one row of the notification ablation.
type notifyConfig struct {
	name     string
	mode     client.NotifyMode
	metaSize int
}

// ablationNotify runs the §4.2.2 notification-method comparison through the
// complete system rather than raw verbs (Fig. 7 is the microbenchmark): an
// exclusive RDMA producer with each method, produce latency and goodput.
// The paper concludes KafkaDirect should ship WriteWithImm but that
// Write+Send remains attractive when 32 bits of immediate data are too few.
func ablationNotify(st *Stats) *Table {
	t := &Table{
		ID:      "ablation-notify",
		Title:   "Produce latency (us) and goodput (MiB/s): notification method, in-system",
		Columns: []string{"config", "latency_us_128B", "goodput_MiBs_4K"},
	}
	cfgs := []notifyConfig{
		{"write_with_imm", client.NotifyWriteImm, 0},
		{"write+send_8B", client.NotifyWriteSend, 8},
		{"write+send_128B", client.NotifyWriteSend, 128},
		{"write+send_512B", client.NotifyWriteSend, 512},
	}
	name := func(c notifyConfig) string { return c.name }
	t.addGrid(labels(cfgs, name), grid(len(cfgs), 2, func(r, c int) any {
		if c == 0 {
			return notifyLatency(st, cfgs[r], 128)
		}
		return notifyGoodput(st, cfgs[r], 4096)
	}))
	t.Note("WriteWithImm stays the lowest-latency choice in-system, as §4.2.2 concludes; Write+Send costs one extra WR per produce")
	return t
}

// notifyRun builds a one-broker rig and hands fn an exclusive RDMA producer
// that notifies the broker with the given method.
func notifyRun(st *Stats, c notifyConfig, fn func(p *sim.Proc, pr *client.RDMAProducer)) {
	r := newSysRig(rigConfig{brokers: 1, stats: st})
	r.topic("t", 1, 1)
	r.run(func(p *sim.Proc) {
		pr, err := client.NewRDMAProducer(p, r.endpoint("cli"), "t", 0, kwire.AccessExclusive, 1)
		must(err)
		pr.Notify = c.mode
		pr.MetaSize = c.metaSize
		fn(p, pr)
	})
}

func notifyLatency(st *Stats, c notifyConfig, recordSize int) (lat time.Duration) {
	notifyRun(st, c, func(p *sim.Proc, pr *client.RDMAProducer) {
		rec := payload(recordSize, 'n')
		lat = mean(closedLoop(p, 1, 25, nil, func() { mustProduce(p, pr, rec) }))
	})
	return lat
}

func notifyGoodput(st *Stats, c notifyConfig, recordSize int) float64 {
	const n = 2000
	var elapsed time.Duration
	notifyRun(st, c, func(p *sim.Proc, pr *client.RDMAProducer) {
		elapsed = flood(p, pr, n, same(payload(recordSize, 'n')))
	})
	return mibps(n*recordSize, elapsed)
}
