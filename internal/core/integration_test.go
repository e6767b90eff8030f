package core_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"kafkadirect/internal/client"
	"kafkadirect/internal/core"
	"kafkadirect/internal/krecord"
	"kafkadirect/internal/kwire"
	"kafkadirect/internal/sim"
)

const us = time.Microsecond

// rig is a running cluster plus driver plumbing.
type rig struct {
	t   *testing.T
	env *sim.Env
	cl  *core.Cluster
}

func newRig(t *testing.T, brokers int, mutate func(*core.Options)) *rig {
	t.Helper()
	env := sim.NewEnv(7)
	opts := core.DefaultOptions()
	opts.Config.SegmentSize = 1 << 20 // keep tests light
	if mutate != nil {
		mutate(&opts)
	}
	cl := core.NewCluster(env, opts)
	cl.AddBrokers(brokers)
	return &rig{t: t, env: env, cl: cl}
}

// drive runs fn as the test driver and stops the simulation when it
// returns. The virtual deadline catches livelocks.
func (r *rig) drive(fn func(p *sim.Proc)) {
	r.t.Helper()
	done := false
	r.env.Go("driver", func(p *sim.Proc) {
		fn(p)
		done = true
		r.env.Stop()
	})
	r.env.RunUntil(120 * time.Second)
	if !done {
		r.t.Fatal("driver did not finish before the virtual deadline")
	}
}

func (r *rig) endpoint(name string) *client.Endpoint {
	return client.NewEndpoint(r.cl, name, client.DefaultConfig())
}

func recordsOf(n, size int, tag byte) []krecord.Record {
	recs := make([]krecord.Record, n)
	for i := range recs {
		v := bytes.Repeat([]byte{tag}, size)
		recs[i] = krecord.Record{Value: v, Timestamp: int64(i + 1)}
	}
	return recs
}

// keep appends copies of recs to dst: what a consumer's Poll returns is
// valid until its next Poll only.
func keep(dst, recs []krecord.Record) []krecord.Record {
	for _, rc := range recs {
		rc.Value = bytes.Clone(rc.Value)
		dst = append(dst, rc)
	}
	return dst
}

// ---------------------------------------------------------------------------
// TCP datapaths (the unmodified-Kafka baseline)
// ---------------------------------------------------------------------------

func TestTCPProduceConsumeRoundTrip(t *testing.T) {
	r := newRig(t, 1, nil)
	if err := r.cl.CreateTopic("events", 1, 1); err != nil {
		t.Fatal(err)
	}
	r.drive(func(p *sim.Proc) {
		e := r.endpoint("cli")
		pr, err := client.NewTCPProducer(p, e, "events", 0, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			base, err := pr.Produce(p, krecord.Record{Value: []byte(fmt.Sprintf("msg-%d", i)), Timestamp: int64(i + 1)})
			if err != nil {
				t.Fatalf("produce %d: %v", i, err)
			}
			if base != int64(i) {
				t.Fatalf("offset %d, want %d", base, i)
			}
		}
		co, err := client.NewTCPConsumer(p, e, "events", 0, 0, "g")
		if err != nil {
			t.Fatal(err)
		}
		var got []krecord.Record
		for len(got) < 5 {
			recs, err := co.Poll(p)
			if err != nil {
				t.Fatal(err)
			}
			got = keep(got, recs)
		}
		for i, rec := range got {
			if string(rec.Value) != fmt.Sprintf("msg-%d", i) || rec.Offset != int64(i) {
				t.Fatalf("record %d = %q @%d", i, rec.Value, rec.Offset)
			}
		}
		if err := co.CommitOffset(p); err != nil {
			t.Fatal(err)
		}
	})
}

func TestTCPProduceLatencyMatchesKafkaBaseline(t *testing.T) {
	// Fig. 10: the original Kafka's produce RTT for small records is a few
	// hundred microseconds.
	r := newRig(t, 1, nil)
	r.cl.CreateTopic("t", 1, 1)
	r.drive(func(p *sim.Proc) {
		e := r.endpoint("cli")
		pr, _ := client.NewTCPProducer(p, e, "t", 0, 1, 1)
		pr.Produce(p, recordsOf(1, 32, 'x')...) // warm up
		start := p.Now()
		const n = 20
		for i := 0; i < n; i++ {
			if _, err := pr.Produce(p, recordsOf(1, 32, 'x')...); err != nil {
				t.Fatal(err)
			}
		}
		rtt := (p.Now() - start) / n
		if rtt < 150*us || rtt > 450*us {
			t.Fatalf("TCP produce RTT %v, want a few hundred µs", rtt)
		}
	})
}

func TestTCPConsumerSeesOnlyCommitted(t *testing.T) {
	// With acks=1 and 2-way replication, data is readable only after the
	// follower catches up; the consumer must never read past the HW.
	r := newRig(t, 2, nil)
	r.cl.CreateTopic("t", 1, 2)
	r.drive(func(p *sim.Proc) {
		e := r.endpoint("cli")
		pr, _ := client.NewTCPProducer(p, e, "t", 0, -1, 1)
		if _, err := pr.Produce(p, recordsOf(1, 100, 'a')...); err != nil {
			t.Fatal(err)
		}
		co, _ := client.NewTCPConsumer(p, e, "t", 0, 0, "g")
		var recs []krecord.Record
		for len(recs) == 0 {
			var err error
			recs, err = co.Poll(p)
			if err != nil {
				t.Fatal(err)
			}
		}
		leader := r.cl.LeaderOf("t", 0)
		pt := leader.Partition("t", 0)
		if pt.Log().HighWatermark() != 1 {
			t.Fatalf("HW %d after full replication", pt.Log().HighWatermark())
		}
	})
}

// ---------------------------------------------------------------------------
// RDMA produce datapath
// ---------------------------------------------------------------------------

func TestRDMAExclusiveProduceCommitsRecords(t *testing.T) {
	r := newRig(t, 1, func(o *core.Options) { o.Config.RDMAProduce = true })
	r.cl.CreateTopic("t", 1, 1)
	r.drive(func(p *sim.Proc) {
		e := r.endpoint("cli")
		pr, err := client.NewRDMAProducer(p, e, "t", 0, kwire.AccessExclusive, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			base, err := pr.Produce(p, krecord.Record{Value: []byte(fmt.Sprintf("r-%d", i)), Timestamp: 1})
			if err != nil {
				t.Fatalf("produce %d: %v", i, err)
			}
			if base != int64(i) {
				t.Fatalf("offset %d, want %d", base, i)
			}
		}
		pt := r.cl.LeaderOf("t", 0).Partition("t", 0)
		if pt.Log().HighWatermark() != 10 {
			t.Fatalf("HW %d, want 10", pt.Log().HighWatermark())
		}
		// The stored data validates and carries the right payloads.
		data, err := pt.Log().ReadCommitted(0, 1<<20)
		if err != nil || data == nil {
			t.Fatalf("read: %v", err)
		}
		i := 0
		krecord.Scan(data, func(b krecord.Batch) error {
			if err := b.Validate(); err != nil {
				t.Fatalf("batch %d: %v", i, err)
			}
			recs, _ := b.Records()
			if string(recs[0].Value) != fmt.Sprintf("r-%d", i) {
				t.Fatalf("batch %d payload %q", i, recs[0].Value)
			}
			i++
			return nil
		})
		if i != 10 {
			t.Fatalf("scanned %d batches", i)
		}
	})
}

func TestRDMAExclusiveProduceLatencyNear90us(t *testing.T) {
	// Fig. 10 headline: ~90 µs for small records, vs ~2.5 µs for the raw
	// RDMA write — the rest is client copy, handoffs, and wakeups (§5.1).
	r := newRig(t, 1, func(o *core.Options) { o.Config.RDMAProduce = true })
	r.cl.CreateTopic("t", 1, 1)
	r.drive(func(p *sim.Proc) {
		e := r.endpoint("cli")
		pr, _ := client.NewRDMAProducer(p, e, "t", 0, kwire.AccessExclusive, 1)
		pr.Produce(p, recordsOf(1, 32, 'x')...)
		start := p.Now()
		const n = 20
		for i := 0; i < n; i++ {
			if _, err := pr.Produce(p, recordsOf(1, 32, 'x')...); err != nil {
				t.Fatal(err)
			}
		}
		rtt := (p.Now() - start) / n
		if rtt < 70*us || rtt > 120*us {
			t.Fatalf("RDMA produce RTT %v, want ≈90µs", rtt)
		}
	})
}

func TestRDMASharedProducersInterleaveConsistently(t *testing.T) {
	r := newRig(t, 1, func(o *core.Options) { o.Config.RDMAProduce = true })
	r.cl.CreateTopic("t", 1, 1)
	r.drive(func(p *sim.Proc) {
		const producers = 3
		const each = 20
		done := sim.NewQueue[error]()
		for pi := 0; pi < producers; pi++ {
			pi := pi
			r.env.Go(fmt.Sprintf("prod-%d", pi), func(pp *sim.Proc) {
				e := r.endpoint(fmt.Sprintf("cli-%d", pi))
				pr, err := client.NewRDMAProducer(pp, e, "t", 0, kwire.AccessShared, int64(pi))
				if err != nil {
					done.Push(err)
					return
				}
				for i := 0; i < each; i++ {
					if _, err := pr.Produce(pp, krecord.Record{Value: []byte(fmt.Sprintf("p%d-%d", pi, i)), Timestamp: 1}); err != nil {
						done.Push(fmt.Errorf("producer %d produce %d: %w", pi, i, err))
						return
					}
				}
				done.Push(nil)
			})
		}
		for i := 0; i < producers; i++ {
			if err := done.Pop(p); err != nil {
				t.Fatal(err)
			}
		}
		pt := r.cl.LeaderOf("t", 0).Partition("t", 0)
		if got := pt.Log().HighWatermark(); got != producers*each {
			t.Fatalf("HW %d, want %d", got, producers*each)
		}
		// Offsets are dense, batches valid, and per-producer order holds.
		data, _ := pt.Log().ReadCommitted(0, 1<<26)
		next := map[int64]int{}
		offset := int64(0)
		krecord.Scan(data, func(b krecord.Batch) error {
			if err := b.Validate(); err != nil {
				t.Fatal(err)
			}
			if b.BaseOffset() != offset {
				t.Fatalf("batch at %d, expected %d", b.BaseOffset(), offset)
			}
			offset = b.NextOffset()
			recs, _ := b.Records()
			pid := b.ProducerID()
			want := fmt.Sprintf("p%d-%d", pid, next[pid])
			if string(recs[0].Value) != want {
				t.Fatalf("producer %d out of order: %q want %q", pid, recs[0].Value, want)
			}
			next[pid]++
			return nil
		})
	})
}

func TestTCPAndRDMASharedProducersCoexist(t *testing.T) {
	// §4.2.2 shared RDMA/TCP access: a TCP produce to an RDMA-shared file
	// reserves through the same atomic word.
	r := newRig(t, 1, func(o *core.Options) { o.Config.RDMAProduce = true })
	r.cl.CreateTopic("t", 1, 1)
	r.drive(func(p *sim.Proc) {
		e := r.endpoint("cli")
		rdmaProd, err := client.NewRDMAProducer(p, e, "t", 0, kwire.AccessShared, 1)
		if err != nil {
			t.Fatal(err)
		}
		tcpProd, err := client.NewTCPProducer(p, e, "t", 0, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if _, err := rdmaProd.Produce(p, krecord.Record{Value: []byte("rdma"), Timestamp: 1}); err != nil {
				t.Fatalf("rdma produce %d: %v", i, err)
			}
			if _, err := tcpProd.Produce(p, krecord.Record{Value: []byte("tcp!"), Timestamp: 1}); err != nil {
				t.Fatalf("tcp produce %d: %v", i, err)
			}
		}
		pt := r.cl.LeaderOf("t", 0).Partition("t", 0)
		if pt.Log().HighWatermark() != 20 {
			t.Fatalf("HW %d, want 20", pt.Log().HighWatermark())
		}
		data, _ := pt.Log().ReadCommitted(0, 1<<26)
		counts := map[string]int{}
		krecord.Scan(data, func(b krecord.Batch) error {
			if err := b.Validate(); err != nil {
				t.Fatal(err)
			}
			recs, _ := b.Records()
			counts[string(recs[0].Value)]++
			return nil
		})
		if counts["rdma"] != 10 || counts["tcp!"] != 10 {
			t.Fatalf("counts %v", counts)
		}
	})
}

func TestExclusiveGrantDeniedToSecondProducerAndTCP(t *testing.T) {
	r := newRig(t, 1, func(o *core.Options) { o.Config.RDMAProduce = true })
	r.cl.CreateTopic("t", 1, 1)
	r.drive(func(p *sim.Proc) {
		e1 := r.endpoint("cli-1")
		pr1, err := client.NewRDMAProducer(p, e1, "t", 0, kwire.AccessExclusive, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pr1.Produce(p, recordsOf(1, 8, 'a')...); err != nil {
			t.Fatal(err)
		}
		// A second exclusive producer is rejected.
		e2 := r.endpoint("cli-2")
		if _, err := client.NewRDMAProducer(p, e2, "t", 0, kwire.AccessExclusive, 2); err == nil {
			t.Fatal("second exclusive grant was allowed")
		}
		// And so is a TCP produce to the exclusively-granted TP.
		tp, _ := client.NewTCPProducer(p, e2, "t", 0, 1, 3)
		if _, err := tp.Produce(p, recordsOf(1, 8, 'b')...); err == nil {
			t.Fatal("TCP produce to exclusively-granted TP was allowed")
		}
	})
}

func TestExclusiveGrantRevokedOnDisconnect(t *testing.T) {
	// §4.2.2: client failure is detected via QP disconnection; the grant is
	// revoked and a new producer can acquire access.
	r := newRig(t, 1, func(o *core.Options) { o.Config.RDMAProduce = true })
	r.cl.CreateTopic("t", 1, 1)
	r.drive(func(p *sim.Proc) {
		e1 := r.endpoint("cli-1")
		pr1, err := client.NewRDMAProducer(p, e1, "t", 0, kwire.AccessExclusive, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pr1.Produce(p, recordsOf(1, 8, 'a')...); err != nil {
			t.Fatal(err)
		}
		pr1.Close() // QP disconnect
		p.Sleep(time.Millisecond)
		e2 := r.endpoint("cli-2")
		pr2, err := client.NewRDMAProducer(p, e2, "t", 0, kwire.AccessExclusive, 2)
		if err != nil {
			t.Fatalf("grant after revocation: %v", err)
		}
		if base, err := pr2.Produce(p, recordsOf(1, 8, 'b')...); err != nil || base != 1 {
			t.Fatalf("produce after regrant: base=%d err=%v", base, err)
		}
	})
}

func TestSegmentRollOnRDMAProduce(t *testing.T) {
	// The producer detects the file is full, re-requests access, and lands
	// on a fresh head file (§4.2.2 "timely request allocation of a new head
	// file").
	r := newRig(t, 1, func(o *core.Options) {
		o.Config.RDMAProduce = true
		o.Config.SegmentSize = 4096
	})
	r.cl.CreateTopic("t", 1, 1)
	r.drive(func(p *sim.Proc) {
		e := r.endpoint("cli")
		pr, err := client.NewRDMAProducer(p, e, "t", 0, kwire.AccessExclusive, 1)
		if err != nil {
			t.Fatal(err)
		}
		const n = 24
		for i := 0; i < n; i++ {
			if _, err := pr.Produce(p, recordsOf(1, 512, 'z')...); err != nil {
				t.Fatalf("produce %d: %v", i, err)
			}
		}
		pt := r.cl.LeaderOf("t", 0).Partition("t", 0)
		if pt.Log().NumSegments() < 3 {
			t.Fatalf("segments %d, expected rolls", pt.Log().NumSegments())
		}
		if pt.Log().HighWatermark() != n {
			t.Fatalf("HW %d, want %d", pt.Log().HighWatermark(), n)
		}
	})
}

// ---------------------------------------------------------------------------
// Replication datapaths
// ---------------------------------------------------------------------------

func testReplicationCommon(t *testing.T, rdmaProduce, rdmaRepl bool) {
	r := newRig(t, 3, func(o *core.Options) {
		o.Config.RDMAProduce = rdmaProduce
		o.Config.RDMAReplication = rdmaRepl
	})
	r.cl.CreateTopic("t", 1, 3)
	r.drive(func(p *sim.Proc) {
		e := r.endpoint("cli")
		var pr client.Producer
		var err error
		if rdmaProduce {
			pr, err = client.NewRDMAProducer(p, e, "t", 0, kwire.AccessExclusive, 1)
		} else {
			pr, err = client.NewTCPProducer(p, e, "t", 0, -1, 1)
		}
		if err != nil {
			t.Fatal(err)
		}
		const n = 15
		for i := 0; i < n; i++ {
			if _, err := pr.Produce(p, krecord.Record{Value: bytes.Repeat([]byte{byte(i)}, 200), Timestamp: 1}); err != nil {
				t.Fatalf("produce %d: %v", i, err)
			}
		}
		leader := r.cl.LeaderOf("t", 0)
		lpt := leader.Partition("t", 0)
		if lpt.Log().HighWatermark() != n {
			t.Fatalf("leader HW %d, want %d", lpt.Log().HighWatermark(), n)
		}
		// Give trailing replication traffic a moment to settle.
		p.Sleep(20 * time.Millisecond)
		for _, b := range r.cl.Brokers() {
			if b == leader {
				continue
			}
			fpt := b.Partition("t", 0)
			if fpt.Log().NextOffset() != n {
				t.Fatalf("follower %s LEO %d, want %d", b.ID(), fpt.Log().NextOffset(), n)
			}
			// Byte-identical logs.
			ls, fs := lpt.Log().Segment(0), fpt.Log().Segment(0)
			if !bytes.Equal(ls.Bytes()[:fs.Len()], fs.Bytes()[:fs.Len()]) || ls.Len() != fs.Len() {
				t.Fatalf("follower %s bytes differ from leader", b.ID())
			}
		}
	})
}

func TestPullReplicationTCPProducer(t *testing.T)  { testReplicationCommon(t, false, false) }
func TestPullReplicationRDMAProducer(t *testing.T) { testReplicationCommon(t, true, false) }
func TestPushReplicationTCPProducer(t *testing.T)  { testReplicationCommon(t, false, true) }
func TestPushReplicationRDMAProducer(t *testing.T) { testReplicationCommon(t, true, true) }

func TestPushReplicationAcrossSegmentRolls(t *testing.T) {
	r := newRig(t, 2, func(o *core.Options) {
		o.Config.RDMAProduce = true
		o.Config.RDMAReplication = true
		o.Config.SegmentSize = 4096
	})
	r.cl.CreateTopic("t", 1, 2)
	r.drive(func(p *sim.Proc) {
		e := r.endpoint("cli")
		pr, err := client.NewRDMAProducer(p, e, "t", 0, kwire.AccessExclusive, 1)
		if err != nil {
			t.Fatal(err)
		}
		const n = 30
		for i := 0; i < n; i++ {
			if _, err := pr.Produce(p, recordsOf(1, 512, byte('a'+i%26))...); err != nil {
				t.Fatalf("produce %d: %v", i, err)
			}
		}
		p.Sleep(50 * time.Millisecond)
		leader := r.cl.LeaderOf("t", 0)
		var follower *core.Broker
		for _, b := range r.cl.Brokers() {
			if b != leader {
				follower = b
			}
		}
		lpt, fpt := leader.Partition("t", 0), follower.Partition("t", 0)
		if fpt.Log().NextOffset() != n {
			t.Fatalf("follower LEO %d, want %d", fpt.Log().NextOffset(), n)
		}
		if lpt.Log().NumSegments() < 3 || fpt.Log().NumSegments() != lpt.Log().NumSegments() {
			t.Fatalf("segments: leader %d follower %d", lpt.Log().NumSegments(), fpt.Log().NumSegments())
		}
		for i := 0; i < lpt.Log().NumSegments(); i++ {
			ls, fs := lpt.Log().Segment(i), fpt.Log().Segment(i)
			if ls.Len() != fs.Len() || !bytes.Equal(ls.Bytes()[:ls.Len()], fs.Bytes()[:fs.Len()]) {
				t.Fatalf("segment %d differs (leader %d bytes, follower %d)", i, ls.Len(), fs.Len())
			}
		}
	})
}

func TestReplicatedProduceLatencyDoubles(t *testing.T) {
	// Fig. 14: Kafka's 3-way replicated produce costs about twice an
	// unreplicated produce.
	measure := func(replicas int) time.Duration {
		r := newRig(t, 3, nil)
		r.cl.CreateTopic("t", 1, replicas)
		var rtt time.Duration
		r.drive(func(p *sim.Proc) {
			e := r.endpoint("cli")
			pr, _ := client.NewTCPProducer(p, e, "t", 0, -1, 1)
			pr.Produce(p, recordsOf(1, 32, 'x')...)
			start := p.Now()
			const n = 10
			for i := 0; i < n; i++ {
				if _, err := pr.Produce(p, recordsOf(1, 32, 'x')...); err != nil {
					t.Fatal(err)
				}
			}
			rtt = (p.Now() - start) / n
		})
		return rtt
	}
	plain := measure(1)
	replicated := measure(3)
	ratio := float64(replicated) / float64(plain)
	if ratio < 1.5 || ratio > 3.5 {
		t.Fatalf("replicated/plain = %v/%v = %.2f, want ≈2", replicated, plain, ratio)
	}
}

// ---------------------------------------------------------------------------
// RDMA consume datapath
// ---------------------------------------------------------------------------

func TestRDMAConsumerReadsPreloadedRecords(t *testing.T) {
	r := newRig(t, 1, func(o *core.Options) { o.Config = o.Config.WithRDMA() })
	r.cl.CreateTopic("t", 1, 1)
	r.drive(func(p *sim.Proc) {
		e := r.endpoint("cli")
		pr, err := client.NewRDMAProducer(p, e, "t", 0, kwire.AccessExclusive, 1)
		if err != nil {
			t.Fatal(err)
		}
		const n = 50
		for i := 0; i < n; i++ {
			if _, err := pr.Produce(p, krecord.Record{Value: []byte(fmt.Sprintf("v-%03d", i)), Timestamp: 1}); err != nil {
				t.Fatal(err)
			}
		}
		co, err := client.NewRDMAConsumer(p, e, "t", 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		var got []krecord.Record
		for len(got) < n {
			recs, err := co.Poll(p)
			if err != nil {
				t.Fatal(err)
			}
			got = keep(got, recs)
		}
		for i, rec := range got {
			if rec.Offset != int64(i) || string(rec.Value) != fmt.Sprintf("v-%03d", i) {
				t.Fatalf("record %d: %q @%d", i, rec.Value, rec.Offset)
			}
		}
		if co.StatDataReads == 0 {
			t.Fatal("no RDMA data reads recorded")
		}
	})
}

func TestRDMAConsumeLatencyMicroseconds(t *testing.T) {
	// Fig. 18: fetching one preloaded small record takes ~4.2 µs.
	r := newRig(t, 1, func(o *core.Options) { o.Config = o.Config.WithRDMA() })
	r.cl.CreateTopic("t", 1, 1)
	r.drive(func(p *sim.Proc) {
		e := r.endpoint("cli")
		pr, _ := client.NewRDMAProducer(p, e, "t", 0, kwire.AccessExclusive, 1)
		const n = 64
		for i := 0; i < n; i++ {
			pr.Produce(p, recordsOf(1, 32, 'q')...)
		}
		co, _ := client.NewRDMAConsumer(p, e, "t", 0, 0)
		// Warm up (first poll may refresh metadata).
		warm, _ := co.Poll(p)
		start := p.Now()
		total := len(warm)
		polls := 0
		for total < n-10 {
			recs, err := co.Poll(p)
			if err != nil {
				t.Fatal(err)
			}
			total += len(recs)
			polls++
		}
		perFetch := (p.Now() - start) / time.Duration(polls)
		if perFetch > 10*us {
			t.Fatalf("RDMA fetch cost %v per poll, want single-digit µs", perFetch)
		}
	})
}

func TestRDMAConsumerDiscoversNewRecordsViaSlot(t *testing.T) {
	r := newRig(t, 1, func(o *core.Options) { o.Config = o.Config.WithRDMA() })
	r.cl.CreateTopic("t", 1, 1)
	r.drive(func(p *sim.Proc) {
		e := r.endpoint("cli")
		co, err := client.NewRDMAConsumer(p, e, "t", 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Nothing produced yet: polls refresh metadata and find nothing.
		for i := 0; i < 3; i++ {
			recs, err := co.Poll(p)
			if err != nil || len(recs) != 0 {
				t.Fatalf("poll on empty TP: %v %v", recs, err)
			}
		}
		metaBefore := co.StatMetaReads
		if metaBefore == 0 {
			t.Fatal("expected metadata reads while idle")
		}
		pr, _ := client.NewRDMAProducer(p, e, "t", 0, kwire.AccessExclusive, 1)
		if _, err := pr.Produce(p, krecord.Record{Value: []byte("fresh"), Timestamp: 1}); err != nil {
			t.Fatal(err)
		}
		var got []krecord.Record
		for len(got) == 0 {
			got, err = co.Poll(p)
			if err != nil {
				t.Fatal(err)
			}
		}
		if string(got[0].Value) != "fresh" {
			t.Fatalf("got %q", got[0].Value)
		}
	})
}

func TestRDMAConsumerHopsAcrossSealedFiles(t *testing.T) {
	r := newRig(t, 1, func(o *core.Options) {
		o.Config = o.Config.WithRDMA()
		o.Config.SegmentSize = 4096
	})
	r.cl.CreateTopic("t", 1, 1)
	r.drive(func(p *sim.Proc) {
		e := r.endpoint("cli")
		pr, _ := client.NewRDMAProducer(p, e, "t", 0, kwire.AccessExclusive, 1)
		const n = 30
		for i := 0; i < n; i++ {
			if _, err := pr.Produce(p, recordsOf(1, 512, byte('a'+i%26))...); err != nil {
				t.Fatal(err)
			}
		}
		pt := r.cl.LeaderOf("t", 0).Partition("t", 0)
		if pt.Log().NumSegments() < 3 {
			t.Fatalf("segments %d, expected rolls", pt.Log().NumSegments())
		}
		co, _ := client.NewRDMAConsumer(p, e, "t", 0, 0)
		total := 0
		for total < n {
			recs, err := co.Poll(p)
			if err != nil {
				t.Fatal(err)
			}
			total += len(recs)
		}
		if co.Position() != n {
			t.Fatalf("position %d, want %d", co.Position(), n)
		}
	})
}

func TestRDMAConsumerNeverReadsUncommitted(t *testing.T) {
	// With 2-way replication, the slot's last-readable byte trails the
	// append position until the follower acks.
	r := newRig(t, 2, func(o *core.Options) {
		o.Config.RDMAProduce = true
		o.Config.RDMAConsume = true
		// Pull replication with a long fetch wait so there is a wide window
		// where data is appended but uncommitted.
		o.Config.ReplicaFetchWait = 2 * time.Millisecond
	})
	r.cl.CreateTopic("t", 1, 2)
	r.drive(func(p *sim.Proc) {
		e := r.endpoint("cli")
		co, err := client.NewRDMAConsumer(p, e, "t", 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		pr, _ := client.NewRDMAProducer(p, e, "t", 0, kwire.AccessExclusive, 1)
		done := sim.NewQueue[struct{}]()
		r.env.Go("producer", func(pp *sim.Proc) {
			for i := 0; i < 10; i++ {
				if _, err := pr.Produce(pp, recordsOf(1, 64, 'k')...); err != nil {
					t.Errorf("produce: %v", err)
				}
			}
			done.Push(struct{}{})
		})
		pt := r.cl.LeaderOf("t", 0).Partition("t", 0)
		seen := int64(0)
		for {
			if _, ok := done.TryPop(); ok {
				break
			}
			recs, err := co.Poll(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range recs {
				if rec.Offset >= pt.Log().HighWatermark() {
					t.Fatalf("consumer saw offset %d beyond HW %d", rec.Offset, pt.Log().HighWatermark())
				}
				seen++
			}
		}
		if seen == 0 {
			t.Fatal("consumer made no progress")
		}
	})
}

func TestEmptyFetchStatistics(t *testing.T) {
	// §5.3: TCP empty fetches burn broker CPU; RDMA metadata reads do not
	// touch the broker request path at all.
	r := newRig(t, 1, func(o *core.Options) { o.Config = o.Config.WithRDMA() })
	r.cl.CreateTopic("t", 1, 1)
	r.drive(func(p *sim.Proc) {
		e := r.endpoint("cli")
		broker := r.cl.LeaderOf("t", 0)
		tc, _ := client.NewTCPConsumer(p, e, "t", 0, 0, "g")
		tc.LongPoll = false
		for i := 0; i < 10; i++ {
			if recs, err := tc.Poll(p); err != nil || len(recs) != 0 {
				t.Fatalf("poll: %v %v", recs, err)
			}
		}
		_, _, empties := broker.Stats()
		if empties != 10 {
			t.Fatalf("empty fetches %d, want 10", empties)
		}
		rc, _ := client.NewRDMAConsumer(p, e, "t", 0, 0)
		reqsBefore, _, _ := broker.Stats() // after setup: polls must add nothing
		for i := 0; i < 10; i++ {
			rc.Poll(p)
		}
		reqsAfter, _, _ := broker.Stats()
		if rc.StatMetaReads != 10 {
			t.Fatalf("meta reads %d, want 10", rc.StatMetaReads)
		}
		if reqsAfter != reqsBefore {
			t.Fatalf("RDMA polls consumed broker requests: %d -> %d", reqsBefore, reqsAfter)
		}
	})
}

// ---------------------------------------------------------------------------
// OSU Kafka baseline
// ---------------------------------------------------------------------------

func TestOSUProduceConsumeRoundTrip(t *testing.T) {
	r := newRig(t, 1, nil)
	r.cl.CreateTopic("t", 1, 1)
	r.drive(func(p *sim.Proc) {
		e := r.endpoint("cli")
		pr, err := client.NewOSUProducer(p, e, "t", 0, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if _, err := pr.Produce(p, krecord.Record{Value: []byte(fmt.Sprintf("o-%d", i)), Timestamp: 1}); err != nil {
				t.Fatal(err)
			}
		}
		co, err := client.NewOSUConsumer(p, e, "t", 0, 0, "g")
		if err != nil {
			t.Fatal(err)
		}
		var got []krecord.Record
		for len(got) < 5 {
			recs, err := co.Poll(p)
			if err != nil {
				t.Fatal(err)
			}
			got = keep(got, recs)
		}
		if string(got[4].Value) != "o-4" {
			t.Fatalf("last record %q", got[4].Value)
		}
	})
}

func TestOSULatencyBetweenKafkaAndKafkaDirect(t *testing.T) {
	// Fig. 10: OSU Kafka sits between the TCP baseline and KafkaDirect,
	// roughly 90 µs below Kafka.
	measure := func(kind string) time.Duration {
		r := newRig(t, 1, func(o *core.Options) { o.Config.RDMAProduce = true })
		r.cl.CreateTopic("t", 1, 1)
		var rtt time.Duration
		r.drive(func(p *sim.Proc) {
			e := r.endpoint("cli")
			var pr client.Producer
			var err error
			switch kind {
			case "tcp":
				pr, err = client.NewTCPProducer(p, e, "t", 0, 1, 1)
			case "osu":
				pr, err = client.NewOSUProducer(p, e, "t", 0, 1, 1)
			case "rdma":
				pr, err = client.NewRDMAProducer(p, e, "t", 0, kwire.AccessExclusive, 1)
			}
			if err != nil {
				t.Fatal(err)
			}
			pr.Produce(p, recordsOf(1, 32, 'x')...)
			start := p.Now()
			const n = 10
			for i := 0; i < n; i++ {
				pr.Produce(p, recordsOf(1, 32, 'x')...)
			}
			rtt = (p.Now() - start) / n
		})
		return rtt
	}
	tcp, osu, rdmaL := measure("tcp"), measure("osu"), measure("rdma")
	if !(rdmaL < osu && osu < tcp) {
		t.Fatalf("latency order broken: rdma=%v osu=%v tcp=%v", rdmaL, osu, tcp)
	}
	saved := tcp - osu
	if saved < 40*us || saved > 150*us {
		t.Fatalf("OSU saves %v over TCP, want ≈90µs", saved)
	}
}

// ---------------------------------------------------------------------------
// Failure handling
// ---------------------------------------------------------------------------

func TestSharedHoleTimeoutRevokesFile(t *testing.T) {
	// A producer that reserves a region and never writes it creates a hole;
	// the order timeout aborts the file and later producers recover
	// (§4.2.2 "KafkaDirect prohibits holes in the TP file").
	r := newRig(t, 1, func(o *core.Options) {
		o.Config.RDMAProduce = true
		o.Config.ProduceOrderTimeout = 500 * time.Microsecond
	})
	r.cl.CreateTopic("t", 1, 1)
	r.drive(func(p *sim.Proc) {
		e := r.endpoint("cli")
		faulty, err := client.NewRDMAProducer(p, e, "t", 0, kwire.AccessShared, 1)
		if err != nil {
			t.Fatal(err)
		}
		good, err := client.NewRDMAProducer(p, e, "t", 0, kwire.AccessShared, 2)
		if err != nil {
			t.Fatal(err)
		}
		// The faulty producer reserves order 0 but never writes.
		if err := faulty.ReserveOnly(p, 100); err != nil {
			t.Fatal(err)
		}
		// The good producer's write (order 1) parks behind the hole, times
		// out, and its produce is aborted with a revocation error.
		if _, err := good.Produce(p, recordsOf(1, 32, 'g')...); err == nil {
			t.Fatal("produce behind a hole should fail")
		}
		// Re-requesting access works and the log has no holes.
		if _, err := good.Produce(p, recordsOf(1, 32, 'g')...); err != nil {
			t.Fatalf("produce after recovery: %v", err)
		}
		pt := r.cl.LeaderOf("t", 0).Partition("t", 0)
		if pt.Log().HighWatermark() != 1 {
			t.Fatalf("HW %d, want 1", pt.Log().HighWatermark())
		}
		data, _ := pt.Log().ReadCommitted(0, 1<<20)
		batch, _, err := krecord.Parse(data)
		if err != nil || batch.Validate() != nil {
			t.Fatalf("log contains garbage: %v", err)
		}
	})
	_ = fmt.Sprint()
}

func TestCorruptRDMAWriteRejected(t *testing.T) {
	// A producer that writes garbage (fails CRC) has its grant revoked and
	// the garbage never becomes readable.
	r := newRig(t, 1, func(o *core.Options) { o.Config.RDMAProduce = true })
	r.cl.CreateTopic("t", 1, 1)
	r.drive(func(p *sim.Proc) {
		e := r.endpoint("cli")
		pr, err := client.NewRDMAProducer(p, e, "t", 0, kwire.AccessExclusive, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := pr.WriteGarbage(p, 256); err != nil {
			t.Fatal(err)
		}
		p.Sleep(time.Millisecond)
		pt := r.cl.LeaderOf("t", 0).Partition("t", 0)
		if pt.Log().HighWatermark() != 0 || pt.Log().NextOffset() != 0 {
			t.Fatalf("garbage committed: HW=%d LEO=%d", pt.Log().HighWatermark(), pt.Log().NextOffset())
		}
		// The grant is gone; a new producer can start over.
		e2 := r.endpoint("cli-2")
		pr2, err := client.NewRDMAProducer(p, e2, "t", 0, kwire.AccessExclusive, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pr2.Produce(p, recordsOf(1, 16, 'c')...); err != nil {
			t.Fatalf("produce after corruption recovery: %v", err)
		}
	})
}

func TestReleaseFileReducesRegisteredMemory(t *testing.T) {
	// §7 "Memory usage": every RDMA-readable file pins memory; consumers
	// releasing fully-read files lets the broker deregister them.
	r := newRig(t, 1, func(o *core.Options) {
		o.Config = o.Config.WithRDMA()
		o.Config.SegmentSize = 4096
	})
	r.cl.CreateTopic("t", 1, 1)
	r.drive(func(p *sim.Proc) {
		e := r.endpoint("cli")
		pr, _ := client.NewRDMAProducer(p, e, "t", 0, kwire.AccessExclusive, 1)
		const n = 30
		for i := 0; i < n; i++ {
			if _, err := pr.Produce(p, recordsOf(1, 512, 'm')...); err != nil {
				t.Fatal(err)
			}
		}
		broker := r.cl.LeaderOf("t", 0)
		co, _ := client.NewRDMAConsumer(p, e, "t", 0, 0)
		peak := uint64(0)
		count := 0
		for count < n {
			recs, err := co.Poll(p)
			if err != nil {
				t.Fatal(err)
			}
			count += len(recs)
			if b := broker.Device().RegisteredBytes(); b > peak {
				peak = b
			}
		}
		// The consumer walked several sealed files, releasing each right
		// after reading it, so the registered footprint must stay far below
		// "every segment registered".
		segs := broker.Partition("t", 0).Log().NumSegments()
		if segs < 4 {
			t.Fatalf("only %d segments; the test needs several rolls", segs)
		}
		if allRegistered := uint64(segs) * 4096; peak >= allRegistered {
			t.Fatalf("peak registration %d ~= whole log %d; releases had no effect", peak, allRegistered)
		}
		if peak > 4*4096 {
			t.Fatalf("peak registration %d exceeds a few live files", peak)
		}
	})
}

func TestPushReplicationWithOneCredit(t *testing.T) {
	// Flow control correctness: even with a single credit the pipeline must
	// make progress and never overrun the follower's receive queue.
	r := newRig(t, 2, func(o *core.Options) {
		o.Config.RDMAProduce = true
		o.Config.RDMAReplication = true
		o.Config.PushCredits = 1
	})
	r.cl.CreateTopic("t", 1, 2)
	r.drive(func(p *sim.Proc) {
		e := r.endpoint("cli")
		pr, err := client.NewRDMAProducer(p, e, "t", 0, kwire.AccessExclusive, 1)
		if err != nil {
			t.Fatal(err)
		}
		const n = 25
		for i := 0; i < n; i++ {
			if err := pr.ProduceAsync(p, recordsOf(1, 128, 'c')...); err != nil {
				t.Fatal(err)
			}
		}
		if err := pr.Drain(p); err != nil {
			t.Fatal(err)
		}
		p.Sleep(10 * time.Millisecond)
		for _, b := range r.cl.Brokers() {
			if leo := b.Partition("t", 0).Log().NextOffset(); leo != n {
				t.Fatalf("%s LEO %d, want %d", b.ID(), leo, n)
			}
		}
	})
}

func TestNonLeaderRejectsRDMAAccess(t *testing.T) {
	r := newRig(t, 2, func(o *core.Options) { o.Config = o.Config.WithRDMA() })
	r.cl.CreateTopic("t", 1, 2)
	r.drive(func(p *sim.Proc) {
		leader := r.cl.LeaderOf("t", 0)
		var follower *core.Broker
		for _, b := range r.cl.Brokers() {
			if b != leader {
				follower = b
			}
		}
		e := r.endpoint("cli")
		// Hand-roll the control exchange against the FOLLOWER: both access
		// kinds must be refused with NOT_LEADER.
		qp, sid, err := follower.ConnectProducer(e.Device())
		if err != nil {
			t.Fatal(err)
		}
		_ = qp
		tr, err := client.NewTCPTransport(p, e, follower)
		if err != nil {
			t.Fatal(err)
		}
		tr.Send(p, kwire.Encode(1, &kwire.ProduceAccessReq{Topic: "t", Partition: 0, Session: sid}))
		raw, err := tr.Recv(p)
		if err != nil {
			t.Fatal(err)
		}
		_, msg, _ := kwire.Decode(raw)
		if resp := msg.(*kwire.ProduceAccessResp); resp.Err != kwire.ErrNotLeader {
			t.Fatalf("produce access at follower: %v, want NOT_LEADER", resp.Err)
		}
		_, csid, err := follower.ConnectConsumer(e.Device())
		if err != nil {
			t.Fatal(err)
		}
		tr.Send(p, kwire.Encode(2, &kwire.ConsumeAccessReq{Topic: "t", Partition: 0, Session: csid}))
		raw, err = tr.Recv(p)
		if err != nil {
			t.Fatal(err)
		}
		_, msg, _ = kwire.Decode(raw)
		if resp := msg.(*kwire.ConsumeAccessResp); resp.Err != kwire.ErrNotLeader {
			t.Fatalf("consume access at follower: %v, want NOT_LEADER", resp.Err)
		}
	})
}

func TestSlotReuseAfterRelease(t *testing.T) {
	// §4.4.2: the broker keeps assigned slots in close proximity — released
	// slot indices are reused by later grants.
	r := newRig(t, 1, func(o *core.Options) {
		o.Config = o.Config.WithRDMA()
		o.Config.SegmentSize = 4096
	})
	r.cl.CreateTopic("t", 1, 1)
	r.drive(func(p *sim.Proc) {
		e := r.endpoint("cli")
		pr, _ := client.NewRDMAProducer(p, e, "t", 0, kwire.AccessExclusive, 1)
		co, err := client.NewRDMAConsumer(p, e, "t", 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Drive the consumer across many head files; each hop releases the
		// old slot before taking the next, so the index must stay small.
		total := 0
		const n = 40
		done := sim.NewQueue[struct{}]()
		r.env.Go("producer", func(pp *sim.Proc) {
			for i := 0; i < n; i++ {
				if _, err := pr.Produce(pp, recordsOf(1, 512, 'q')...); err != nil {
					t.Errorf("produce: %v", err)
					break
				}
			}
			done.Push(struct{}{})
		})
		for total < n {
			recs, err := co.Poll(p)
			if err != nil {
				t.Fatal(err)
			}
			total += len(recs)
		}
		done.Pop(p)
		pt := r.cl.LeaderOf("t", 0).Partition("t", 0)
		if pt.Log().NumSegments() < 4 {
			t.Fatalf("only %d segments", pt.Log().NumSegments())
		}
	})
}
