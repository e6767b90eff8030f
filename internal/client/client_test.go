package client_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"kafkadirect/internal/client"
	"kafkadirect/internal/core"
	"kafkadirect/internal/krecord"
	"kafkadirect/internal/kwire"
	"kafkadirect/internal/rdma"
	"kafkadirect/internal/sim"
)

type rig struct {
	t   *testing.T
	env *sim.Env
	cl  *core.Cluster
}

func newRig(t *testing.T, brokers int) *rig {
	t.Helper()
	env := sim.NewEnv(3)
	opts := core.DefaultOptions()
	opts.Config.SegmentSize = 1 << 20
	opts.Config = opts.Config.WithRDMA()
	cl := core.NewCluster(env, opts)
	cl.AddBrokers(brokers)
	return &rig{t: t, env: env, cl: cl}
}

func (r *rig) drive(fn func(p *sim.Proc)) {
	r.t.Helper()
	done := false
	r.env.Go("driver", func(p *sim.Proc) {
		fn(p)
		done = true
		r.env.Stop()
	})
	r.env.RunUntil(60 * time.Second)
	if !done {
		r.t.Fatal("driver did not finish")
	}
}

func (r *rig) endpoint(name string) *client.Endpoint {
	return client.NewEndpoint(r.cl, name, client.DefaultConfig())
}

func rec(s string) krecord.Record {
	return krecord.Record{Value: []byte(s), Timestamp: 1}
}

func TestUnknownTopicFailsCleanly(t *testing.T) {
	r := newRig(t, 1)
	r.drive(func(p *sim.Proc) {
		if _, err := client.NewTCPProducer(p, r.endpoint("c"), "nope", 0, 1, 1); err == nil {
			t.Fatal("producer for unknown topic should fail")
		}
		if _, err := client.NewRDMAConsumer(p, r.endpoint("c2"), "nope", 0, 0); err == nil {
			t.Fatal("consumer for unknown topic should fail")
		}
	})
}

// TestProducerContract holds every datapath to the one producer contract —
// they share one pipeline, so each row must pass on all four links.
func TestProducerContract(t *testing.T) {
	const window = 4
	logValues := func(p *sim.Proc, r *rig) []string {
		co, err := client.NewTCPConsumer(p, r.endpoint("verify"), "t", 0, 0, "g")
		if err != nil {
			t.Fatal(err)
		}
		co.LongPoll = false
		var vals []string
		for {
			recs, err := co.Poll(p)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) == 0 {
				return vals
			}
			for _, rc := range recs {
				vals = append(vals, string(rc.Value))
			}
		}
	}
	rows := []struct {
		name string
		run  func(t *testing.T, r *rig, p *sim.Proc, pr client.Producer)
	}{
		{"Produce after ProduceAsync is rejected", func(t *testing.T, r *rig, p *sim.Proc, pr client.Producer) {
			if err := pr.ProduceAsync(p, rec("a")); err != nil {
				t.Fatal(err)
			}
			if _, err := pr.Produce(p, rec("b")); err == nil {
				t.Fatal("mixing modes should fail")
			}
			if err := pr.Drain(p); err != nil {
				t.Fatal(err)
			}
		}},
		{"ProduceAsync after Produce is rejected", func(t *testing.T, r *rig, p *sim.Proc, pr client.Producer) {
			if _, err := pr.Produce(p, rec("a")); err != nil {
				t.Fatal(err)
			}
			if err := pr.ProduceAsync(p, rec("b")); err == nil {
				t.Fatal("mixing modes should fail")
			}
		}},
		{"closed producer refuses both modes", func(t *testing.T, r *rig, p *sim.Proc, pr client.Producer) {
			pr.Close()
			pr.Close() // idempotent
			if _, err := pr.Produce(p, rec("x")); err != client.ErrProducerClosed {
				t.Fatalf("Produce err = %v", err)
			}
			if err := pr.ProduceAsync(p, rec("x")); err != client.ErrProducerClosed {
				t.Fatalf("ProduceAsync err = %v", err)
			}
		}},
		{"async window is bounded", func(t *testing.T, r *rig, p *sim.Proc, pr client.Producer) {
			// At most `window` batches are unacknowledged when ProduceAsync
			// returns, and a batch is acknowledged only once committed.
			log := r.cl.LeaderOf("t", 0).Partition("t", 0).Log()
			for i := 1; i <= 64; i++ {
				if err := pr.ProduceAsync(p, rec(fmt.Sprintf("m%d", i))); err != nil {
					t.Fatal(err)
				}
				if hw := log.HighWatermark(); hw < int64(i-window) {
					t.Fatalf("after %d async produces only %d are committed: window of %d exceeded", i, hw, window)
				}
			}
			if err := pr.Drain(p); err != nil {
				t.Fatal(err)
			}
			if hw := log.HighWatermark(); hw != 64 {
				t.Fatalf("HW %d, want 64", hw)
			}
		}},
		{"Drain surfaces the first async error", func(t *testing.T, r *rig, p *sim.Proc, pr client.Producer) {
			for i := 0; i < 3; i++ {
				if err := pr.ProduceAsync(p, rec("a")); err != nil {
					t.Fatal(err)
				}
			}
			injectFault(r) // the last batch cannot have been acknowledged yet
			first := pr.Drain(p)
			if first == nil {
				t.Fatal("Drain returned nil after the link died under unacknowledged batches")
			}
			if again := pr.Drain(p); again != first {
				t.Fatalf("second Drain = %v, want the first error %v", again, first)
			}
			if err := pr.ProduceAsync(p, rec("b")); err != first {
				t.Fatalf("ProduceAsync after failure = %v, want the first error %v", err, first)
			}
		}},
		{"a retry after a QP / connection failure re-sends the same batch", func(t *testing.T, r *rig, p *sim.Proc, pr client.Producer) {
			for _, v := range []string{"m0", "m1"} {
				if _, err := pr.Produce(p, rec(v)); err != nil {
					t.Fatal(err)
				}
			}
			// Lose every connection while m2 is in flight: its submission or
			// its acknowledgement is lost, and the retry loop must send m2 —
			// not a stale or half-rebuilt buffer — again.
			r.env.After(5*time.Microsecond, func() { injectFault(r) })
			start := p.Now()
			off, err := pr.Produce(p, rec("m2"))
			if err != nil {
				t.Fatalf("produce across the fault: %v", err)
			}
			if p.Now()-start < client.DefaultConfig().RetryBackoff {
				t.Fatal("the fault missed the produce: no backoff step was taken")
			}
			if _, err := pr.Produce(p, rec("m3")); err != nil {
				t.Fatal(err)
			}
			vals := logValues(p, r)
			if off < 2 || int(off) >= len(vals) || vals[off] != "m2" {
				t.Fatalf("offset %d returned for m2, log holds %q", off, vals)
			}
			// At-least-once: m2 may appear twice, nothing else may.
			want := []string{"m0", "m1", "m2", "m3"}
			wi := 0
			for _, v := range vals {
				if wi < len(want) && v == want[wi] {
					wi++
				} else if v != "m2" || wi != 3 {
					t.Fatalf("log holds %q", vals)
				}
			}
			if wi != len(want) {
				t.Fatalf("log holds %q", vals)
			}
		}},
	}
	for _, stack := range producerStacks {
		for _, row := range rows {
			stack, row := stack, row
			t.Run(stack+"/"+row.name, func(t *testing.T) {
				r := newRig(t, 1)
				r.cl.CreateTopic("t", 1, 1)
				cfg := client.DefaultConfig()
				cfg.MaxInFlight, cfg.RPCMaxInFlight = window, window
				r.drive(func(p *sim.Proc) {
					pr, err := newProducer(p, client.NewEndpoint(r.cl, "c", cfg), stack)
					if err != nil {
						t.Fatal(err)
					}
					row.run(t, r, p, pr)
				})
			})
		}
	}
}

// liveQPs counts the device's connected queue pairs.
func liveQPs(dev *rdma.Device) int {
	n := 0
	for _, qp := range dev.QPs() {
		if qp.State() == rdma.QPReady {
			n++
		}
	}
	return n
}

// TestRefusedAccessReleasesTheSession: a constructor whose access request is
// refused must disconnect the QP it connected — otherwise the broker keeps
// the session (and its slot region or grant bookkeeping) until a QP event
// that never comes.
func TestRefusedAccessReleasesTheSession(t *testing.T) {
	r := newRig(t, 1)
	r.cl.CreateTopic("t", 1, 1)
	r.drive(func(p *sim.Proc) {
		owner, err := client.NewRDMAProducer(p, r.endpoint("owner"), "t", 0, kwire.AccessExclusive, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer owner.Close()
		dev := r.cl.LeaderOf("t", 0).Device()
		before := liveQPs(dev)

		// "The broker never grants exclusive access to the same file to two
		// producers" (§4.2.2).
		e := r.endpoint("second")
		if _, err := client.NewRDMAProducer(p, e, "t", 0, kwire.AccessExclusive, 2); err == nil {
			t.Fatal("second exclusive producer should be refused")
		}
		if got := liveQPs(dev); got != before {
			t.Fatalf("refused producer left %d live broker QPs, want %d", got, before)
		}
		// Nothing is stored at offset 1000.
		if _, err := client.NewRDMAConsumer(p, e, "t", 0, 1000); err == nil {
			t.Fatal("consumer at an out-of-range offset should be refused")
		}
		if got := liveQPs(dev); got != before {
			t.Fatalf("refused consumer left %d live broker QPs, want %d", got, before)
		}
		if got := liveQPs(e.Device()); got != 0 {
			t.Fatalf("refused constructors left %d live client QPs", got)
		}
	})
}

func TestRDMAProducerGrantTracksWritePos(t *testing.T) {
	r := newRig(t, 1)
	r.cl.CreateTopic("t", 1, 1)
	r.drive(func(p *sim.Proc) {
		pr, err := client.NewRDMAProducer(p, r.endpoint("c"), "t", 0, kwire.AccessExclusive, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, pos0, length := pr.Grant()
		if pos0 != 0 || length != 1<<20 {
			t.Fatalf("initial grant pos=%d len=%d", pos0, length)
		}
		if _, err := pr.Produce(p, rec("abc")); err != nil {
			t.Fatal(err)
		}
		_, pos1, _ := pr.Grant()
		if pos1 <= pos0 {
			t.Fatalf("write position did not advance: %d", pos1)
		}
	})
}

func TestConsumerPipelineDeliversSameRecords(t *testing.T) {
	// Pipelined reads (§7) are a bandwidth optimisation; record content and
	// ordering must be identical to depth-1 reads.
	r := newRig(t, 1)
	r.cl.CreateTopic("t", 1, 1)
	r.drive(func(p *sim.Proc) {
		pr, _ := client.NewRDMAProducer(p, r.endpoint("pr"), "t", 0, kwire.AccessExclusive, 1)
		const n = 200
		for i := 0; i < n; i++ {
			if err := pr.ProduceAsync(p, rec(fmt.Sprintf("payload-%04d", i))); err != nil {
				t.Fatal(err)
			}
		}
		pr.Drain(p)

		read := func(depth int) []string {
			co, err := client.NewRDMAConsumer(p, r.endpoint(fmt.Sprintf("co-%d", depth)), "t", 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			co.Pipeline = depth
			var vals []string
			for len(vals) < n {
				recs, err := co.Poll(p)
				if err != nil {
					t.Fatal(err)
				}
				for _, rr := range recs {
					vals = append(vals, string(rr.Value))
				}
			}
			return vals
		}
		plain := read(1)
		deep := read(8)
		for i := range plain {
			if plain[i] != deep[i] {
				t.Fatalf("pipelined read diverges at %d: %q vs %q", i, plain[i], deep[i])
			}
		}
	})
}

func TestConsumerPositionAdvances(t *testing.T) {
	r := newRig(t, 1)
	r.cl.CreateTopic("t", 1, 1)
	r.drive(func(p *sim.Proc) {
		pr, _ := client.NewRDMAProducer(p, r.endpoint("pr"), "t", 0, kwire.AccessExclusive, 1)
		for i := 0; i < 10; i++ {
			pr.Produce(p, rec("x"))
		}
		co, _ := client.NewRDMAConsumer(p, r.endpoint("co"), "t", 0, 4)
		var got []krecord.Record
		for len(got) < 6 {
			recs, err := co.Poll(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, rc := range recs {
				rc.Value = bytes.Clone(rc.Value) // kept past the next Poll
				got = append(got, rc)
			}
		}
		if got[0].Offset != 4 {
			t.Fatalf("first delivered offset %d, want 4", got[0].Offset)
		}
		if co.Position() != 10 {
			t.Fatalf("position %d, want 10", co.Position())
		}
	})
}

func TestOSUTransportCarriesLargeBatches(t *testing.T) {
	r := newRig(t, 1)
	r.cl.CreateTopic("t", 1, 1)
	r.drive(func(p *sim.Proc) {
		pr, err := client.NewOSUProducer(p, r.endpoint("c"), "t", 0, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		big := bytes.Repeat([]byte("z"), 512<<10)
		if _, err := pr.Produce(p, krecord.Record{Value: big, Timestamp: 1}); err != nil {
			t.Fatal(err)
		}
		co, err := client.NewOSUConsumer(p, r.endpoint("c2"), "t", 0, 0, "g")
		if err != nil {
			t.Fatal(err)
		}
		var recs []krecord.Record
		for len(recs) == 0 {
			recs, err = co.Poll(p)
			if err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(recs[0].Value, big) {
			t.Fatal("payload corrupted over OSU transport")
		}
	})
}

func TestOffsetCommitFetchRoundTrip(t *testing.T) {
	r := newRig(t, 1)
	r.cl.CreateTopic("t", 1, 1)
	r.drive(func(p *sim.Proc) {
		pr, _ := client.NewTCPProducer(p, r.endpoint("pr"), "t", 0, 1, 1)
		for i := 0; i < 5; i++ {
			pr.Produce(p, rec("x"))
		}
		co, _ := client.NewTCPConsumer(p, r.endpoint("co"), "t", 0, 0, "team")
		for co.Position() < 5 {
			if _, err := co.Poll(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := co.CommitOffset(p); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSharedProducerOverflowRollsToNewFile(t *testing.T) {
	r := newRig(t, 1)
	r.env = sim.NewEnv(3) // fresh env with small segments below
	opts := core.DefaultOptions()
	opts.Config = opts.Config.WithRDMA()
	opts.Config.SegmentSize = 2048
	r.cl = core.NewCluster(r.env, opts)
	r.cl.AddBrokers(1)
	r.cl.CreateTopic("t", 1, 1)
	r.drive(func(p *sim.Proc) {
		pr, err := client.NewRDMAProducer(p, r.endpoint("c"), "t", 0, kwire.AccessShared, 1)
		if err != nil {
			t.Fatal(err)
		}
		const n = 30
		for i := 0; i < n; i++ {
			if _, err := pr.Produce(p, krecord.Record{Value: bytes.Repeat([]byte("s"), 256), Timestamp: 1}); err != nil {
				t.Fatalf("produce %d: %v", i, err)
			}
		}
		pt := r.cl.LeaderOf("t", 0).Partition("t", 0)
		if pt.Log().HighWatermark() != n {
			t.Fatalf("HW %d, want %d", pt.Log().HighWatermark(), n)
		}
		if pt.Log().NumSegments() < 3 {
			t.Fatalf("segments %d, expected overflow-driven rolls", pt.Log().NumSegments())
		}
	})
}

func TestWriteSendNotificationProduces(t *testing.T) {
	// §4.2.2's alternative notification method must commit records exactly
	// like WriteWithImm, in both access modes.
	for _, mode := range []kwire.AccessMode{kwire.AccessExclusive, kwire.AccessShared} {
		r := newRig(t, 1)
		r.cl.CreateTopic("t", 1, 1)
		r.drive(func(p *sim.Proc) {
			pr, err := client.NewRDMAProducer(p, r.endpoint("c"), "t", 0, mode, 1)
			if err != nil {
				t.Fatal(err)
			}
			pr.Notify = client.NotifyWriteSend
			pr.MetaSize = 128
			for i := 0; i < 12; i++ {
				base, err := pr.Produce(p, rec(fmt.Sprintf("ws-%d", i)))
				if err != nil {
					t.Fatalf("%v produce %d: %v", mode, i, err)
				}
				if base != int64(i) {
					t.Fatalf("%v offset %d, want %d", mode, base, i)
				}
			}
			pt := r.cl.LeaderOf("t", 0).Partition("t", 0)
			if pt.Log().HighWatermark() != 12 {
				t.Fatalf("%v HW %d", mode, pt.Log().HighWatermark())
			}
		})
	}
}

func TestWriteSendSlightlySlowerThanWriteImm(t *testing.T) {
	// Fig. 7 in-system: the two-WR notification costs a little extra latency.
	measure := func(notify client.NotifyMode) time.Duration {
		r := newRig(t, 1)
		r.cl.CreateTopic("t", 1, 1)
		var lat time.Duration
		r.drive(func(p *sim.Proc) {
			pr, _ := client.NewRDMAProducer(p, r.endpoint("c"), "t", 0, kwire.AccessExclusive, 1)
			pr.Notify = notify
			pr.Produce(p, rec("warm"))
			start := p.Now()
			const n = 20
			for i := 0; i < n; i++ {
				if _, err := pr.Produce(p, rec("x")); err != nil {
					t.Fatal(err)
				}
			}
			lat = (p.Now() - start) / n
		})
		return lat
	}
	imm := measure(client.NotifyWriteImm)
	ws := measure(client.NotifyWriteSend)
	if ws <= imm {
		t.Fatalf("Write+Send %v should cost more than WriteWithImm %v", ws, imm)
	}
	if ws-imm > 5*time.Microsecond {
		t.Fatalf("Write+Send penalty %v implausibly large", ws-imm)
	}
}
