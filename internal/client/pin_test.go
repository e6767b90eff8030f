package client_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"kafkadirect/internal/client"
	"kafkadirect/internal/core"
	"kafkadirect/internal/krecord"
	"kafkadirect/internal/kwire"
	"kafkadirect/internal/sim"
)

// The tables below pin the SIMULATED behaviour of every client stack: the
// virtual time at which a fixed scenario ends and the number of kernel events
// it executed. They were generated on commit 7265d48 — the last one with two
// producer state machines and two one-sided fetch loops — and must never
// change: a client refactor that moves either number has reordered, added or
// dropped a Sleep, Send, PostSend, Poll, Wait or Go somewhere. The failure
// message prints the regenerated row.

type pin struct {
	name     string
	now      time.Duration
	executed uint64
}

var producerPins = []pin{
	{"kafka/sync/64", 52342020, 3222},
	{"kafka/sync/4096", 54069820, 3222},
	{"kafka/async/64", 8067872, 3063},
	{"kafka/async/4096", 8416436, 3063},
	{"kafka/sync-fault/64", 53391240, 3231},
	{"osu/sync/64", 34714600, 4216},
	{"osu/sync/4096", 36292400, 4216},
	{"osu/async/64", 4531532, 4218},
	{"osu/async/4096", 4870132, 4221},
	{"osu/sync-fault/64", 35826623, 4285},
	{"kd_excl/sync/64", 17417673, 3236},
	{"kd_excl/sync/4096", 18493232, 3278},
	{"kd_excl/async/64", 1255966, 3211},
	{"kd_excl/async/4096", 1802358, 3134},
	{"kd_excl/sync-fault/64", 18750146, 3518},
	{"kd_shared/sync/64", 17799873, 4236},
	{"kd_shared/sync/4096", 18881165, 4293},
	{"kd_shared/async/64", 1257877, 4116},
	{"kd_shared/async/4096", 1810002, 4251},
	{"kd_shared/sync-fault/64", 19132346, 4518},
}

var consumerPins = []pin{
	{"tcp", 54501208, 359},
	{"tcp/fault", 55550428, 369},
	{"osu", 52607716, 463},
	{"osu/fault", 53719722, 533},
	{"rdma_p1", 1685471, 1233},
	{"rdma_p1/fault", 3021181, 1265},
	{"rdma_p8", 1253787, 957},
	{"rdma_p8/fault", 2589496, 989},
}

func pinRig(t *testing.T, segment int) *rig {
	t.Helper()
	env := sim.NewEnv(7)
	opts := core.DefaultOptions()
	opts.Config.SegmentSize = segment
	opts.Config = opts.Config.WithRDMA()
	cl := core.NewCluster(env, opts)
	cl.AddBrokers(1)
	if err := cl.CreateTopic("t", 1, 1); err != nil {
		t.Fatal(err)
	}
	return &rig{t: t, env: env, cl: cl}
}

// injectFault kills every RDMA QP and TCP connection at the broker, the way
// the chaos injector's QP-error and TCP-reset faults do.
func injectFault(r *rig) {
	b := r.cl.LeaderOf("t", 0)
	b.Device().FailAllQPs("pin test")
	b.Host().ResetConns()
}

func newProducer(p *sim.Proc, e *client.Endpoint, stack string) (client.Producer, error) {
	switch stack {
	case "kafka":
		return client.NewTCPProducer(p, e, "t", 0, 1, 1)
	case "osu":
		return client.NewOSUProducer(p, e, "t", 0, 1, 1)
	case "kd_excl":
		return client.NewRDMAProducer(p, e, "t", 0, kwire.AccessExclusive, 1)
	case "kd_shared":
		return client.NewRDMAProducer(p, e, "t", 0, kwire.AccessShared, 1)
	}
	return nil, fmt.Errorf("unknown stack %q", stack)
}

var producerStacks = []string{"kafka", "osu", "kd_excl", "kd_shared"}

// findPin returns the committed row for a scenario; a scenario without one
// fails against zeros, which prints the row to add.
func findPin(pins []pin, name string) pin {
	for _, pn := range pins {
		if pn.name == name {
			return pn
		}
	}
	return pin{name: name}
}

func checkPin(t *testing.T, want pin, now time.Duration, executed uint64) {
	t.Helper()
	if now != want.now || executed != want.executed {
		t.Errorf("simulated behaviour moved:\n got  {%q, %d, %d},\n want {%q, %d, %d},",
			want.name, now, executed, want.name, want.now, want.executed)
	}
}

// TestProducerSimulatedBehaviourPinned produces 200 records on each of the
// four datapaths, synchronously and pipelined, at 64 B and at 4 KiB (which
// rolls the 256 KiB head file three times, so the access re-request path is
// covered), plus a synchronous run that loses every connection after record
// 100 and recovers through the retry loop.
func TestProducerSimulatedBehaviourPinned(t *testing.T) {
	const n = 200
	type scenario struct {
		mode  string
		size  int
		fault bool
	}
	scenarios := []scenario{
		{"sync", 64, false}, {"sync", 4096, false},
		{"async", 64, false}, {"async", 4096, false},
		{"sync-fault", 64, true},
	}
	for _, stack := range producerStacks {
		for _, sc := range scenarios {
			stack, sc := stack, sc
			name := fmt.Sprintf("%s/%s/%d", stack, sc.mode, sc.size)
			want := findPin(producerPins, name)
			t.Run(name, func(t *testing.T) {
				r := pinRig(t, 256<<10)
				var now time.Duration
				var executed uint64
				r.drive(func(p *sim.Proc) {
					pr, err := newProducer(p, r.endpoint("c"), stack)
					if err != nil {
						t.Fatal(err)
					}
					val := []byte(strings.Repeat("v", sc.size))
					for k := 0; k < n; k++ {
						if sc.fault && k == n/2 {
							injectFault(r)
						}
						rc := krecord.Record{Value: val, Timestamp: int64(k)}
						if sc.mode == "async" {
							err = pr.ProduceAsync(p, rc)
						} else {
							_, err = pr.Produce(p, rc)
						}
						if err != nil {
							t.Fatalf("record %d: %v", k, err)
						}
					}
					if err := pr.Drain(p); err != nil {
						t.Fatal(err)
					}
					now, executed = p.Now(), r.env.Executed()
					if hw := r.cl.LeaderOf("t", 0).Partition("t", 0).Log().HighWatermark(); hw < n {
						t.Fatalf("HW %d, want >= %d", hw, n)
					}
				})
				checkPin(t, want, now, executed)
			})
		}
	}
}

// TestConsumerSimulatedBehaviourPinned drains a preloaded partition that
// spans two segment rolls and then polls ten more times on the idle
// partition; the fault variants lose every connection after the fifth poll.
// Time and events are counted from just before the consumer is constructed.
func TestConsumerSimulatedBehaviourPinned(t *testing.T) {
	const n = 300
	stacks := []string{"tcp", "osu", "rdma_p1", "rdma_p8"}
	for _, stack := range stacks {
		for _, fault := range []bool{false, true} {
			stack, fault := stack, fault
			name := stack
			if fault {
				name += "/fault"
			}
			want := findPin(consumerPins, name)
			t.Run(name, func(t *testing.T) {
				r := pinRig(t, 128<<10)
				var now time.Duration
				var executed uint64
				r.drive(func(p *sim.Proc) {
					pr, err := client.NewTCPProducer(p, r.endpoint("pr"), "t", 0, 1, 1)
					if err != nil {
						t.Fatal(err)
					}
					val := []byte(strings.Repeat("v", 1024))
					for k := 0; k < n; k++ {
						if _, err := pr.Produce(p, krecord.Record{Value: val, Timestamp: int64(k)}); err != nil {
							t.Fatal(err)
						}
					}
					if segs := r.cl.LeaderOf("t", 0).Partition("t", 0).Log().NumSegments(); segs < 3 {
						t.Fatalf("%d segments, want the preload to span rolls", segs)
					}
					t0, e0 := p.Now(), r.env.Executed()
					var co client.Consumer
					e := r.endpoint("co")
					switch stack {
					case "tcp", "osu":
						dial := client.NewTCPConsumer
						if stack == "osu" {
							dial = client.NewOSUConsumer
						}
						var rc *client.RPCConsumer
						rc, err = dial(p, e, "t", 0, 0, "g")
						if err == nil {
							// ~10 fetches to drain, so the fault lands mid-stream.
							rc.MaxBytesOverride = 32 << 10
							co = rc
						}
					default:
						var rc *client.RDMAConsumer
						rc, err = client.NewRDMAConsumer(p, e, "t", 0, 0)
						if err == nil {
							rc.Pipeline = 1
							if stack == "rdma_p8" {
								rc.Pipeline = 8
							}
							co = rc
						}
					}
					if err != nil {
						t.Fatal(err)
					}
					polls, got := 0, 0
					poll := func() {
						if fault && polls == 5 {
							injectFault(r)
						}
						polls++
						recs, err := co.Poll(p)
						if err != nil {
							t.Fatalf("poll %d: %v", polls, err)
						}
						for _, rc := range recs {
							if rc.Offset != int64(got) {
								t.Fatalf("poll %d: offset %d, want %d", polls, rc.Offset, got)
							}
							got++
						}
					}
					for co.Position() < n {
						poll()
					}
					for k := 0; k < 10; k++ {
						poll()
					}
					if got != n {
						t.Fatalf("delivered %d records, want %d", got, n)
					}
					now, executed = p.Now()-t0, r.env.Executed()-e0
				})
				checkPin(t, want, now, executed)
			})
		}
	}
}
