package fabric

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"kafkadirect/internal/bufpool"
	"kafkadirect/internal/obs"
	"kafkadirect/internal/sim"
)

func testNet(t *testing.T) (*sim.Env, *Network) {
	t.Helper()
	env := sim.NewEnv(1)
	return env, New(env, DefaultConfig())
}

func TestSmallMessageLatencyNearPropDelay(t *testing.T) {
	env, net := testNet(t)
	a, b := net.NewNode("a"), net.NewNode("b")
	var arrived time.Duration
	net.Deliver(a, b, 16, func() { arrived = env.Now() })
	env.Run()
	// 64 B min frame at 6 GiB/s ≈ 10 ns serialisation; latency should be
	// dominated by the 600 ns propagation delay.
	if arrived < 600*time.Nanosecond || arrived > 700*time.Nanosecond {
		t.Fatalf("small message arrived at %v, want ~0.6µs", arrived)
	}
}

func TestLargeTransferAchievesLinkBandwidth(t *testing.T) {
	env, net := testNet(t)
	a, b := net.NewNode("a"), net.NewNode("b")
	const msg = 1 << 20 // 1 MiB
	const count = 64
	var last time.Duration
	for i := 0; i < count; i++ {
		net.Deliver(a, b, msg, func() { last = env.Now() })
	}
	env.Run()
	gput := float64(msg*count) / last.Seconds() // bytes/sec
	link := DefaultConfig().Bandwidth
	if gput < 0.95*link || gput > 1.01*link {
		t.Fatalf("goodput %.2f GiB/s, want ≈ %.2f GiB/s", gput/(1<<30), link/(1<<30))
	}
}

func TestPerFlowInOrderDelivery(t *testing.T) {
	env, net := testNet(t)
	a, b := net.NewNode("a"), net.NewNode("b")
	var got []int
	for i := 0; i < 50; i++ {
		i := i
		size := 100 + (i%7)*1000 // mixed sizes must still arrive in order
		net.Deliver(a, b, size, func() { got = append(got, i) })
	}
	env.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("delivery order %v", got)
		}
	}
	if len(got) != 50 {
		t.Fatalf("delivered %d of 50", len(got))
	}
}

func TestIncastSharesReceiverPort(t *testing.T) {
	env, net := testNet(t)
	dst := net.NewNode("dst")
	const senders = 4
	const msg = 1 << 20
	var last time.Duration
	for s := 0; s < senders; s++ {
		src := net.NewNode(string(rune('a' + s)))
		for i := 0; i < 8; i++ {
			net.Deliver(src, dst, msg, func() { last = env.Now() })
		}
	}
	env.Run()
	total := float64(senders * 8 * msg)
	gput := total / last.Seconds()
	link := DefaultConfig().Bandwidth
	// Aggregate delivery into one node cannot exceed the ingress port rate.
	if gput > 1.02*link {
		t.Fatalf("incast goodput %.2f GiB/s exceeds link %.2f GiB/s", gput/(1<<30), link/(1<<30))
	}
	if gput < 0.9*link {
		t.Fatalf("incast goodput %.2f GiB/s underutilises link", gput/(1<<30))
	}
}

func TestDisjointPairsDoNotContend(t *testing.T) {
	env, net := testNet(t)
	a, b := net.NewNode("a"), net.NewNode("b")
	c, d := net.NewNode("c"), net.NewNode("d")
	const msg = 8 << 20
	var tAB, tCD time.Duration
	net.Deliver(a, b, msg, func() { tAB = env.Now() })
	net.Deliver(c, d, msg, func() { tCD = env.Now() })
	env.Run()
	if tAB != tCD {
		t.Fatalf("disjoint flows finished at %v and %v, want equal", tAB, tCD)
	}
}

func TestLoopbackIsImmediate(t *testing.T) {
	env, net := testNet(t)
	a := net.NewNode("a")
	var arrived time.Duration = -1
	env.Go("driver", func(p *sim.Proc) {
		p.Sleep(5 * time.Microsecond)
		net.Deliver(a, a, 1<<20, func() { arrived = env.Now() })
	})
	env.Run()
	if arrived != 5*time.Microsecond {
		t.Fatalf("loopback arrived at %v, want 5µs", arrived)
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	_, net := testNet(t)
	net.NewNode("x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate node name")
		}
	}()
	net.NewNode("x")
}

func TestTrafficCounters(t *testing.T) {
	env, net := testNet(t)
	o := obs.New(0)
	net.SetObs(o)
	a, b := net.NewNode("a"), net.NewNode("b")
	net.Deliver(a, b, 1000, func() {})
	net.Deliver(a, b, 2000, func() {})
	env.Run()
	if msgs, bytes := o.Counter("fabric/msgs").Value(), o.Counter("fabric/bytes").Value(); msgs != 2 || bytes != 3000 {
		t.Fatalf("msgs=%d bytes=%d, want 2/3000", msgs, bytes)
	}
}

func TestLookup(t *testing.T) {
	_, net := testNet(t)
	a := net.NewNode("a")
	if net.Lookup("a") != a || net.Lookup("nope") != nil {
		t.Fatal("Lookup misbehaves")
	}
}

// Property: per-flow FIFO holds for any random interleaving of message sizes
// across several flows sharing the fabric.
func TestPropertyPerFlowOrderUnderContention(t *testing.T) {
	property := func(seed int64) bool {
		env := sim.NewEnv(seed)
		net := New(env, DefaultConfig())
		rng := rand.New(rand.NewSource(seed))
		dst := net.NewNode("dst")
		const flows = 4
		const msgs = 25
		arrivals := make([][]int, flows)
		for f := 0; f < flows; f++ {
			f := f
			src := net.NewNode(string(rune('a' + f)))
			for i := 0; i < msgs; i++ {
				i := i
				size := 1 + rng.Intn(64<<10)
				net.Deliver(src, dst, size, func() {
					arrivals[f] = append(arrivals[f], i)
				})
			}
		}
		env.Run()
		for f := 0; f < flows; f++ {
			if len(arrivals[f]) != msgs {
				return false
			}
			for i, v := range arrivals[f] {
				if v != i {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Release is the one teardown of everything on the fabric: the registered
// hooks run once, in registration order, and the wire free list's large
// buffers go back to the process-wide pool.
func TestReleaseRunsHooksOnceAndReturnsLargeWireBuffers(t *testing.T) {
	n := New(sim.NewEnv(1), DefaultConfig())
	var order []int
	n.OnRelease(func() { order = append(order, 1) })
	n.OnRelease(func() { order = append(order, 2) })
	frame := n.WireBufs().Get(200 << 10) // 256 KiB class
	frame[0] = 0xff
	base := &frame[0]
	n.WireBufs().Put(frame)
	n.Release()
	n.Release()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("hooks ran as %v, want [1 2]", order)
	}
	back := bufpool.Get(256 << 10)
	if &back[0] != base {
		t.Fatal("the 256 KiB wire buffer did not reach the process-wide pool")
	}
	if back[0] != 0 {
		t.Fatal("a released wire buffer came back dirty")
	}
	bufpool.Put(back, 0)
}
