package tcpnet

import (
	"runtime"
	"testing"

	"kafkadirect/internal/fabric"
	"kafkadirect/internal/sim"
)

// TestSteadyStateSendAllocs pins the allocation cost of the modeled TCP send
// path. Once the wire-buffer free list, the stack's transit records and the
// simulator's internal slices are warm, Conn.Send allocates nothing: the
// propagation and receive-side kernel hops ride a free-listed record, and the
// payload copies come from the fabric's pooled free list, provided the
// receiver recycles frames with Conn.Recycle.
func TestSteadyStateSendAllocs(t *testing.T) {
	env := sim.NewEnv(1)
	net := fabric.New(env, fabric.DefaultConfig())
	stack := NewStack(net, DefaultConfig())
	client := stack.NewHost(net.NewNode("client"))
	server := stack.NewHost(net.NewNode("server"))

	l, err := server.Listen(9092)
	if err != nil {
		t.Fatal(err)
	}

	const warmup = 64
	const measured = 512
	var m0, m1 runtime.MemStats

	env.Go("server", func(p *sim.Proc) {
		c := l.Accept(p)
		for {
			raw, err := c.RecvRaw(p)
			if err != nil {
				return
			}
			c.Recycle(raw) // return the frame to the wire-buffer pool
		}
	})
	env.Go("client", func(p *sim.Proc) {
		c, err := client.Dial(p, server, 9092)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		payload := make([]byte, 512)
		for i := 0; i < warmup; i++ {
			c.Send(p, payload)
		}
		runtime.ReadMemStats(&m0)
		for i := 0; i < measured; i++ {
			c.Send(p, payload)
		}
		runtime.ReadMemStats(&m1)
		c.Close()
	})
	env.Run()

	perOp := float64(m1.Mallocs-m0.Mallocs) / measured
	// Exactly 0 in steady state; allow a little slack for stray runtime
	// allocations (GC metadata, map growth) that are not per-op costs.
	if perOp > 0.1 {
		t.Fatalf("steady-state Send = %.2f allocs/op, want 0", perOp)
	}
}
