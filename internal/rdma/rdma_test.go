package rdma

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"kafkadirect/internal/fabric"
	"kafkadirect/internal/sim"
)

const us = time.Microsecond

// pair builds two connected devices with one QP each and returns everything
// a test needs.
type pair struct {
	env      *sim.Env
	net      *fabric.Network
	da, db   *Device
	pa, pb   *PD
	qa, qb   *QP
	postRecv func(n int)
}

func newPair(t *testing.T) *pair {
	t.Helper()
	env := sim.NewEnv(1)
	net := fabric.New(env, fabric.DefaultConfig())
	da := NewDevice(net.NewNode("a"), DefaultCosts())
	db := NewDevice(net.NewNode("b"), DefaultCosts())
	qa := da.CreateQP(QPConfig{})
	qb := db.CreateQP(QPConfig{})
	if err := Connect(qa, qb); err != nil {
		t.Fatalf("connect: %v", err)
	}
	p := &pair{env: env, net: net, da: da, db: db, pa: da.AllocPD(), pb: db.AllocPD(), qa: qa, qb: qb}
	p.postRecv = func(n int) {
		for i := 0; i < n; i++ {
			if err := qb.PostRecv(RQE{WRID: uint64(i), Buf: make([]byte, 1<<20)}); err != nil {
				t.Fatalf("post recv: %v", err)
			}
		}
	}
	return p
}

func TestWriteMovesBytesIntoRegisteredRegion(t *testing.T) {
	p := newPair(t)
	dst := make([]byte, 4096)
	mr, err := p.pb.RegisterMR(dst, AccessRemoteWrite)
	if err != nil {
		t.Fatal(err)
	}
	src := bytes.Repeat([]byte("kafka"), 100)
	var status Status
	p.env.Go("writer", func(pr *sim.Proc) {
		if err := p.qa.PostSend(SendWR{WRID: 1, Op: OpWrite, Local: src, RemoteAddr: mr.Addr() + 128, RKey: mr.RKey()}); err != nil {
			t.Errorf("post: %v", err)
		}
		status = p.qa.SendCQ().Poll(pr).Status
	})
	p.env.Run()
	if status != StatusOK {
		t.Fatalf("status %v", status)
	}
	if !bytes.Equal(dst[128:128+len(src)], src) {
		t.Fatal("bytes not written at the requested offset")
	}
	if !bytes.Equal(dst[:128], make([]byte, 128)) {
		t.Fatal("bytes written outside the requested range")
	}
}

func TestWriteWithImmDeliversImmediateAtResponder(t *testing.T) {
	p := newPair(t)
	dst := make([]byte, 4096)
	mr, _ := p.pb.RegisterMR(dst, AccessRemoteWrite)
	p.postRecv(1)
	var got CQE
	p.env.Go("responder", func(pr *sim.Proc) { got = p.qb.RecvCQ().Poll(pr) })
	p.env.Go("writer", func(pr *sim.Proc) {
		p.qa.PostSend(SendWR{Op: OpWriteImm, Local: []byte("hello"), RemoteAddr: mr.Addr(), RKey: mr.RKey(), Imm: 0xdeadbeef})
	})
	p.env.Run()
	if got.Op != OpRecv || !got.HasImm || got.Imm != 0xdeadbeef || got.ByteLen != 5 {
		t.Fatalf("responder CQE = %+v", got)
	}
	if string(dst[:5]) != "hello" {
		t.Fatal("payload missing")
	}
}

func TestWriteWithImmSmallRTTMatchesPaper(t *testing.T) {
	// Fig. 7: WriteWithImm latency for small messages ≈ 1.5 µs.
	p := newPair(t)
	dst := make([]byte, 64)
	mr, _ := p.pb.RegisterMR(dst, AccessRemoteWrite)
	p.postRecv(1)
	var rtt time.Duration
	p.env.Go("writer", func(pr *sim.Proc) {
		start := pr.Now()
		p.qa.PostSend(SendWR{Op: OpWriteImm, Local: []byte{1, 2, 3, 4}, RemoteAddr: mr.Addr(), RKey: mr.RKey()})
		p.qa.SendCQ().Poll(pr)
		rtt = pr.Now() - start
	})
	p.env.Run()
	if rtt < 1*us || rtt > 3*us {
		t.Fatalf("small WriteWithImm RTT = %v, want ~1.5µs", rtt)
	}
}

func TestReadFetchesRemoteBytes(t *testing.T) {
	p := newPair(t)
	src := bytes.Repeat([]byte{0xab}, 2048)
	mr, _ := p.pb.RegisterMR(src, AccessRemoteRead)
	dst := make([]byte, 2048)
	var rtt time.Duration
	p.env.Go("reader", func(pr *sim.Proc) {
		start := pr.Now()
		p.qa.PostSend(SendWR{Op: OpRead, Local: dst, RemoteAddr: mr.Addr(), RKey: mr.RKey()})
		cqe := p.qa.SendCQ().Poll(pr)
		if cqe.Status != StatusOK {
			t.Errorf("read status %v", cqe.Status)
		}
		rtt = pr.Now() - start
	})
	p.env.Run()
	if !bytes.Equal(dst, src) {
		t.Fatal("read returned wrong bytes")
	}
	// §4.4.2: a 2 KiB RDMA Read completes in under 3 µs.
	if rtt > 3*us {
		t.Fatalf("2 KiB read RTT = %v, want < 3µs", rtt)
	}
}

func TestFetchAddIncrementsAndReturnsOld(t *testing.T) {
	p := newPair(t)
	word := make([]byte, 8)
	binary.LittleEndian.PutUint64(word, 100)
	mr, _ := p.pb.RegisterMR(word, AccessRemoteAtomic)
	old := make([]byte, 8)
	var cqe CQE
	p.env.Go("faa", func(pr *sim.Proc) {
		p.qa.PostSend(SendWR{Op: OpFetchAdd, Local: old, RemoteAddr: mr.Addr(), RKey: mr.RKey(), Add: 42})
		cqe = p.qa.SendCQ().Poll(pr)
	})
	p.env.Run()
	if cqe.Status != StatusOK || cqe.Old != 100 {
		t.Fatalf("cqe = %+v", cqe)
	}
	if binary.LittleEndian.Uint64(old) != 100 {
		t.Fatal("old value not written to local buffer")
	}
	if got := binary.LittleEndian.Uint64(word); got != 142 {
		t.Fatalf("word = %d, want 142", got)
	}
}

func TestCompSwapOnlySwapsOnMatch(t *testing.T) {
	p := newPair(t)
	word := make([]byte, 8)
	binary.LittleEndian.PutUint64(word, 7)
	mr, _ := p.pb.RegisterMR(word, AccessRemoteAtomic)
	var first, second CQE
	p.env.Go("cas", func(pr *sim.Proc) {
		p.qa.PostSend(SendWR{Op: OpCompSwap, Local: make([]byte, 8), RemoteAddr: mr.Addr(), RKey: mr.RKey(), Compare: 7, Swap: 9})
		first = p.qa.SendCQ().Poll(pr)
		p.qa.PostSend(SendWR{Op: OpCompSwap, Local: make([]byte, 8), RemoteAddr: mr.Addr(), RKey: mr.RKey(), Compare: 7, Swap: 11})
		second = p.qa.SendCQ().Poll(pr)
	})
	p.env.Run()
	if first.Old != 7 || second.Old != 9 {
		t.Fatalf("old values %d, %d, want 7, 9", first.Old, second.Old)
	}
	if got := binary.LittleEndian.Uint64(word); got != 9 {
		t.Fatalf("word = %d after failed CAS, want 9", got)
	}
}

func TestAtomicThroughputLimitedPerCounter(t *testing.T) {
	// §4.2.2: atomics on a single counter cannot exceed ~2.68 Mops/s.
	p := newPair(t)
	word := make([]byte, 8)
	mr, _ := p.pb.RegisterMR(word, AccessRemoteAtomic)
	const ops = 1000
	var elapsed time.Duration
	p.env.Go("faa", func(pr *sim.Proc) {
		start := pr.Now()
		for i := 0; i < ops; i++ {
			p.qa.PostSend(SendWR{Op: OpFetchAdd, Local: make([]byte, 8), RemoteAddr: mr.Addr(), RKey: mr.RKey(), Add: 1})
			p.qa.SendCQ().Poll(pr)
		}
		elapsed = pr.Now() - start
	})
	p.env.Run()
	rate := float64(ops) / elapsed.Seconds()
	if rate > 2.8e6 {
		t.Fatalf("atomic rate %.2f Mops/s exceeds the hardware limit", rate/1e6)
	}
	if binary.LittleEndian.Uint64(word) != ops {
		t.Fatal("lost updates")
	}
}

func TestPipelinedAtomicsStillSerialise(t *testing.T) {
	// Even with many requests in flight, the per-address unit caps the rate.
	p := newPair(t)
	word := make([]byte, 8)
	mr, _ := p.pb.RegisterMR(word, AccessRemoteAtomic)
	const ops = 512
	var last time.Duration
	p.env.Go("faa", func(pr *sim.Proc) {
		for i := 0; i < ops; i++ {
			for p.qa.PostSend(SendWR{Op: OpFetchAdd, Local: make([]byte, 8), RemoteAddr: mr.Addr(), RKey: mr.RKey(), Add: 1}) == ErrSQFull {
				p.qa.SendCQ().Poll(pr)
			}
		}
		for binary.LittleEndian.Uint64(word) != ops {
			p.qa.SendCQ().Poll(pr)
		}
		last = pr.Now()
	})
	p.env.Run()
	rate := float64(ops) / last.Seconds()
	if rate > 2.8e6 {
		t.Fatalf("pipelined atomic rate %.2f Mops/s exceeds limit", rate/1e6)
	}
}

func TestWriteBandwidthApproachesLink(t *testing.T) {
	p := newPair(t)
	region := make([]byte, 1<<20)
	mr, _ := p.pb.RegisterMR(region, AccessRemoteWrite)
	const msg = 256 << 10
	const count = 128
	src := make([]byte, msg)
	var elapsed time.Duration
	p.env.Go("writer", func(pr *sim.Proc) {
		start := pr.Now()
		inflight := 0
		for i := 0; i < count; i++ {
			for p.qa.PostSend(SendWR{Op: OpWrite, Local: src, RemoteAddr: mr.Addr(), RKey: mr.RKey()}) == ErrSQFull {
				p.qa.SendCQ().Poll(pr)
				inflight--
			}
			inflight++
		}
		for ; inflight > 0; inflight-- {
			p.qa.SendCQ().Poll(pr)
		}
		elapsed = pr.Now() - start
	})
	p.env.Run()
	gput := float64(msg*count) / elapsed.Seconds()
	if gput < 5.5*(1<<30) {
		t.Fatalf("large-write goodput %.2f GiB/s, want near 6 GiB/s", gput/(1<<30))
	}
}

func TestInOrderCompletionAtResponder(t *testing.T) {
	// The exclusive produce protocol depends on completion events arriving
	// in posting order (§4.2.2).
	p := newPair(t)
	region := make([]byte, 1<<20)
	mr, _ := p.pb.RegisterMR(region, AccessRemoteWrite)
	p.postRecv(64)
	var order []uint32
	p.env.Go("responder", func(pr *sim.Proc) {
		for i := 0; i < 64; i++ {
			order = append(order, p.qb.RecvCQ().Poll(pr).Imm)
		}
	})
	p.env.Go("writer", func(pr *sim.Proc) {
		for i := 0; i < 64; i++ {
			size := 64 + (i%5)*3000 // mixed sizes
			p.qa.PostSend(SendWR{Op: OpWriteImm, Local: make([]byte, size), RemoteAddr: mr.Addr(), RKey: mr.RKey(), Imm: uint32(i), Unsignaled: true})
			pr.Yield()
		}
	})
	p.env.Run()
	if len(order) != 64 {
		t.Fatalf("got %d completions", len(order))
	}
	for i, imm := range order {
		if imm != uint32(i) {
			t.Fatalf("completion order %v", order)
		}
	}
}

func TestSendRequiresPostedReceive(t *testing.T) {
	p := newPair(t)
	var status Status
	var asyncA, asyncB bool
	p.da.OnAsyncEvent(func(AsyncEvent) { asyncA = true })
	p.db.OnAsyncEvent(func(AsyncEvent) { asyncB = true })
	p.env.Go("sender", func(pr *sim.Proc) {
		p.qa.PostSend(SendWR{Op: OpSend, Local: []byte("x")})
		status = p.qa.SendCQ().Poll(pr).Status
	})
	p.env.Run()
	if status != StatusRNR {
		t.Fatalf("status %v, want RNR", status)
	}
	if !asyncA || !asyncB {
		t.Fatal("both sides should observe the QP failure")
	}
	if p.qa.State() != QPError || p.qb.State() != QPError {
		t.Fatal("QPs should be in error state")
	}
}

func TestSendDeliversIntoPostedBuffer(t *testing.T) {
	p := newPair(t)
	buf := make([]byte, 128)
	p.qb.PostRecv(RQE{WRID: 9, Buf: buf})
	var got CQE
	p.env.Go("responder", func(pr *sim.Proc) { got = p.qb.RecvCQ().Poll(pr) })
	p.env.Go("sender", func(pr *sim.Proc) {
		p.qa.PostSend(SendWR{Op: OpSend, Local: []byte("payload")})
	})
	p.env.Run()
	if got.WRID != 9 || got.ByteLen != 7 || string(buf[:7]) != "payload" {
		t.Fatalf("recv CQE %+v buf %q", got, buf[:7])
	}
}

func TestRemoteAccessChecks(t *testing.T) {
	p := newPair(t)
	region := make([]byte, 1024)
	roMR, _ := p.pb.RegisterMR(region, AccessRemoteRead)

	cases := []struct {
		name string
		wr   SendWR
	}{
		{"write to read-only MR", SendWR{Op: OpWrite, Local: []byte("x"), RemoteAddr: roMR.Addr(), RKey: roMR.RKey()}},
		{"bogus rkey", SendWR{Op: OpRead, Local: make([]byte, 8), RemoteAddr: roMR.Addr(), RKey: 0xffff}},
		{"out of bounds", SendWR{Op: OpRead, Local: make([]byte, 8), RemoteAddr: roMR.Addr() + 1020, RKey: roMR.RKey()}},
		{"atomic without atomic access", SendWR{Op: OpFetchAdd, Local: make([]byte, 8), RemoteAddr: roMR.Addr(), RKey: roMR.RKey(), Add: 1}},
	}
	for _, tc := range cases {
		env := sim.NewEnv(1)
		net := fabric.New(env, fabric.DefaultConfig())
		da := NewDevice(net.NewNode("a"), DefaultCosts())
		db := NewDevice(net.NewNode("b"), DefaultCosts())
		qa := da.CreateQP(QPConfig{})
		qb := db.CreateQP(QPConfig{})
		Connect(qa, qb)
		mr, _ := db.AllocPD().RegisterMR(region, AccessRemoteRead)
		wr := tc.wr
		if wr.RKey != 0xffff {
			wr.RKey = mr.RKey()
			wr.RemoteAddr = mr.Addr() + (tc.wr.RemoteAddr - roMR.Addr())
		}
		var status Status
		env.Go("req", func(pr *sim.Proc) {
			qa.PostSend(wr)
			status = qa.SendCQ().Poll(pr).Status
		})
		env.Run()
		if status != StatusRemoteAccessErr {
			t.Errorf("%s: status %v, want REMOTE_ACCESS_ERROR", tc.name, status)
		}
	}
}

func TestDeregisteredMRRejectsAccess(t *testing.T) {
	p := newPair(t)
	region := make([]byte, 1024)
	mr, _ := p.pb.RegisterMR(region, AccessRemoteRead|AccessRemoteWrite)
	mr.Deregister()
	var status Status
	p.env.Go("req", func(pr *sim.Proc) {
		p.qa.PostSend(SendWR{Op: OpRead, Local: make([]byte, 8), RemoteAddr: mr.Addr(), RKey: mr.RKey()})
		status = p.qa.SendCQ().Poll(pr).Status
	})
	p.env.Run()
	if status != StatusRemoteAccessErr {
		t.Fatalf("status %v after deregister", status)
	}
}

func TestDisconnectRaisesAsyncEventOnPeer(t *testing.T) {
	p := newPair(t)
	var reason string
	p.db.OnAsyncEvent(func(ev AsyncEvent) { reason = ev.Reason })
	p.qa.Disconnect()
	p.env.Run()
	if p.qb.State() != QPError {
		t.Fatal("peer not in error state")
	}
	if reason == "" {
		t.Fatal("no async event at peer")
	}
}

func TestPostSendOnErrorQPFails(t *testing.T) {
	p := newPair(t)
	p.qa.Disconnect()
	if err := p.qa.PostSend(SendWR{Op: OpWrite, Local: []byte("x")}); err != ErrQPState {
		t.Fatalf("err = %v, want ErrQPState", err)
	}
}

func TestSQDepthLimitsOutstanding(t *testing.T) {
	env := sim.NewEnv(1)
	net := fabric.New(env, fabric.DefaultConfig())
	da := NewDevice(net.NewNode("a"), DefaultCosts())
	db := NewDevice(net.NewNode("b"), DefaultCosts())
	qa := da.CreateQP(QPConfig{SendDepth: 2})
	qb := db.CreateQP(QPConfig{})
	Connect(qa, qb)
	region := make([]byte, 64)
	mr, _ := db.AllocPD().RegisterMR(region, AccessRemoteWrite)
	wr := SendWR{Op: OpWrite, Local: []byte("x"), RemoteAddr: mr.Addr(), RKey: mr.RKey()}
	if err := qa.PostSend(wr); err != nil {
		t.Fatal(err)
	}
	if err := qa.PostSend(wr); err != nil {
		t.Fatal(err)
	}
	if err := qa.PostSend(wr); err != ErrSQFull {
		t.Fatalf("third post err = %v, want ErrSQFull", err)
	}
	env.Run()
}

func TestBoundedCQOverrunFailsQP(t *testing.T) {
	// Models the "fast leader overflows slow follower's CQ" hazard of §4.3.2.
	env := sim.NewEnv(1)
	net := fabric.New(env, fabric.DefaultConfig())
	da := NewDevice(net.NewNode("a"), DefaultCosts())
	db := NewDevice(net.NewNode("b"), DefaultCosts())
	recvCQ := db.CreateCQ(4)
	qa := da.CreateQP(QPConfig{})
	qb := db.CreateQP(QPConfig{RecvCQ: recvCQ})
	Connect(qa, qb)
	region := make([]byte, 4096)
	mr, _ := db.AllocPD().RegisterMR(region, AccessRemoteWrite)
	for i := 0; i < 16; i++ {
		qb.PostRecv(RQE{})
	}
	env.Go("flood", func(pr *sim.Proc) {
		for i := 0; i < 16; i++ {
			if qa.PostSend(SendWR{Op: OpWriteImm, Local: []byte("x"), RemoteAddr: mr.Addr(), RKey: mr.RKey(), Unsignaled: true}) != nil {
				return
			}
		}
	})
	env.Run()
	if !recvCQ.Overrun() {
		t.Fatal("CQ did not overrun")
	}
	if qb.State() != QPError || qa.State() != QPError {
		t.Fatal("overrun should fail both QP ends")
	}
}

func TestRegisterMRRejectsEmpty(t *testing.T) {
	p := newPair(t)
	if _, err := p.pa.RegisterMR(nil, AccessRemoteRead); err != ErrBadLength {
		t.Fatalf("err = %v, want ErrBadLength", err)
	}
}

func TestMRAddressesDisjoint(t *testing.T) {
	p := newPair(t)
	a, _ := p.pa.RegisterMR(make([]byte, 5000), AccessRemoteRead)
	b, _ := p.pa.RegisterMR(make([]byte, 5000), AccessRemoteRead)
	if a.Addr()+uint64(a.Len()) > b.Addr() {
		t.Fatalf("MR VA ranges overlap: [%x,+%d) and [%x,+%d)", a.Addr(), a.Len(), b.Addr(), b.Len())
	}
}

func TestOpcodeAndStatusStrings(t *testing.T) {
	if OpWriteImm.String() != "WRITE_WITH_IMM" || StatusRNR.String() != "RNR" {
		t.Fatal("String() methods broken")
	}
	if Opcode(99).String() == "" || Status(99).String() == "" {
		t.Fatal("unknown values should still format")
	}
}

func TestRegisteredBytesAccounting(t *testing.T) {
	// §7 "Memory usage": registration pins memory; deregistration frees it.
	p := newPair(t)
	if p.db.RegisteredBytes() != 0 {
		t.Fatal("fresh device should pin nothing")
	}
	a, _ := p.pb.RegisterMR(make([]byte, 1<<20), AccessRemoteRead)
	b, _ := p.pb.RegisterMR(make([]byte, 4096), AccessRemoteWrite)
	if got := p.db.RegisteredBytes(); got != 1<<20+4096 {
		t.Fatalf("registered %d bytes", got)
	}
	a.Deregister()
	a.Deregister() // idempotent
	if got := p.db.RegisteredBytes(); got != 4096 {
		t.Fatalf("after deregister: %d bytes", got)
	}
	b.Deregister()
	if p.db.RegisteredBytes() != 0 {
		t.Fatal("leak after full deregistration")
	}
}

func TestQPErrorFlushesPostedReceives(t *testing.T) {
	// Regression: a QP entering the error state must flush its outstanding
	// receives as error completions rather than silently dropping them —
	// otherwise a consumer parked on the recv CQ waits forever and never
	// learns the transport died.
	p := newPair(t)
	p.postRecv(3)
	p.qa.Disconnect() // cascades to qb, which holds the posted receives
	p.env.Run()
	if p.qb.State() != QPError {
		t.Fatal("qb not in error state")
	}
	for i := 0; i < 3; i++ {
		cqe, ok := p.qb.RecvCQ().TryPoll()
		if !ok {
			t.Fatalf("receive %d not flushed", i)
		}
		if cqe.Op != OpRecv || cqe.Status != StatusFlushed || cqe.WRID != uint64(i) {
			t.Fatalf("flushed CQE %d = %+v, want OpRecv/FLUSHED", i, cqe)
		}
	}
	if _, ok := p.qb.RecvCQ().TryPoll(); ok {
		t.Fatal("extra completion beyond the posted receives")
	}
	if err := p.qb.PostRecv(RQE{Buf: make([]byte, 64)}); err != ErrQPState {
		t.Fatalf("PostRecv after error = %v, want ErrQPState", err)
	}
}

func TestConnectFailsWhenPeerUnreachable(t *testing.T) {
	// The CM exchange cannot complete across a severed path: a QP bundle to a
	// crashed node or across a cut link must fail to connect, like a TCP dial.
	env := sim.NewEnv(1)
	net := fabric.New(env, fabric.DefaultConfig())
	da := NewDevice(net.NewNode("a"), DefaultCosts())
	db := NewDevice(net.NewNode("b"), DefaultCosts())
	db.Node().SetDown(true)
	if err := Connect(da.CreateQP(QPConfig{}), db.CreateQP(QPConfig{})); err != ErrUnreachable {
		t.Fatalf("connect to down node = %v, want ErrUnreachable", err)
	}
	db.Node().SetDown(false)
	net.CutLink(da.Node(), db.Node())
	if err := Connect(da.CreateQP(QPConfig{}), db.CreateQP(QPConfig{})); err != ErrUnreachable {
		t.Fatalf("connect across cut link = %v, want ErrUnreachable", err)
	}
	net.RestoreLink(da.Node(), db.Node())
	if err := Connect(da.CreateQP(QPConfig{}), db.CreateQP(QPConfig{})); err != nil {
		t.Fatalf("connect after restore = %v", err)
	}
}

// TestWarmWriteAllocatesNothing pins the verb path itself — post a WRITE, run
// the kernel until it has completed, take the CQE — at 0 allocations once the
// device's WR free list, the event heap and the CQ ring are warm. The client
// pin (TestPipelinedOneSidedProduceAllocatesNoBatchCopies) bounds a whole
// produce at 0.9 allocations per record against a measured 0.0, to leave room
// for the race detector's sync.Pool; this one has no slack and names the layer.
func TestWarmWriteAllocatesNothing(t *testing.T) {
	p := newPair(t)
	mr, err := p.pb.RegisterMR(make([]byte, 4096), AccessRemoteWrite)
	if err != nil {
		t.Fatal(err)
	}
	wr := SendWR{Op: OpWrite, Local: make([]byte, 64), RemoteAddr: mr.Addr(), RKey: mr.RKey()}
	write := func() {
		if err := p.qa.PostSend(wr); err != nil {
			t.Fatalf("post: %v", err)
		}
		p.env.Run()
		if cqe, ok := p.qa.SendCQ().TryPoll(); !ok || cqe.Status != StatusOK {
			t.Fatalf("completion %+v, %v; want one with StatusOK", cqe, ok)
		}
	}
	write()
	if avg := testing.AllocsPerRun(100, write); avg != 0 {
		t.Fatalf("a warm WRITE allocates %.0f objects from post to CQE, want 0", avg)
	}
}
