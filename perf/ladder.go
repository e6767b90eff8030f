package main

import (
	"fmt"
	"runtime"
	"time"

	"kafkadirect/internal/bufpool"
	"kafkadirect/internal/client"
	"kafkadirect/internal/core"
	"kafkadirect/internal/fabric"
	"kafkadirect/internal/klog"
	"kafkadirect/internal/krecord"
	"kafkadirect/internal/kwire"
	"kafkadirect/internal/rdma"
	"kafkadirect/internal/sim"
	"kafkadirect/internal/tcpnet"
)

// The ladder times calls into each layer's exported functions, lowest layer
// first, so the cost of one client operation can be read against the sum of
// the rungs beneath it. Each rung is a micro-driver: set up outside the
// meter, a fixed number of operations inside it.

// rungOut is one rung's result; all three fields go to the trace artefact.
type rungOut struct {
	NS     float64 `json:"ns_per_op"`
	Allocs float64 `json:"allocs_per_op"`
	Events float64 `json:"events_per_op"`
}

// meter brackets a rung's hot loop with host time, heap-object and
// simulator-event readings. It may be started and stopped from inside a
// simulated process, which is how set-up (dialling, access grants, preload)
// stays outside the measurement.
type meter struct {
	env            *sim.Env
	t0             time.Time
	a0, e0         uint64
	wall           time.Duration
	allocs, events uint64
}

func (m *meter) start(env *sim.Env) {
	m.env = env
	if env != nil {
		m.e0 = env.Executed()
	}
	m.a0 = allocObjects()
	m.t0 = time.Now()
}

func (m *meter) stop() {
	m.wall = time.Since(m.t0)
	m.allocs = allocObjects() - m.a0
	if m.env != nil {
		m.events = m.env.Executed() - m.e0
	}
}

func (m *meter) per(n int) rungOut {
	if n <= 0 {
		return rungOut{}
	}
	f := float64(n)
	return rungOut{NS: float64(m.wall.Nanoseconds()) / f, Allocs: float64(m.allocs) / f, Events: float64(m.events) / f}
}

// rung is one step of the ladder: its name, which fields besides ns/op are
// per-layer metrics in BENCHMARK.json (all three go into the trace
// artefact), its full-size operation count and its driver. A driver panics
// if the layer misbehaves: the ladder runs no fault injection, so an error
// means the rung itself is miswired.
type rung struct {
	name           string
	allocs, events bool
	n              int
	run            func(n int) rungOut
}

var ladder = []rung{
	{name: "sim.event", n: 400000, run: rungSimEvent},
	{name: "sim.switch", n: 100000, run: rungSimSwitch},
	{name: "sim.queue_wake", n: 60000, run: rungQueueWake},
	{name: "fabric.deliver_64", n: 300000, run: func(n int) rungOut { return rungDeliver(n, 64) }},
	{name: "rdma.write_64", n: 40000, run: func(n int) rungOut { return rungVerb(n, rdma.OpWrite, 64) }},
	{name: "rdma.faa", n: 40000, run: func(n int) rungOut { return rungVerb(n, rdma.OpFetchAdd, 8) }},
	{name: "rdma.sendrecv_64", n: 30000, run: rungSendRecv},
	{name: "tcpnet.msg_128", n: 40000, run: func(n int) rungOut { return rungTCP(n, 128) }},
	{name: "kwire.encode_produce", n: 1000000, run: rungEncode},
	{name: "kwire.decode_produce", n: 1000000, run: rungDecode},
	{name: "krecord.build_64", n: 500000, run: func(n int) rungOut { return rungBuild(n, 64) }},
	{name: "klog.append_64", n: 300000, run: func(n int) rungOut { return rungAppend(n, 64) }},
	{name: "fabric.deliver_32k", n: 300000, run: func(n int) rungOut { return rungDeliver(n, 32<<10) }},
	{name: "rdma.write_32k", n: 20000, run: func(n int) rungOut { return rungVerb(n, rdma.OpWrite, 32<<10) }},
	{name: "tcpnet.msg_32k", n: 10000, run: func(n int) rungOut { return rungTCP(n, 32<<10) }},
	{name: "krecord.build_32k", n: 10000, run: func(n int) rungOut { return rungBuild(n, 32<<10) }},
	{name: "krecord.parse_32k", n: 10000, run: rungParse},
	{name: "klog.append_32k", n: 1500, run: func(n int) rungOut { return rungAppend(n, 32<<10) }},
	{name: "bufpool.segment_cycle", n: 100, run: rungSegmentCycle},
	{name: "rdma.read_2k", n: 40000, run: func(n int) rungOut { return rungVerb(n, rdma.OpRead, 2048) }},
	{name: "klog.read_2k", n: 500000, run: rungLogRead},
	{name: "client.fetch.kafka", allocs: true, events: true, n: 3000, run: func(n int) rungOut { return rungFetch(n, false) }},
	{name: "client.fetch.kd", allocs: true, events: true, n: 3000, run: func(n int) rungOut { return rungFetch(n, true) }},
	{name: "core.rig_rf1", allocs: true, n: 20, run: func(n int) rungOut { return rungRig(n, 1) }},
	{name: "core.rig_rf3", allocs: true, n: 12, run: func(n int) rungOut { return rungRig(n, 3) }},
	{name: "client.produce.kafka", allocs: true, events: true, n: 3000, run: func(n int) rungOut { return rungProduce(n, "kafka") }},
	{name: "client.produce.osu", allocs: true, events: true, n: 3000, run: func(n int) rungOut { return rungProduce(n, "osu") }},
	{name: "client.produce.kd_excl", allocs: true, events: true, n: 3000, run: func(n int) rungOut { return rungProduce(n, "kd_excl") }},
	{name: "client.produce.kd_shared", allocs: true, events: true, n: 3000, run: func(n int) rungOut { return rungProduce(n, "kd_shared") }},
}

// runLadder runs every rung in order. Two collections before each rung empty
// the buffer pools (sync.Pool keeps a victim generation), so a rung that
// takes a segment allocates it afresh whatever the workload before it left
// behind: core.rig_rf3 read 60 us with the traced passes' segments still
// pooled and 2 ms without.
func runLadder(cfg runConfig) map[string]rungOut {
	out := make(map[string]rungOut, len(ladder))
	for _, r := range ladder {
		runtime.GC()
		runtime.GC()
		out[r.name] = r.run(cfg.scaled(r.n))
	}
	return out
}

func must(err error) {
	if err != nil {
		panic("perf ladder: " + err.Error())
	}
}

var sink int // keeps results of pure-function rungs alive

func rungSimEvent(n int) rungOut {
	env := sim.NewEnv(1)
	left := n
	var tick func()
	tick = func() {
		if left--; left > 0 {
			env.After(time.Microsecond, tick)
		}
	}
	var m meter
	m.start(env)
	env.After(time.Microsecond, tick)
	env.Run()
	m.stop()
	return m.per(n)
}

func rungSimSwitch(n int) rungOut {
	env := sim.NewEnv(1)
	env.Go("sleeper", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	var m meter
	m.start(env)
	env.Run()
	m.stop()
	env.Shutdown()
	return m.per(n)
}

func rungQueueWake(n int) rungOut {
	env := sim.NewEnv(1)
	q := sim.NewQueue[int]()
	env.Go("consumer", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			sink += q.Pop(p)
		}
	})
	env.Go("producer", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			q.Push(i)
			p.Sleep(time.Microsecond)
		}
	})
	var m meter
	m.start(env)
	env.Run()
	m.stop()
	env.Shutdown()
	return m.per(n)
}

func rungDeliver(n, size int) rungOut {
	env := sim.NewEnv(1)
	net := fabric.New(env, fabric.DefaultConfig())
	a, b := net.NewNode("a"), net.NewNode("b")
	left := n
	var hop func(any)
	hop = func(any) {
		if left--; left > 0 {
			net.DeliverArg(a, b, size, hop, nil)
		}
	}
	var m meter
	m.start(env)
	net.DeliverArg(a, b, size, hop, nil)
	env.Run()
	m.stop()
	return m.per(n)
}

// verbsRig is a requester and a responder RNIC with one connected QP pair, a
// 1 MiB remotely accessible region and an 8-byte atomic word.
type verbsRig struct {
	env      *sim.Env
	cqp, tqp *rdma.QP
	region   *rdma.MR
	word     *rdma.MR
}

func newVerbsRig() *verbsRig {
	env := sim.NewEnv(1)
	net := fabric.New(env, fabric.DefaultConfig())
	target := rdma.NewDevice(net.NewNode("target"), rdma.DefaultCosts())
	pd := target.AllocPD()
	region, err := pd.RegisterMR(make([]byte, 1<<20), rdma.AccessRemoteWrite|rdma.AccessRemoteRead)
	must(err)
	word, err := pd.RegisterMR(make([]byte, 8), rdma.AccessRemoteAtomic|rdma.AccessRemoteRead)
	must(err)
	dev := rdma.NewDevice(net.NewNode("client"), rdma.DefaultCosts())
	r := &verbsRig{env: env, region: region, word: word,
		cqp: dev.CreateQP(rdma.QPConfig{}), tqp: target.CreateQP(rdma.QPConfig{})}
	must(rdma.Connect(r.cqp, r.tqp))
	return r
}

// rungVerb is a closed loop of one signaled one-sided verb: post, poll the
// completion, repeat.
func rungVerb(n int, op rdma.Opcode, size int) rungOut {
	r := newVerbsRig()
	var m meter
	r.env.Go("requester", func(p *sim.Proc) {
		local := make([]byte, size)
		wr := rdma.SendWR{Op: op, Local: local, RemoteAddr: r.region.Addr(), RKey: r.region.RKey()}
		if op == rdma.OpFetchAdd {
			wr.RemoteAddr, wr.RKey, wr.Add = r.word.Addr(), r.word.RKey(), 1
		}
		m.start(r.env)
		for i := 0; i < n; i++ {
			must(r.cqp.PostSend(wr))
			if cqe := r.cqp.SendCQ().Poll(p); cqe.Status != rdma.StatusOK {
				panic(fmt.Sprintf("perf ladder: %v completed with %v", op, cqe.Status))
			}
		}
		m.stop()
	})
	r.env.Run()
	r.env.Shutdown()
	return m.per(n)
}

// rungSendRecv is a closed loop of two-sided Sends: the responder process
// polls each receive completion and reposts the buffer.
func rungSendRecv(n int) rungOut {
	r := newVerbsRig()
	const depth = 16
	for i := 0; i < depth; i++ {
		must(r.tqp.PostRecv(rdma.RQE{Buf: make([]byte, 64)}))
	}
	r.env.Go("responder", func(p *sim.Proc) {
		buf := make([]byte, 64)
		for i := 0; i < n; i++ {
			r.tqp.RecvCQ().Poll(p)
			must(r.tqp.PostRecv(rdma.RQE{Buf: buf}))
		}
	})
	var m meter
	r.env.Go("requester", func(p *sim.Proc) {
		wr := rdma.SendWR{Op: rdma.OpSend, Local: make([]byte, 64)}
		m.start(r.env)
		for i := 0; i < n; i++ {
			must(r.cqp.PostSend(wr))
			if cqe := r.cqp.SendCQ().Poll(p); cqe.Status != rdma.StatusOK {
				panic(fmt.Sprintf("perf ladder: send completed with %v", cqe.Status))
			}
		}
		m.stop()
	})
	r.env.Run()
	r.env.Shutdown()
	return m.per(n)
}

// rungTCP sends n messages one way over a modelled TCP connection; the
// receiver recycles each frame, as the broker's network threads do.
func rungTCP(n, size int) rungOut {
	env := sim.NewEnv(1)
	net := fabric.New(env, fabric.DefaultConfig())
	stack := tcpnet.NewStack(net, tcpnet.DefaultConfig())
	cli, srv := stack.NewHost(net.NewNode("client")), stack.NewHost(net.NewNode("server"))
	l, err := srv.Listen(9092)
	must(err)
	var m meter
	env.Go("server", func(p *sim.Proc) {
		c := l.Accept(p)
		for i := 0; i < n; i++ {
			raw, err := c.RecvRaw(p)
			must(err)
			c.Recycle(raw)
		}
		m.stop()
	})
	env.Go("client", func(p *sim.Proc) {
		c, err := cli.Dial(p, srv, 9092)
		must(err)
		payload := make([]byte, size)
		m.start(env)
		for i := 0; i < n; i++ {
			must(c.Send(p, payload))
		}
	})
	env.Run()
	env.Shutdown()
	return m.per(n)
}

func batchOf(size int) []byte {
	buf, err := krecord.Encode(1, krecord.Record{Value: make([]byte, size), Timestamp: 1})
	must(err)
	return buf
}

func rungEncode(n int) rungOut {
	req := &kwire.ProduceReq{Topic: "t", Acks: 1, Batch: batchOf(64)}
	var s kwire.Scratch
	var m meter
	m.start(nil)
	for i := 0; i < n; i++ {
		sink += len(s.Encode(uint32(i), req))
	}
	m.stop()
	return m.per(n)
}

func rungDecode(n int) rungOut {
	frame := kwire.Encode(7, &kwire.ProduceReq{Topic: "t", Acks: 1, Batch: batchOf(64)})
	var req kwire.ProduceReq
	var m meter
	m.start(nil)
	for i := 0; i < n; i++ {
		_, err := kwire.DecodeInto(frame, &req)
		must(err)
	}
	m.stop()
	return m.per(n)
}

func rungBuild(n, size int) rungOut {
	rec := krecord.Record{Value: make([]byte, size), Timestamp: 1}
	b := krecord.NewBuilder(1)
	var m meter
	m.start(nil)
	for i := 0; i < n; i++ {
		b.Reset()
		must(b.Append(rec))
		buf, err := b.Bytes()
		must(err)
		sink += len(buf)
	}
	m.stop()
	return m.per(n)
}

// rungParse is what a consumer does with a fetched batch: parse, check the
// CRC, iterate the records.
func rungParse(n int) rungOut {
	buf := batchOf(32 << 10)
	var m meter
	m.start(nil)
	for i := 0; i < n; i++ {
		batch, _, err := krecord.Parse(buf)
		must(err)
		must(batch.Validate())
		recs, err := batch.Records()
		must(err)
		sink += len(recs)
	}
	m.stop()
	return m.per(n)
}

// rungAppend fills part of one fresh 64 MiB segment, so first-touch page
// faults are in the number, as they are for every short-lived rig.
func rungAppend(n, size int) rungOut {
	batch, _, err := krecord.Parse(batchOf(size))
	must(err)
	l := klog.New(klog.Config{SegmentSize: 64 << 20})
	var m meter
	m.start(nil)
	for i := 0; i < n; i++ {
		_, _, err := l.Append(batch)
		must(err)
	}
	m.stop()
	l.Release()
	return m.per(n)
}

func rungLogRead(n int) rungOut {
	raw := batchOf(64)
	batch, _, err := krecord.Parse(raw)
	must(err)
	l := klog.New(klog.Config{SegmentSize: 16 << 20})
	const preloaded = 20000
	for i := 0; i < preloaded; i++ {
		_, _, err := l.Append(batch)
		must(err)
	}
	l.AdvanceHW(l.NextOffset())
	var off int64
	var m meter
	m.start(nil)
	for i := 0; i < n; i++ {
		data, err := l.ReadCommitted(off, 2048)
		must(err)
		if off += int64(len(data) / len(raw)); off >= preloaded {
			off = 0
		}
	}
	m.stop()
	l.Release()
	return m.per(n)
}

// rungSegmentCycle is a rig's life as the buffer pool sees it: take a 64 MiB
// segment, dirty the first 1 MiB, hand it back.
func rungSegmentCycle(n int) rungOut {
	var m meter
	m.start(nil)
	for i := 0; i < n; i++ {
		buf := bufpool.Get(64 << 20)
		for j := 0; j < 1<<20; j += 4096 {
			buf[j] = 1
		}
		bufpool.Put(buf, 1<<20)
	}
	m.stop()
	return m.per(n)
}

// quietRig is newRig for rungs: any error means the rung is miswired.
func quietRig(brokers, segment int) (*sim.Env, *core.Cluster) {
	env, cl, err := newRig(rigSpec{seed: 1, brokers: brokers, rf: brokers, segment: segment})
	must(err)
	return env, cl
}

// rungRig builds and tears down a cluster with no traffic: what every data
// point of every figure pays before its first event.
func rungRig(n, brokers int) rungOut {
	var m meter
	m.start(nil)
	for i := 0; i < n; i++ {
		env, cl := quietRig(brokers, 64<<20)
		env.Shutdown()
		cl.Release()
	}
	m.stop()
	return m.per(n)
}

func rungProduce(n int, producer string) rungOut {
	env, cl := quietRig(1, 16<<20)
	var m meter
	driveRig(env, cl, func(p *sim.Proc) {
		pr, err := newProducer(p, cl, producer, 1, "ladder", 1)
		must(err)
		rec := krecord.Record{Value: make([]byte, 64), Timestamp: 1}
		for i := 0; i < 16; i++ {
			_, err := pr.Produce(p, rec)
			must(err)
		}
		m.start(env)
		for i := 0; i < n; i++ {
			_, err := pr.Produce(p, rec)
			must(err)
		}
		m.stop()
		pr.Close()
	})
	return m.per(n)
}

// rungFetch preloads n 64 B records and polls them back; one operation is
// one Poll (the TCP consumer is held to one batch per fetch, as in fig20).
func rungFetch(n int, rdmaRead bool) rungOut {
	env, cl := quietRig(1, 16<<20)
	var m meter
	polls := 0
	driveRig(env, cl, func(p *sim.Proc) {
		pr, err := newProducer(p, cl, "kd_excl", 1, "loader", 1)
		must(err)
		rec := krecord.Record{Value: make([]byte, 64), Timestamp: 1}
		for i := 0; i < n; i++ {
			must(pr.ProduceAsync(p, rec))
		}
		must(pr.Drain(p))
		pr.Close()
		p.Sleep(time.Millisecond)
		e := client.NewEndpoint(cl, "consumer", client.DefaultConfig())
		var co client.Consumer
		if rdmaRead {
			co, err = client.NewRDMAConsumer(p, e, "t", 0, 0)
		} else {
			var tc *client.RPCConsumer
			tc, err = client.NewTCPConsumer(p, e, "t", 0, 0, "perf")
			if err == nil {
				tc.LongPoll, tc.MaxBytesOverride = false, 1
			}
			co = tc
		}
		must(err)
		m.start(env)
		for got := 0; got < n; polls++ {
			recs, err := co.Poll(p)
			must(err)
			got += len(recs)
		}
		m.stop()
		co.Close()
	})
	return m.per(polls)
}
