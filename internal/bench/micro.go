package bench

import (
	"fmt"
	"time"

	"kafkadirect/internal/bufpool"
	"kafkadirect/internal/fabric"
	"kafkadirect/internal/rdma"
	"kafkadirect/internal/sim"
)

// This file reproduces the C/C++ verbs microbenchmarks of §4.2.2 and §4.3.2:
// Fig. 6 (produce approaches), Fig. 7 (notification approaches), and Fig. 8
// (batching of small writes). They run directly on the RDMA simulator — no
// Kafka — to expose the upper bound the hardware offers, exactly like the
// paper's prototypes.

// microRig is a one-responder verbs testbed.
type microRig struct {
	env    *sim.Env
	net    *fabric.Network
	target *rdma.Device
	pd     *rdma.PD
	region *rdma.MR
	word   *rdma.MR // shared order|offset counter
	st     *Stats
}

func newMicroRig(st *Stats, regionSize int) *microRig {
	env := sim.NewEnv(1)
	net := fabric.New(env, fabric.DefaultConfig())
	target := rdma.NewDevice(net.NewNode("target"), rdma.DefaultCosts())
	pd := target.AllocPD()
	// The target region is tens of MiB and rebuilt per data point; pool it so
	// each rig reuses (rather than reallocates and re-zeroes) the span. The
	// RNIC tracks the write high-water mark, bounding the re-zero on return.
	regionBuf := bufpool.Get(regionSize)
	region, err := pd.RegisterMR(regionBuf, rdma.AccessRemoteWrite|rdma.AccessRemoteRead)
	must(err)
	net.OnRelease(func() { bufpool.Put(regionBuf, region.Touched()) })
	wordBuf := make([]byte, 8)
	word, err := pd.RegisterMR(wordBuf, rdma.AccessRemoteAtomic|rdma.AccessRemoteRead)
	must(err)
	return &microRig{env: env, net: net, target: target, pd: pd,
		region: region, word: word, st: st}
}

// run drives the rig until fn returns (virtual deadline as a backstop), then
// unwinds every process, records the executed-event count, and releases the
// fabric, which returns the target region and the large wire buffers to the
// buffer pool — sysRig.run for the verbs testbed.
func (r *microRig) run(deadline time.Duration, fn func(p *sim.Proc)) {
	r.env.Go("driver", func(p *sim.Proc) {
		fn(p)
		r.env.Stop()
	})
	r.env.RunUntil(deadline)
	r.env.Shutdown()
	r.st.AddEvents(r.env.Executed(), r.env.Switches())
	r.net.Release()
}

// client adds a requester machine with a connected QP; the responder side
// consumes receives generously (the microbenchmark has no flow control).
func (r *microRig) client(name string) *rdma.QP {
	dev := rdma.NewDevice(r.net.NewNode(name), rdma.DefaultCosts())
	cqp := dev.CreateQP(rdma.QPConfig{SendDepth: 256})
	tqp := r.target.CreateQP(rdma.QPConfig{})
	must(rdma.Connect(cqp, tqp))
	// Keep the responder's receive queue effectively bottomless. Nothing
	// ever reads what is received, so every receive posts the same buffer.
	sink := make([]byte, 1024)
	r.env.Go(name+"/rq", func(p *sim.Proc) {
		for i := 0; i < 1<<20; i++ {
			if tqp.PostRecv(rdma.RQE{Buf: sink}) != nil {
				return
			}
			if i%512 == 511 {
				p.Sleep(time.Microsecond) // yield; reposting is cheap
			}
			if tqp.RecvPosted() > 4096 {
				p.Sleep(100 * time.Microsecond)
			}
		}
	})
	return cqp
}

// mustPost posts wr and panics on failure. Microbench rigs never inject
// faults, so a rejected work request means the rig itself is miswired — and
// a figure measured over unposted WRs would be silently wrong.
func mustPost(qp *rdma.QP, wr rdma.SendWR) {
	if err := qp.PostSend(wr); err != nil {
		panic("bench: PostSend failed on a fault-free microbench rig: " + err.Error())
	}
}

// window bounds the signaled work requests a requester keeps in flight: the
// post/reap pipeline every goodput microbenchmark runs.
type window struct {
	qp       *rdma.QP
	depth    int
	inflight int
	// reaped, when set, observes every completion the window takes off the
	// send CQ.
	reaped func(cqe rdma.CQE)
}

// admit blocks until fewer than depth completions are outstanding and counts
// one more: the caller posts exactly one signaled WR next.
func (w *window) admit(p *sim.Proc) {
	for w.inflight >= w.depth {
		w.reap(p)
	}
	w.inflight++
}

// reap takes one completion off the send CQ.
func (w *window) reap(p *sim.Proc) {
	cqe := w.qp.SendCQ().Poll(p)
	w.inflight--
	if w.reaped != nil {
		w.reaped(cqe)
	}
}

// flush reaps until nothing is outstanding.
func (w *window) flush(p *sim.Proc) {
	for w.inflight > 0 {
		w.reap(p)
	}
}

// produceMode is one line of Fig. 6.
type produceMode struct {
	name      string
	producers int
	kind      string // "excl", "faa", "cas"
}

// fig06 measures aggregate goodput of the exclusive and shared produce
// protocols. Shared producers pay an atomic reservation per message; CAS can
// fail under contention and retries, FAA always succeeds (§4.2.2).
func fig06(st *Stats) *Table {
	t := &Table{
		ID:      "fig06",
		Title:   "RDMA produce approaches, aggregate goodput (GiB/s) vs message size",
		Columns: []string{"size", "excl_1p", "faa_1p", "faa_2p", "faa_5p", "cas_1p", "cas_5p"},
	}
	modes := []produceMode{
		{"excl_1p", 1, "excl"},
		{"faa_1p", 1, "faa"},
		{"faa_2p", 2, "faa"},
		{"faa_5p", 5, "faa"},
		{"cas_1p", 1, "cas"},
		{"cas_5p", 5, "cas"},
	}
	sizes := []int{64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072, 262144}
	t.addGrid(labels(sizes, sizeLabel), grid(len(sizes), len(modes), func(r, c int) any {
		return microProduceGoodput(st, modes[c], sizes[r])
	}))
	t.Note("shared modes are atomic-limited (~2.68 Mops/s per counter) until messages are large; FAA beats CAS under contention")
	return t
}

// microProduceGoodput pushes messages of one size for a fixed count per
// producer and reports aggregate goodput in GiB/s.
func microProduceGoodput(st *Stats, m produceMode, size int) float64 {
	r := newMicroRig(st, 64<<20)
	count := 3000 / m.producers
	if size >= 65536 {
		count = 600 / m.producers
	}
	done := sim.NewQueue[int]()
	for pi := 0; pi < m.producers; pi++ {
		qp := r.client(fmt.Sprintf("p%d", pi))
		r.env.Go(fmt.Sprintf("prod%d", pi), func(p *sim.Proc) {
			payload := make([]byte, size)
			faaOld := make([]byte, 8)
			w := window{qp: qp, depth: 32}
			lastSeen := uint64(0)
			// pollAtomic waits for the atomic's completion, counting any
			// write completions drained along the way against the window.
			pollAtomic := func() rdma.CQE {
				for {
					cqe := qp.SendCQ().Poll(p)
					if cqe.Op == rdma.OpFetchAdd || cqe.Op == rdma.OpCompSwap {
						return cqe
					}
					w.inflight--
				}
			}
			for i := 0; i < count; i++ {
				var offset int64
				switch m.kind {
				case "excl":
					// A single producer tracks the offset locally.
					offset = int64((pi*count + i) * size % (48 << 20))
				case "faa":
					mustPost(qp, rdma.SendWR{Op: rdma.OpFetchAdd, Local: faaOld,
						RemoteAddr: r.word.Addr(), RKey: r.word.RKey(), Add: uint64(size)})
					offset = int64(pollAtomic().Old % uint64(48<<20))
				case "cas":
					// Compare-and-swap loop: read the last observed value,
					// attempt to bump it, retry on conflict.
					for {
						mustPost(qp, rdma.SendWR{Op: rdma.OpCompSwap, Local: faaOld,
							RemoteAddr: r.word.Addr(), RKey: r.word.RKey(),
							Compare: lastSeen, Swap: lastSeen + uint64(size)})
						cqe := pollAtomic()
						if cqe.Old == lastSeen {
							offset = int64(lastSeen % uint64(48<<20))
							lastSeen += uint64(size)
							break
						}
						lastSeen = cqe.Old
					}
				}
				// The atomic was reaped above, so only writes are outstanding.
				w.admit(p)
				mustPost(qp, rdma.SendWR{Op: rdma.OpWriteImm, Local: payload,
					RemoteAddr: r.region.Addr() + uint64(offset), RKey: r.region.RKey(),
					Imm: uint32(i)})
			}
			w.flush(p)
			done.Push(pi)
		})
	}
	var elapsed time.Duration
	r.run(60*time.Second, func(p *sim.Proc) {
		for i := 0; i < m.producers; i++ {
			done.Pop(p)
		}
		elapsed = p.Now()
	})
	return gibps(count*m.producers*size, elapsed)
}

// fig07 compares WriteWithImm against Write+Send for notifying the broker
// about written data: latency (requester completion round trip) for small
// writes, stacked over write goodput for larger ones. Each block fills its
// own three columns and leaves the other block's blank. The third line
// differs between the blocks as in the paper: a 128 B Send for latency, a
// 512 B Send for goodput. A send size of 0 selects WriteWithImm.
func fig07(st *Stats) *Table {
	t := &Table{
		ID:      "fig07",
		Title:   "Notification approaches: latency (us) for small writes, goodput (GiB/s) for larger",
		Columns: []string{"write_size", "wimm_lat_us", "w+s4_lat_us", "w+s128_lat_us", "wimm_GiBs", "w+s4_GiBs", "w+s512_GiBs"},
	}
	latSizes := []int{8, 16, 32, 64, 128, 256, 512, 1024}
	bwSizes := []int{256, 512, 1024, 2048, 4096, 8192, 16384, 32768}
	latSends := []int{0, 4, 128}
	bwSends := []int{0, 4, 512}
	t.addGrid(labels(latSizes, sizeLabel), grid(len(latSizes), 6, func(r, c int) any {
		if c >= len(latSends) {
			return ""
		}
		return microNotifyLatency(st, latSends[c], latSizes[r])
	}))
	t.addGrid(labels(bwSizes, sizeLabel), grid(len(bwSizes), 6, func(r, c int) any {
		if c < len(latSends) {
			return ""
		}
		return microNotifyGoodput(st, bwSends[c-len(latSends)], bwSizes[r])
	}))
	t.Note("WriteWithImm is ~1us faster for small messages and wins goodput between 1K and 32K (one WR vs two per message)")
	return t
}

// postNotified posts one write of payload at the given region offset and its
// notification: a single WriteWithImm, or an unsignaled Write followed by a
// Send of meta. Either way exactly one signaled completion follows.
func postNotified(qp *rdma.QP, r *microRig, off uint64, payload, meta []byte, imm uint32) {
	if len(meta) == 0 {
		mustPost(qp, rdma.SendWR{Op: rdma.OpWriteImm, Local: payload,
			RemoteAddr: r.region.Addr() + off, RKey: r.region.RKey(), Imm: imm})
		return
	}
	mustPost(qp, rdma.SendWR{Op: rdma.OpWrite, Local: payload,
		RemoteAddr: r.region.Addr() + off, RKey: r.region.RKey(), Unsignaled: true})
	mustPost(qp, rdma.SendWR{Op: rdma.OpSend, Local: meta})
}

func microNotifyLatency(st *Stats, sendSize, writeSize int) time.Duration {
	r := newMicroRig(st, 1<<20)
	qp := r.client("c")
	var lat time.Duration
	r.run(10*time.Second, func(p *sim.Proc) {
		payload := make([]byte, writeSize)
		meta := make([]byte, sendSize)
		lat = mean(closedLoop(p, 1, 50, nil, func() {
			postNotified(qp, r, 0, payload, meta, 1)
			qp.SendCQ().Poll(p)
		}))
	})
	return lat
}

func microNotifyGoodput(st *Stats, sendSize, writeSize int) float64 {
	r := newMicroRig(st, 16<<20)
	qp := r.client("c")
	var elapsed time.Duration
	const n = 3000
	r.run(30*time.Second, func(p *sim.Proc) {
		payload := make([]byte, writeSize)
		meta := make([]byte, sendSize)
		w := window{qp: qp, depth: 64}
		start := p.Now()
		for i := 0; i < n; i++ {
			w.admit(p)
			postNotified(qp, r, uint64(i*writeSize)%uint64(8<<20), payload, meta, uint32(i))
		}
		w.flush(p)
		elapsed = p.Now() - start
	})
	return gibps(n*writeSize, elapsed)
}

// fig08 emulates an overloaded replication leader: 64-byte records arrive at
// 6 GiB/s and contiguous records are merged into single writes up to the
// batch size. Latency is the delay from a record's arrival to its write
// completing; goodput is replicated bytes over time (§4.3.2).
func fig08(st *Stats) *Table {
	t := &Table{
		ID:      "fig08",
		Title:   "Batching 64-byte writes: latency (us) and goodput (GiB/s) vs max batch size",
		Columns: []string{"batch", "latency_us", "goodput_GiBs"},
	}
	batches := []int{64, 128, 256, 512, 1024, 2048, 4096}
	lats := make([]time.Duration, len(batches))
	gputs := make([]float64, len(batches))
	forEach(len(batches), func(i int) {
		lats[i], gputs[i] = microBatching(st, batches[i])
	})
	for i, batch := range batches {
		t.AddRow(sizeLabel(batch), lats[i], gputs[i])
	}
	t.Note("goodput climbs with batch size; latency is flat until batches exceed the 2 KiB packet, then queueing sets in (paper picks 1 KiB)")
	return t
}

func microBatching(st *Stats, maxBatch int) (time.Duration, float64) {
	r := newMicroRig(st, 64<<20)
	qp := r.client("leader")
	// The leader is overloaded: records are always available, so every
	// batch is full (maxBatch bytes of merged 64-byte records). Writes are
	// pipelined; latency is the per-write round trip.
	const totalBatches = 4000
	const depth = 16
	var sumLat, elapsed time.Duration
	r.run(120*time.Second, func(p *sim.Proc) {
		payload := make([]byte, maxBatch)
		posted := make(map[uint64]time.Duration, depth)
		w := window{qp: qp, depth: depth, reaped: func(cqe rdma.CQE) {
			sumLat += p.Now() - posted[cqe.WRID]
		}}
		start := p.Now()
		for i := 0; i < totalBatches; i++ {
			w.admit(p)
			posted[uint64(i)] = p.Now()
			mustPost(qp, rdma.SendWR{Op: rdma.OpWriteImm, WRID: uint64(i), Local: payload,
				RemoteAddr: r.region.Addr() + uint64(i*maxBatch%(32<<20)), RKey: r.region.RKey(), Imm: 1})
		}
		w.flush(p)
		elapsed = p.Now() - start
	})
	return sumLat / totalBatches, gibps(totalBatches*maxBatch, elapsed)
}
