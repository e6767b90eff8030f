package core_test

import (
	"testing"
	"time"

	"kafkadirect/internal/client"
	"kafkadirect/internal/core"
	"kafkadirect/internal/kwire"
	"kafkadirect/internal/rdma"
	"kafkadirect/internal/sim"
)

// This file pins the cost and the bounds of a request that outlives its
// dispatch (DESIGN.md §2.4 "Request lifetime"): parking one — in fetch
// purgatory, as a high-watermark waiter, on a shared file — puts the pooled
// request itself in a list or map, so in steady state it allocates nothing
// that answering the same request at once does not; and a parked fetch leaves
// its list when it is answered, by whichever of data and deadline comes first.

// steady drives one client with a reused encode scratch and reused response
// structs, so that what a cycle allocates is the broker's, not the test's.
type steady struct {
	t    *testing.T
	p    *sim.Proc
	tr   client.Transport
	enc  kwire.Scratch
	pr   kwire.ProduceResp
	fr   kwire.FetchResp
	corr uint32
}

func (s *steady) send(req kwire.Message) {
	s.corr++
	if err := s.tr.Send(s.p, s.enc.Encode(s.corr, req)); err != nil {
		s.t.Fatalf("send %T: %v", req, err)
	}
}

// recv takes the next answer, a produce's or a fetch's, in whichever order
// the broker sends them.
func (s *steady) recv() {
	frame, err := s.tr.Recv(s.p)
	if err != nil {
		s.t.Fatalf("recv: %v", err)
	}
	var into kwire.Message = &s.pr
	if k, _ := kwire.PeekKind(frame); k == s.fr.Kind() {
		into = &s.fr
	}
	if _, err := kwire.DecodeInto(frame, into); err != nil {
		s.t.Fatalf("decode: %v", err)
	}
	s.tr.Recycle(frame)
}

// pin holds the cycle that parks a request to the objects the cycle that
// answers the same request at once allocates, both warm: pools, scratch
// buffers and the kernel's event free list filled. (AllocsPerRun truncates
// the average, so the log index's and the free lists' amortised growth, well
// under one object per cycle, drops out; a closure or a waiter record per
// request does not. Under the race detector the cycles run and the counts
// are not compared.)
func (s *steady) pin(what string, parked, direct func()) {
	s.t.Helper()
	for i := 0; i < 50; i++ {
		parked()
		direct()
	}
	got, want := testing.AllocsPerRun(200, parked), testing.AllocsPerRun(200, direct)
	if got > want && !raceDetector {
		s.t.Errorf("%s allocates %.0f objects in steady state; answered at once, the same request allocates %.0f", what, got, want)
	}
}

// TestParkedRequestAllocatesNothing: every way a request is answered late,
// against the same request answered in its dispatch.
func TestParkedRequestAllocatesNothing(t *testing.T) {
	batch := batchOf(t, 1, 64, 'p')
	big := func(o *core.Options) { o.Config.SegmentSize = 16 << 20 } // no roll in a thousand cycles

	t.Run("long-poll", func(t *testing.T) {
		r := newRig(t, 1, big)
		if err := r.cl.CreateTopic("t", 1, 1); err != nil {
			t.Fatal(err)
		}
		r.drive(func(p *sim.Proc) {
			s := &steady{t: t, p: p}
			s.tr, _ = client.NewTCPTransport(p, r.endpoint("client"), r.cl.Brokers()[0])
			fetch := &kwire.FetchReq{Topic: "t", MaxBytes: 1 << 20, ReplicaID: -1}
			produce := &kwire.ProduceReq{Topic: "t", Acks: 1, Batch: batch}
			// One fetch at the log end and one produce, in either order.
			fetchAndProduce := func(wait time.Duration, fetchFirst bool) {
				fetch.MaxWaitMicros = int64(wait / time.Microsecond)
				if fetchFirst {
					s.send(fetch)
					p.Sleep(200 * us)
					s.send(produce)
				} else {
					s.send(produce)
					p.Sleep(200 * us)
					s.send(fetch)
				}
				s.recv()
				s.recv()
				if s.pr.Err != kwire.ErrNone || s.fr.Err != kwire.ErrNone || len(s.fr.Data) != len(batch) {
					t.Fatalf("produce code %d; fetch code %d, %d bytes", s.pr.Err, s.fr.Err, len(s.fr.Data))
				}
				fetch.Offset++
			}
			s.pin("a long-poll fetch woken by an append",
				func() { fetchAndProduce(5*time.Millisecond, true) },
				func() { fetchAndProduce(5*time.Millisecond, false) })

			emptyFetch := func(wait time.Duration) {
				fetch.MaxWaitMicros = int64(wait / time.Microsecond)
				s.send(fetch)
				s.recv()
				if s.fr.Err != kwire.ErrNone || len(s.fr.Data) != 0 {
					t.Fatalf("fetch at the log end: code %d, %d bytes", s.fr.Err, len(s.fr.Data))
				}
			}
			s.pin("a long-poll fetch that expires",
				func() { emptyFetch(300 * us) },
				func() { emptyFetch(0) })
			p.Sleep(r.cl.Config().FetchLongPollMax)
			r.auditPools(0)
		})
	})

	for _, push := range []bool{false, true} {
		name, parked := "acks-all/pull", 2 // each follower's fetch, parked at the leader
		if push {
			name, parked = "acks-all/push", 0
		}
		t.Run(name, func(t *testing.T) {
			r := newRig(t, 3, func(o *core.Options) {
				big(o)
				o.Config.RDMAReplication = push
			})
			if err := r.cl.CreateTopic("t", 1, 3); err != nil {
				t.Fatal(err)
			}
			r.drive(func(p *sim.Proc) {
				s := &steady{t: t, p: p}
				s.tr, _ = client.NewTCPTransport(p, r.endpoint("client"), r.cl.LeaderOf("t", 0))
				produce := &kwire.ProduceReq{Topic: "t", Batch: batch}
				next := int64(0)
				// Replicated either way; acks=1 is answered before it is.
				produceWith := func(acks int8) {
					produce.Acks = acks
					s.send(produce)
					s.recv()
					if s.pr.Err != kwire.ErrNone || s.pr.BaseOffset != next {
						t.Fatalf("produce acked {code %d, base %d}, want base %d", s.pr.Err, s.pr.BaseOffset, next)
					}
					next++
					p.Sleep(200 * us)
				}
				s.pin("an acks=all produce parked for the high watermark",
					func() { produceWith(-1) },
					func() { produceWith(1) })
				p.Sleep(r.cl.Config().FetchLongPollMax)
				r.auditPools(parked)
			})
		})
	}

	t.Run("kd_shared", func(t *testing.T) {
		r := newRig(t, 1, func(o *core.Options) {
			big(o)
			o.Config.RDMAProduce = true
		})
		if err := r.cl.CreateTopic("t", 1, 1); err != nil {
			t.Fatal(err)
		}
		r.drive(func(p *sim.Proc) {
			rp := r.rawProducer(p, r.endpoint("client"), r.cl.Brokers()[0], kwire.AccessShared)
			s := &steady{t: t, p: p}
			reserve := rdma.SendWR{Op: rdma.OpFetchAdd, Local: make([]byte, 8), RemoteAddr: rp.grant.AtomicAddr,
				RKey: rp.grant.AtomicRKey, Add: core.SharedDelta(len(batch))}
			write := rdma.SendWR{Op: rdma.OpWriteImm, Local: batch, Unsignaled: true, RKey: rp.grant.RKey}
			claim := func() (order uint16, pos int64) {
				if err := rp.qp.PostSend(reserve); err != nil {
					t.Fatal(err)
				}
				return core.UnpackShared(rp.qp.SendCQ().Poll(p).Old)
			}
			fill := func(order uint16, pos int64) {
				write.RemoteAddr, write.Imm = rp.grant.Addr+uint64(pos), core.EncodeImm(order, rp.grant.FileID)
				if err := rp.qp.PostSend(write); err != nil {
					t.Fatal(err)
				}
				p.Sleep(100 * us)
			}
			next := int64(0)
			// Two reservations, filled in either order.
			pair := func(swapped bool) {
				o1, p1 := claim()
				o2, p2 := claim()
				if swapped {
					fill(o2, p2) // parks: o1 has not arrived
					fill(o1, p1) // commits, then drains o2
				} else {
					fill(o1, p1)
					fill(o2, p2)
				}
				rp.ack(p, kwire.ErrNone, next)
				rp.ack(p, kwire.ErrNone, next+1)
				next += 2
			}
			s.pin("a shared-file produce that arrives ahead of its predecessor",
				func() { pair(true) },
				func() { pair(false) })
			p.Sleep(r.cl.Config().ProduceOrderTimeout)
			r.auditPools(0)
		})
	})
}

// TestExpiredLongPollsLeaveAnIdlePartition: a fetch answered by its deadline
// is taken off its purgatory list then, not when the partition next advances —
// which on an idle partition is never. A thousand expired long-polls leave
// both lists empty, and the pool no larger than the polls in flight plus those
// whose deadline timer (armed for the capped wait) is still to fire.
func TestExpiredLongPollsLeaveAnIdlePartition(t *testing.T) {
	const polls, inFlight = 1000, 4
	r := newRig(t, 1, nil)
	if err := r.cl.CreateTopic("t", 1, 1); err != nil {
		t.Fatal(err)
	}
	b := r.cl.Brokers()[0]
	r.drive(func(p *sim.Proc) {
		w := r.dial(p, r.endpoint("client"), b, false)
		fetch := &kwire.FetchReq{Topic: "t", MaxBytes: 1 << 20, MaxWaitMicros: 100, ReplicaID: -1}
		for i := 0; i < polls/inFlight; i++ {
			for _, resp := range w.exchange(p, fetch, fetch, fetch, fetch) {
				if fr := resp.(*kwire.FetchResp); fr.Err != kwire.ErrNone || len(fr.Data) != 0 {
					t.Fatalf("poll %d: code %d, %d bytes", i, fr.Err, len(fr.Data))
				}
			}
			if n := b.Partition("t", 0).Purgatory(); n != 0 {
				t.Fatalf("after %d expired long-polls %d are still in purgatory", (i+1)*inFlight, n)
			}
		}
		if made := b.RequestsMade(); made > inFlight {
			t.Errorf("the pool made %d requests for %d long-polls in flight", made, inFlight)
		}
		r.auditPools(0)
	})
}
