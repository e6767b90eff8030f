package core_test

import (
	"reflect"
	"testing"
	"time"

	"kafkadirect/internal/client"
	"kafkadirect/internal/core"
	"kafkadirect/internal/group"
	"kafkadirect/internal/krecord"
	"kafkadirect/internal/kwire"
	"kafkadirect/internal/obs"
	"kafkadirect/internal/rdma"
	"kafkadirect/internal/sim"
)

// This file tests the broker's request funnels (DESIGN.md §2.4) from the
// wire: whatever a client sends, over whichever transport, it gets exactly
// one answer — of the request's response kind, under the request's
// correlation id — or, for a frame that is no request, none; and every
// pooled request the broker took for it comes back exactly once.

// wire is a raw client connection: frames in, frames out, no client stack in
// between to retry, match or drop anything.
type wire struct {
	t    *testing.T
	tr   client.Transport
	got  *sim.Queue[[]byte] // every frame the broker sent, in arrival order
	corr uint32
}

func (r *rig) dial(p *sim.Proc, ep *client.Endpoint, b *core.Broker, osu bool) *wire {
	r.t.Helper()
	dial := client.NewTCPTransport
	if osu {
		dial = client.NewOSUTransport
	}
	tr, err := dial(p, ep, b)
	if err != nil {
		r.t.Fatalf("dial %s: %v", b.ID(), err)
	}
	w := &wire{t: r.t, tr: tr, got: sim.NewQueue[[]byte]()}
	r.env.Go("wire-reader", func(p *sim.Proc) {
		for {
			frame, err := tr.Recv(p)
			if err != nil {
				return
			}
			w.got.Push(frame)
		}
	})
	return w
}

// exchange sends the requests back to back and collects one answer to each,
// in whatever order they come: an answer under a correlation id that is not
// outstanding — one of an earlier exchange, or a second one of this — fails,
// as does an answer of any kind but the request's own response kind.
func (w *wire) exchange(p *sim.Proc, reqs ...kwire.Message) []kwire.Message {
	w.t.Helper()
	first := w.corr + 1
	for _, req := range reqs {
		w.corr++
		if err := w.tr.Send(p, kwire.Encode(w.corr, req)); err != nil {
			w.t.Fatalf("send %T: %v", req, err)
		}
	}
	resps := make([]kwire.Message, len(reqs))
	for range reqs {
		frame, ok := w.got.PopTimeout(p, time.Second)
		if !ok {
			w.t.Fatalf("no answer to one of %d requests starting with %T", len(reqs), reqs[0])
		}
		corr, resp, err := kwire.Decode(frame)
		if err != nil {
			w.t.Fatalf("undecodable answer: %v", err)
		}
		i := int(corr) - int(first)
		if i < 0 || i >= len(reqs) || resps[i] != nil {
			w.t.Fatalf("answer %T under correlation id %d, which is not outstanding", resp, corr)
		}
		if resp.Kind() != reqs[i].Kind()+1 {
			w.t.Fatalf("%T answered with %T", reqs[i], resp)
		}
		resps[i] = resp
	}
	return resps
}

// expect runs one exchange of one request and checks the answer's error code.
func (w *wire) expect(p *sim.Proc, req kwire.Message, want kwire.ErrCode) kwire.Message {
	w.t.Helper()
	resp := w.exchange(p, req)[0]
	if got := errOf(resp); got != want {
		w.t.Fatalf("%T: error code %d, want %d", req, got, want)
	}
	return resp
}

// errOf reads the Err field every response but MetadataResp has.
func errOf(resp kwire.Message) kwire.ErrCode {
	f := reflect.ValueOf(resp).Elem().FieldByName("Err")
	if !f.IsValid() {
		return kwire.ErrNone
	}
	return kwire.ErrCode(f.Int())
}

// silent waits out the longest time a broker may sit on a request and fails
// if anything arrived that no exchange was waiting for.
func (w *wire) silent(p *sim.Proc, d time.Duration) {
	w.t.Helper()
	p.Sleep(d)
	if n := w.got.Len(); n != 0 {
		_, resp, _ := kwire.Decode(w.got.Pop(p))
		w.t.Fatalf("%d unsolicited frames, the first a %T", n, resp)
	}
}

// auditPools checks every broker's request pool once the rig is idle. parked
// is how many requests a broker may legitimately still hold.
func (r *rig) auditPools(parked int) {
	r.t.Helper()
	for _, b := range r.cl.Brokers() {
		if err := b.CheckRequestPool(parked); err != nil {
			r.t.Error(err)
		}
	}
}

func testGroupConfig() group.Config {
	cfg := group.DefaultConfig()
	cfg.RebalanceDelay = time.Millisecond
	return cfg
}

func batchOf(t testing.TB, n, size int, tag byte) []byte {
	t.Helper()
	raw, err := krecord.Encode(1, recordsOf(n, size, tag)...)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestEveryRequestKindIsAnsweredOnce(t *testing.T) {
	for _, osu := range []bool{false, true} {
		name := "tcp"
		if osu {
			name = "osu"
		}
		t.Run(name+"/served", func(t *testing.T) { testServed(t, osu) })
		t.Run(name+"/wrong-broker", func(t *testing.T) { testWrongBroker(t, osu) })
		t.Run(name+"/groups-disabled", func(t *testing.T) { testGroupsDisabled(t, osu) })
	}
}

// testServed walks all 15 request kinds down their served path on one
// broker, with the refusals that need nothing but a wrong argument (an
// unknown or already existing topic, a file under exclusive grant) beside
// them, and every way a fetch can be answered: with data, empty at once,
// empty at its deadline, and from purgatory when data arrives.
func testServed(t *testing.T, osu bool) {
	r := newRig(t, 1, func(o *core.Options) { o.Config = o.Config.WithRDMA() })
	if err := r.cl.EnableGroups(1, 1, testGroupConfig()); err != nil {
		t.Fatal(err)
	}
	b := r.cl.Brokers()[0]
	longPoll := r.cl.Config().FetchLongPollMax
	r.drive(func(p *sim.Proc) {
		ep := r.endpoint("client")
		w := r.dial(p, ep, b, osu)
		batch := batchOf(t, 1, 64, 'a')

		w.expect(p, &kwire.CreateTopicReq{Topic: "t", Partitions: 1, ReplicationFactor: 1}, kwire.ErrNone)
		w.expect(p, &kwire.CreateTopicReq{Topic: "t", Partitions: 1, ReplicationFactor: 1}, kwire.ErrTopicExists)
		md := w.expect(p, &kwire.MetadataReq{Topics: []string{"t", "nope"}}, kwire.ErrNone).(*kwire.MetadataResp)
		if len(md.Topics) != 2 || len(md.Topics[0].Partitions) != 1 || md.Topics[1].Err != kwire.ErrUnknownTopic {
			t.Fatalf("metadata: %+v", md.Topics)
		}

		pr := w.expect(p, &kwire.ProduceReq{Topic: "t", Acks: -1, Batch: batch}, kwire.ErrNone).(*kwire.ProduceResp)
		if pr.BaseOffset != 0 {
			t.Fatalf("first produce at offset %d", pr.BaseOffset)
		}
		w.expect(p, &kwire.ProduceReq{Topic: "t", Acks: -1, Batch: batch[:len(batch)-1]}, kwire.ErrInvalidRecord)
		w.expect(p, &kwire.ProduceReq{Topic: "nope", Batch: batch}, kwire.ErrUnknownTopic)

		fetch := func(offset int64, wait time.Duration) *kwire.FetchReq {
			return &kwire.FetchReq{Topic: "t", Offset: offset, MaxBytes: 1 << 20,
				MaxWaitMicros: int64(wait / time.Microsecond), ReplicaID: -1}
		}
		if fr := w.expect(p, fetch(0, 0), kwire.ErrNone).(*kwire.FetchResp); len(fr.Data) != len(batch) || fr.HighWatermark != 1 {
			t.Fatalf("fetch at 0: %d bytes, hw %d", len(fr.Data), fr.HighWatermark)
		}
		if fr := w.expect(p, fetch(1, 0), kwire.ErrNone).(*kwire.FetchResp); len(fr.Data) != 0 {
			t.Fatalf("fetch at the log end returned %d bytes", len(fr.Data))
		}
		start := p.Now()
		w.expect(p, fetch(1, 500*us), kwire.ErrNone)
		if waited := p.Now() - start; waited < 500*us {
			t.Fatalf("parked fetch answered after %v, before its deadline", waited)
		}
		w.expect(p, fetch(7, 0), kwire.ErrOffsetOutOfRange)
		nope := fetch(0, 0)
		nope.Topic = "nope"
		w.expect(p, nope, kwire.ErrUnknownTopic)
		// Parked, then woken by the produce behind it: its deadline timer is
		// still armed when it is answered and must not answer again.
		both := w.exchange(p, fetch(1, time.Second), &kwire.ProduceReq{Topic: "t", Acks: -1, Batch: batch})
		if fr := both[0].(*kwire.FetchResp); fr.Err != kwire.ErrNone || len(fr.Data) != len(batch) {
			t.Fatalf("fetch woken from purgatory: code %d, %d bytes", fr.Err, len(fr.Data))
		}

		w.expect(p, &kwire.OffsetCommitReq{Group: "legacy", Topic: "t", Offset: 2}, kwire.ErrNone)
		if of := w.expect(p, &kwire.OffsetFetchReq{Group: "legacy", Topic: "t"}, kwire.ErrNone).(*kwire.OffsetFetchResp); of.Offset != 2 {
			t.Fatalf("offset fetch: %d", of.Offset)
		}

		_, csess, err := b.ConnectConsumer(ep.Device())
		if err != nil {
			t.Fatal(err)
		}
		ca := w.expect(p, &kwire.ConsumeAccessReq{Topic: "t", Session: csess}, kwire.ErrNone).(*kwire.ConsumeAccessResp)
		w.expect(p, &kwire.ReleaseFileReq{Topic: "t", FileID: ca.FileID, Session: csess}, kwire.ErrNone)
		w.expect(p, &kwire.ConsumeAccessReq{Topic: "nope", Session: csess}, kwire.ErrUnknownTopic)
		w.expect(p, &kwire.ConsumeAccessReq{Topic: "t", Session: csess + 99}, kwire.ErrAccessDenied)
		w.expect(p, &kwire.ReleaseFileReq{Topic: "nope", Session: csess}, kwire.ErrUnknownTopic)

		_, psess, err := b.ConnectProducer(ep.Device())
		if err != nil {
			t.Fatal(err)
		}
		w.expect(p, &kwire.ProduceAccessReq{Topic: "nope", Session: psess}, kwire.ErrUnknownTopic)
		w.expect(p, &kwire.ProduceAccessReq{Topic: "t", Mode: kwire.AccessExclusive, Session: psess}, kwire.ErrNone)
		_, psess2, err := b.ConnectProducer(ep.Device())
		if err != nil {
			t.Fatal(err)
		}
		w.expect(p, &kwire.ProduceAccessReq{Topic: "t", Mode: kwire.AccessExclusive, Session: psess2}, kwire.ErrAccessDenied)
		w.expect(p, &kwire.ProduceReq{Topic: "t", Batch: batch}, kwire.ErrAccessDenied)

		join := w.expect(p, &kwire.JoinGroupReq{Group: "g", Topics: []string{"t"}}, kwire.ErrNone).(*kwire.JoinGroupResp)
		member, gen := join.MemberID, join.Generation
		if sy := w.expect(p, &kwire.SyncGroupReq{Group: "g", MemberID: member, Generation: gen}, kwire.ErrNone).(*kwire.SyncGroupResp); len(sy.Assigned) != 1 {
			t.Fatalf("sync assigned %v", sy.Assigned)
		}
		w.expect(p, &kwire.HeartbeatReq{Group: "g", MemberID: member, Generation: gen}, kwire.ErrNone)
		w.expect(p, &kwire.HeartbeatReq{Group: "g", MemberID: "stranger", Generation: gen}, kwire.ErrUnknownMember)
		w.expect(p, &kwire.GroupCommitReq{Group: "g", MemberID: member, Generation: gen, Topic: "t", Offset: 2}, kwire.ErrNone)
		w.expect(p, &kwire.GroupCommitReq{Group: "g", MemberID: member, Generation: gen + 1, Topic: "t", Offset: 2}, kwire.ErrIllegalGeneration)
		p.Sleep(time.Millisecond) // the harvester registers the generation's commit table
		if cr := w.expect(p, &kwire.CommitAccessReq{Group: "g", MemberID: member, Generation: gen}, kwire.ErrNone).(*kwire.CommitAccessResp); cr.Cells != 1 {
			t.Fatalf("commit access: %d cells", cr.Cells)
		}
		if of := w.expect(p, &kwire.OffsetFetchReq{Group: "g", Topic: "t"}, kwire.ErrNone).(*kwire.OffsetFetchResp); of.Offset != 2 {
			t.Fatalf("group offset fetch: %d", of.Offset)
		}
		w.expect(p, &kwire.LeaveGroupReq{Group: "g", MemberID: member}, kwire.ErrNone)
		w.expect(p, &kwire.LeaveGroupReq{Group: "g", MemberID: member}, kwire.ErrUnknownMember)

		w.silent(p, longPoll)
		r.auditPools(0)
	})
}

// testWrongBroker asks a broker that hosts a partition but does not lead it,
// and one that does not coordinate the group: every kind that names a
// partition or a group is refused, once.
func testWrongBroker(t *testing.T, osu bool) {
	r := newRig(t, 3, func(o *core.Options) { o.Config = o.Config.WithRDMA() })
	if err := r.cl.EnableGroups(1, 1, testGroupConfig()); err != nil {
		t.Fatal(err)
	}
	if err := r.cl.CreateTopic("t", 1, 3); err != nil {
		t.Fatal(err)
	}
	var follower, bystander *core.Broker
	for _, b := range r.cl.Brokers() {
		if b != r.cl.LeaderOf("t", 0) {
			follower = b
		}
		if b != r.cl.CoordinatorBroker("g") {
			bystander = b
		}
	}
	r.drive(func(p *sim.Proc) {
		ep := r.endpoint("client")
		batch := batchOf(t, 1, 64, 'a')

		w := r.dial(p, ep, follower, osu)
		_, psess, _ := follower.ConnectProducer(ep.Device())
		_, csess, _ := follower.ConnectConsumer(ep.Device())
		w.expect(p, &kwire.ProduceReq{Topic: "t", Batch: batch}, kwire.ErrNotLeader)
		w.expect(p, &kwire.FetchReq{Topic: "t", MaxBytes: 1 << 20, MaxWaitMicros: 1000, ReplicaID: -1}, kwire.ErrNotLeader)
		w.expect(p, &kwire.ProduceAccessReq{Topic: "t", Session: psess}, kwire.ErrNotLeader)
		w.expect(p, &kwire.ConsumeAccessReq{Topic: "t", Session: csess}, kwire.ErrNotLeader)

		g := r.dial(p, ep, bystander, osu)
		g.expect(p, &kwire.JoinGroupReq{Group: "g", Topics: []string{"t"}}, kwire.ErrNotCoordinator)
		g.expect(p, &kwire.SyncGroupReq{Group: "g", MemberID: "m"}, kwire.ErrNotCoordinator)
		g.expect(p, &kwire.HeartbeatReq{Group: "g", MemberID: "m"}, kwire.ErrNotCoordinator)
		g.expect(p, &kwire.LeaveGroupReq{Group: "g", MemberID: "m"}, kwire.ErrNotCoordinator)
		g.expect(p, &kwire.GroupCommitReq{Group: "g", MemberID: "m", Topic: "t"}, kwire.ErrNotCoordinator)
		g.expect(p, &kwire.CommitAccessReq{Group: "g", MemberID: "m"}, kwire.ErrNotCoordinator)
		g.expect(p, &kwire.OffsetFetchReq{Group: "g", Topic: "t"}, kwire.ErrNone)

		w.silent(p, r.cl.Config().FetchLongPollMax)
		g.silent(p, 0)
		r.auditPools(0)
	})
}

func testGroupsDisabled(t *testing.T, osu bool) {
	r := newRig(t, 1, nil)
	r.drive(func(p *sim.Proc) {
		w := r.dial(p, r.endpoint("client"), r.cl.Brokers()[0], osu)
		w.expect(p, &kwire.JoinGroupReq{Group: "g", Topics: []string{"t"}}, kwire.ErrInternal)
		w.expect(p, &kwire.SyncGroupReq{Group: "g", MemberID: "m"}, kwire.ErrInternal)
		w.expect(p, &kwire.HeartbeatReq{Group: "g", MemberID: "m"}, kwire.ErrInternal)
		w.expect(p, &kwire.LeaveGroupReq{Group: "g", MemberID: "m"}, kwire.ErrInternal)
		w.expect(p, &kwire.GroupCommitReq{Group: "g", MemberID: "m", Topic: "t"}, kwire.ErrInternal)
		w.expect(p, &kwire.CommitAccessReq{Group: "g", MemberID: "m"}, kwire.ErrInternal)
		// The one-sided modules are off too.
		w.expect(p, &kwire.ProduceAccessReq{Topic: "t"}, kwire.ErrAccessDenied)
		w.expect(p, &kwire.ConsumeAccessReq{Topic: "t"}, kwire.ErrAccessDenied)
		w.silent(p, r.cl.Config().FetchLongPollMax)
		r.auditPools(0)
	})
}

// TestFrameThatIsNoRequestIsDropped: a response-kind frame and a truncated
// request cost the broker nothing past the network thread — no pooled
// message, no hand-off, no API worker — and leave the connection usable.
func TestFrameThatIsNoRequestIsDropped(t *testing.T) {
	for _, osu := range []bool{false, true} {
		r := newRig(t, 1, nil)
		b := r.cl.Brokers()[0]
		r.drive(func(p *sim.Proc) {
			w := r.dial(p, r.endpoint("client"), b, osu)
			w.expect(p, &kwire.MetadataReq{}, kwire.ErrNone)
			before, _, _ := b.Stats()

			stray := kwire.Encode(100, &kwire.FetchResp{Data: make([]byte, 512<<10)})
			torn := kwire.Encode(101, &kwire.ProduceReq{Topic: "t", Batch: batchOf(t, 1, 64, 'a')})
			for _, frame := range [][]byte{stray, torn[:len(torn)/2], {byte(kwire.KindMax) + 1, 0, 0, 0, 0}, {}} {
				if err := w.tr.Send(p, frame); err != nil {
					t.Fatal(err)
				}
			}
			w.silent(p, time.Millisecond)
			if after, _, _ := b.Stats(); after != before {
				t.Errorf("osu=%v: %d requests reached the API workers from frames that are no request", osu, after-before)
			}
			w.expect(p, &kwire.MetadataReq{}, kwire.ErrNone)
			r.auditPools(0)
		})
	}
}

// ---------------------------------------------------------------------------
// One-sided produce: the answer is an ack on the producer's QP
// ---------------------------------------------------------------------------

// rawProducer drives the broker's RDMA produce module verb by verb, so that
// every acknowledgement the broker sends is seen and counted.
type rawProducer struct {
	t       *testing.T
	qp      *rdma.QP
	ctl     *wire
	mode    kwire.AccessMode
	session uint32
	grant   *kwire.ProduceAccessResp
	acks    *sim.Queue[kwire.ProduceResp]
	// arrivals, when set, logs this producer's session id as each of its acks
	// lands: the order of arrival across the producers that share the log.
	arrivals *[]uint32
}

func (r *rig) rawProducer(p *sim.Proc, ep *client.Endpoint, b *core.Broker, mode kwire.AccessMode) *rawProducer {
	r.t.Helper()
	qp, session, err := b.ConnectProducer(ep.Device())
	if err != nil {
		r.t.Fatal(err)
	}
	ring := ep.Device().NewRecvRing(16, 64)
	if err := ring.PostAll(qp); err != nil {
		r.t.Fatal(err)
	}
	rp := &rawProducer{t: r.t, qp: qp, ctl: r.dial(p, ep, b, false), mode: mode, session: session,
		acks: sim.NewQueue[kwire.ProduceResp]()}
	r.env.Go("ack-reader", func(p *sim.Proc) {
		for {
			cqe := qp.RecvCQ().Poll(p)
			if cqe.Status != rdma.StatusOK {
				return
			}
			var ack kwire.ProduceResp
			if _, err := kwire.DecodeInto(ring.Frame(cqe), &ack); err != nil {
				r.t.Errorf("undecodable ack: %v", err)
			}
			if err := ring.Post(qp, int(cqe.WRID)); err != nil {
				return
			}
			if rp.arrivals != nil {
				*rp.arrivals = append(*rp.arrivals, rp.session)
			}
			rp.acks.Push(ack)
		}
	})
	rp.access(p)
	return rp
}

// access (re)requests the head file over the control connection.
func (rp *rawProducer) access(p *sim.Proc) {
	rp.t.Helper()
	req := &kwire.ProduceAccessReq{Topic: "t", Mode: rp.mode, Session: rp.session}
	rp.grant = rp.ctl.expect(p, req, kwire.ErrNone).(*kwire.ProduceAccessResp)
}

// reserve claims the next region of the granted file: locally under an
// exclusive grant, with a fetch-and-add on the shared word otherwise.
func (rp *rawProducer) reserve(p *sim.Proc, size int) (order uint16, pos int64) {
	rp.t.Helper()
	if rp.mode == kwire.AccessExclusive {
		pos = rp.grant.WritePos
		rp.grant.WritePos += int64(size)
		return 0, pos
	}
	err := rp.qp.PostSend(rdma.SendWR{Op: rdma.OpFetchAdd, Local: make([]byte, 8),
		RemoteAddr: rp.grant.AtomicAddr, RKey: rp.grant.AtomicRKey, Add: core.SharedDelta(size)})
	if err != nil {
		rp.t.Fatal(err)
	}
	cqe := rp.qp.SendCQ().Poll(p)
	if cqe.Status != rdma.StatusOK {
		rp.t.Fatalf("fetch-and-add: %v", cqe.Status)
	}
	return core.UnpackShared(cqe.Old)
}

// write reserves a region, fills it with one WRITE and notifies the broker.
func (rp *rawProducer) write(p *sim.Proc, batch []byte) {
	rp.t.Helper()
	order, pos := rp.reserve(p, len(batch))
	err := rp.qp.PostSend(rdma.SendWR{Op: rdma.OpWriteImm, Local: batch, Unsignaled: true,
		RemoteAddr: rp.grant.Addr + uint64(pos), RKey: rp.grant.RKey, Imm: core.EncodeImm(order, rp.grant.FileID)})
	if err != nil {
		rp.t.Fatal(err)
	}
}

func (rp *rawProducer) ack(p *sim.Proc, want kwire.ErrCode, base int64) {
	rp.t.Helper()
	ack, ok := rp.acks.PopTimeout(p, time.Second)
	if !ok {
		rp.t.Fatal("no ack")
	}
	if ack.Err != want || (want == kwire.ErrNone && ack.BaseOffset != base) {
		rp.t.Fatalf("ack {code %d, base %d}, want {code %d, base %d}", ack.Err, ack.BaseOffset, want, base)
	}
}

func (rp *rawProducer) silent(p *sim.Proc, d time.Duration) {
	rp.t.Helper()
	p.Sleep(d)
	if n := rp.acks.Len(); n != 0 {
		rp.t.Fatalf("%d acks nobody was owed", n)
	}
}

// TestOneSidedProduceIsAckedOnce: every WRITE a producer notifies is
// acknowledged exactly once over its QP — when committed (rf=1), when the
// followers have it (rf=3, either replication datapath), when refused as
// garbage, or when aborted with its file because a predecessor never showed
// up — and the request that carried it, which now lives until that ack, goes
// back to the pool.
func TestOneSidedProduceIsAckedOnce(t *testing.T) {
	for _, mode := range []kwire.AccessMode{kwire.AccessExclusive, kwire.AccessShared} {
		for _, repl := range []string{"rf1", "rf3-pull", "rf3-push"} {
			t.Run(mode.String()+"/"+repl, func(t *testing.T) {
				brokers, rf, parked := 3, 3, 0
				switch repl {
				case "rf1":
					brokers, rf = 1, 1
				case "rf3-pull":
					parked = 2 // each follower keeps one fetch in the leader's purgatory
				}
				r := newRig(t, brokers, func(o *core.Options) {
					o.Config.RDMAProduce = true
					o.Config.RDMAReplication = repl == "rf3-push"
				})
				if err := r.cl.CreateTopic("t", 1, rf); err != nil {
					t.Fatal(err)
				}
				longPoll := r.cl.Config().FetchLongPollMax
				r.drive(func(p *sim.Proc) {
					rp := r.rawProducer(p, r.endpoint("client"), r.cl.LeaderOf("t", 0), mode)
					batch := batchOf(t, 1, 64, 'a')

					for i := int64(0); i < 3; i++ {
						rp.write(p, batch)
						rp.ack(p, kwire.ErrNone, i)
					}
					for i := 0; i < 4; i++ { // pipelined: the commits queue on the partition lock
						rp.write(p, batch)
					}
					for i := int64(3); i < 7; i++ {
						rp.ack(p, kwire.ErrNone, i)
					}
					rp.silent(p, longPoll)

					if mode == kwire.AccessShared {
						// A reservation nobody fills: the produce behind it
						// parks, and is aborted when the hole times out and
						// the file is revoked under it.
						rp.reserve(p, len(batch))
						rp.write(p, batch)
						rp.ack(p, kwire.ErrRevoked, 0)
						rp.silent(p, longPoll)
						rp.access(p)
					}
					rp.write(p, make([]byte, len(batch))) // garbage: revoke, then refuse
					rp.ack(p, kwire.ErrInvalidRecord, 0)
					rp.silent(p, longPoll)
					rp.ctl.silent(p, 0)
					r.auditPools(parked)
				})
			})
		}
	}
}

// TestWriteSendLengthPastTheFileEndIsRefused: the length in a Write+Send
// metadata frame is a peer's 32 bits. One that claims more than the file
// holds is garbage like any other — the file is revoked, the produce refused,
// once — where it used to slice the segment out of range on an API worker.
func TestWriteSendLengthPastTheFileEndIsRefused(t *testing.T) {
	r := newRig(t, 1, func(o *core.Options) { o.Config.RDMAProduce = true })
	if err := r.cl.CreateTopic("t", 1, 1); err != nil {
		t.Fatal(err)
	}
	r.drive(func(p *sim.Proc) {
		rp := r.rawProducer(p, r.endpoint("client"), r.cl.Brokers()[0], kwire.AccessExclusive)
		meta := core.EncodeWriteSendMeta(0, rp.grant.FileID, int(rp.grant.FileLen)+1, 0)
		if err := rp.qp.PostSend(rdma.SendWR{Op: rdma.OpSend, Local: meta, Unsignaled: true}); err != nil {
			t.Fatal(err)
		}
		rp.ack(p, kwire.ErrInvalidRecord, 0)
		rp.silent(p, r.cl.Config().FetchLongPollMax)
		r.auditPools(0)
	})
}

// TestRevokedFileAbortsItsProducesInOrder: four shared-mode producers parked
// behind a reservation nobody fills are aborted together by the hole timeout,
// and whose ack is posted first numbers every event after it: it has to be
// the same on every run (they were answered in Go's map order), and it is the
// order of their reservations.
func TestRevokedFileAbortsItsProducesInOrder(t *testing.T) {
	for run := 0; run < 40; run++ {
		r := newRig(t, 1, func(o *core.Options) { o.Config.RDMAProduce = true })
		if err := r.cl.CreateTopic("t", 1, 1); err != nil {
			t.Fatal(err)
		}
		var arrivals, want []uint32
		r.drive(func(p *sim.Proc) {
			ep, b, batch := r.endpoint("client"), r.cl.Brokers()[0], batchOf(t, 1, 64, 'a')
			var rps []*rawProducer
			for i := 0; i < 4; i++ {
				rp := r.rawProducer(p, ep, b, kwire.AccessShared)
				rp.arrivals = &arrivals
				rps = append(rps, rp)
				want = append(want, rp.session)
			}
			rps[0].reserve(p, len(batch)) // the hole
			for _, rp := range rps {
				rp.write(p, batch)
			}
			for _, rp := range rps {
				rp.ack(p, kwire.ErrRevoked, 0)
			}
			p.Sleep(r.cl.Config().ProduceOrderTimeout) // the later three's own timeouts hold them
			r.auditPools(0)
		})
		if !reflect.DeepEqual(arrivals, want) {
			t.Fatalf("run %d: acks arrived in session order %v, reservations were made in %v", run, arrivals, want)
		}
	}
}

// TestOnlyAFollowerIsAReplica: a fetch that names a replica id doubles as that
// replica's acknowledgement, so it is honoured only from the follower itself.
// With both followers cut off at log end 0, a plain client claiming their ids
// used to move the high watermark over a record neither holds — acks=all then
// acknowledges unreplicated data — and was served uncommitted bytes.
func TestOnlyAFollowerIsAReplica(t *testing.T) {
	r := newRig(t, 3, nil)
	if err := r.cl.CreateTopic("t", 1, 3); err != nil {
		t.Fatal(err)
	}
	leader := r.cl.LeaderOf("t", 0)
	r.drive(func(p *sim.Proc) {
		var claims []kwire.Message // one per follower, then the leader's own id and nobody's
		for i, b := range r.cl.Brokers() {
			if b != leader {
				r.cl.Network().CutLink(leader.Node(), b.Node())
			}
			claims = append(claims, &kwire.FetchReq{Topic: "t", Offset: 1, MaxBytes: 1 << 20, ReplicaID: int32(i)})
		}
		claims = append(claims, &kwire.FetchReq{Topic: "t", Offset: 1, MaxBytes: 1 << 20, ReplicaID: 7})
		w := r.dial(p, r.endpoint("client"), leader, false)
		w.expect(p, &kwire.ProduceReq{Topic: "t", Acks: 1, Batch: batchOf(t, 1, 64, 'a')}, kwire.ErrNone)
		resps := w.exchange(p, claims...)
		if hw := leader.Partition("t", 0).Log().HighWatermark(); hw != 0 {
			t.Errorf("a client moved the high watermark to %d", hw)
		}
		for i, b := range r.cl.Brokers() {
			if leo := b.Partition("t", 0).Log().NextOffset(); b != leader && leo != 0 {
				t.Fatalf("follower %d holds %d records: the links were not cut", i, leo)
			}
		}
		for i, resp := range resps {
			if fr := resp.(*kwire.FetchResp); fr.Err != kwire.ErrAccessDenied || len(fr.Data) != 0 {
				t.Errorf("claim %d (replica id %d): code %d, %d bytes", i, claims[i].(*kwire.FetchReq).ReplicaID, fr.Err, len(fr.Data))
			}
		}
		w.silent(p, r.cl.Config().FetchLongPollMax)
	})
}

// TestPipelinedFloodReturnsEveryRequest: under acks-from-all-replicas a
// one-sided produce's request outlives its dispatch, parked as a
// high-watermark waiter while later produces are dispatched; a full window of
// them, 2000 times over, must come back to the pool once each.
func TestPipelinedFloodReturnsEveryRequest(t *testing.T) {
	r := newRig(t, 3, func(o *core.Options) { o.Config = o.Config.WithRDMA() })
	if err := r.cl.CreateTopic("t", 1, 3); err != nil {
		t.Fatal(err)
	}
	const n = 2000
	r.drive(func(p *sim.Proc) {
		pr, err := client.NewRDMAProducer(p, r.endpoint("client"), "t", 0, kwire.AccessExclusive, 1)
		if err != nil {
			t.Fatal(err)
		}
		rec := recordsOf(1, 64, 'f')
		for i := 0; i < n; i++ {
			if err := pr.ProduceAsync(p, rec...); err != nil {
				t.Fatalf("produce %d: %v", i, err)
			}
		}
		if err := pr.Drain(p); err != nil {
			t.Fatal(err)
		}
		if hw := r.cl.LeaderOf("t", 0).Partition("t", 0).Log().HighWatermark(); hw != n {
			t.Fatalf("high watermark %d after %d acked records", hw, n)
		}
		p.Sleep(r.cl.Config().FetchLongPollMax)
		r.auditPools(0)
	})
}

// TestReplicaWriteCompletionIsTraced: the RDMA module stamps its stage once
// for all three of its request sources, so a push-replicated produce shows as
// a broker.rdma_poll span on each follower's track; and a tracer only
// records — the run ends at the same instant after the same events.
func TestReplicaWriteCompletionIsTraced(t *testing.T) {
	run := func(o *obs.Obs) *rig {
		r := newRig(t, 3, func(op *core.Options) {
			op.Config.RDMAReplication = true
			op.Obs = o
		})
		if err := r.cl.CreateTopic("t", 1, 3); err != nil {
			t.Fatal(err)
		}
		r.drive(func(p *sim.Proc) {
			pr, err := client.NewTCPProducer(p, r.endpoint("client"), "t", 0, -1, 1)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if _, err := pr.Produce(p, recordsOf(1, 64, 't')...); err != nil {
					t.Fatal(err)
				}
			}
		})
		return r
	}
	plain := run(nil)
	o := obs.New(1 << 16)
	traced := run(o)
	if traced.env.Now() != plain.env.Now() || traced.env.Executed() != plain.env.Executed() {
		t.Errorf("tracing perturbed the run: ends at %v after %d events, plain at %v after %d",
			traced.env.Now(), traced.env.Executed(), plain.env.Now(), plain.env.Executed())
	}
	leader := traced.cl.LeaderOf("t", 0)
	for _, b := range traced.cl.Brokers() {
		polls := 0
		for _, sp := range o.Tracer().Spans() {
			if sp.Name == "broker.rdma_poll" && sp.Track == b.Node().Track() {
				polls++
			}
		}
		// The producer is on TCP: the leader's RDMA module sees only link
		// acks, which are no requests; a follower's sees each replica write.
		if b == leader && polls != 0 || b != leader && polls == 0 {
			t.Errorf("%s (leader %v): %d broker.rdma_poll spans", b.ID(), b == leader, polls)
		}
	}
}

// TestFileRevokedUnderATCPProduceReservation: a TCP produce to a shared file
// reserves its region with a fetch-and-add to the broker itself and yields
// while it polls for the completion; the hole timeout takes no lock, so it can
// revoke the file inside that poll. The produce then fails like any other
// lost reservation, where it used to park in a map the revocation had set to
// nil. The produce's send time sweeps across the timeout's instant: sent
// early it parks behind the hole and is aborted with the file, sent late it
// finds no grant and is appended.
func TestFileRevokedUnderATCPProduceReservation(t *testing.T) {
	codes := map[kwire.ErrCode]int{}
	for lead := 60 * us; lead < 140*us; lead += us / 4 {
		r := newRig(t, 1, func(o *core.Options) { o.Config.RDMAProduce = true })
		if err := r.cl.CreateTopic("t", 1, 1); err != nil {
			t.Fatal(err)
		}
		r.drive(func(p *sim.Proc) {
			b, batch := r.cl.Brokers()[0], batchOf(t, 1, 64, 'a')
			rp := r.rawProducer(p, r.endpoint("client"), b, kwire.AccessShared)
			rp.reserve(p, len(batch)) // the hole
			rp.write(p, batch)        // parks; its timeout is armed when the broker sees it
			p.Sleep(r.cl.Config().ProduceOrderTimeout - lead)
			resp := rp.ctl.exchange(p, &kwire.ProduceReq{Topic: "t", Acks: 1, Batch: batch})
			codes[errOf(resp[0])]++
			rp.ack(p, kwire.ErrRevoked, 0)
			rp.silent(p, r.cl.Config().ProduceOrderTimeout)
			rp.ctl.silent(p, 0)
			r.auditPools(0)
		})
		r.env.Shutdown()
		r.cl.Release()
	}
	if codes[kwire.ErrRevoked] == 0 || codes[kwire.ErrInternal] == 0 || codes[kwire.ErrNone] == 0 || len(codes) != 3 {
		t.Fatalf("answers by code %v: the sweep should reach a produce aborted with the file, one whose reservation was lost to the revocation, and one appended after it", codes)
	}
}
