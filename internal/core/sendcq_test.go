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

// Nobody polls the send CQ of a broker-side QP, so nothing a broker posts on
// one may leave a completion there: a produce ack, an OSU response or a
// replica-write ack posted signaled is one CQE per message for as long as the
// connection lives.
func TestBrokerSendsLeaveNoCompletions(t *testing.T) {
	const n = 25
	r := newRig(t, 3, func(o *core.Options) {
		o.Config.RDMAProduce = true
		o.Config.RDMAReplication = true
	})
	topics := []string{"excl", "shared", "osu", "pushed"}
	for i, topic := range topics {
		if err := r.cl.CreateTopic(topic, 1, []int{1, 1, 1, 3}[i]); err != nil {
			t.Fatal(err)
		}
	}
	r.drive(func(p *sim.Proc) {
		e := r.endpoint("cli")
		for i, topic := range topics {
			var pr client.Producer
			var err error
			switch topic {
			case "osu":
				pr, err = client.NewOSUProducer(p, e, topic, 0, 1, int64(i))
			case "shared":
				pr, err = client.NewRDMAProducer(p, e, topic, 0, kwire.AccessShared, int64(i))
			default:
				pr, err = client.NewRDMAProducer(p, e, topic, 0, kwire.AccessExclusive, int64(i))
			}
			if err != nil {
				t.Fatalf("%s: %v", topic, err)
			}
			for i := 0; i < n; i++ {
				if base, err := pr.Produce(p, recordsOf(1, 100, 'v')...); err != nil || base != int64(i) {
					t.Fatalf("%s produce %d: base %d, err %v", topic, i, base, err)
				}
			}
		}
		p.Sleep(20 * time.Millisecond) // trailing replication acks
		qps := 0
		for _, b := range r.cl.Brokers() {
			for _, qp := range b.Device().QPs() {
				qps++
				if left := qp.SendCQ().Len(); left != 0 {
					t.Errorf("%s QP %d (%T): %d completions in a send CQ nobody polls", b.ID(), qp.Num(), qp.UserData(), left)
				}
			}
		}
		if qps < 7 { // three producer sessions, one OSU session, two push links of two ends each
			t.Fatalf("only %d broker-side QPs: a datapath did not run", qps)
		}
	})
}

// An unsignaled ack still completes when it fails. The client's QP dies at
// every instant of the window in which the ack of a committed produce is on
// its way: whenever the ack was posted and had not reached the client, the
// broker's send CQ holds exactly its flushed completion; in every case the QP
// pair is dead, the session is gone and the exclusive grant is free again.
func TestAckInFlightWhenClientQPDies(t *testing.T) {
	batch := batchOf(t, 1, 64, 'a')
	// run produces once and kills the client QP killAfter later (never, if
	// negative); it returns when the ack arrived, or what the broker's send
	// CQ held after the kill.
	run := func(killAfter time.Duration) (ackAt time.Duration, left []rdma.CQE) {
		r := newRig(t, 1, func(o *core.Options) { o.Config.RDMAProduce = true })
		if err := r.cl.CreateTopic("t", 1, 1); err != nil {
			t.Fatal(err)
		}
		b := r.cl.LeaderOf("t", 0)
		r.drive(func(p *sim.Proc) {
			rp := r.rawProducer(p, r.endpoint("victim"), b, kwire.AccessExclusive)
			start := p.Now()
			rp.write(p, batch)
			if killAfter < 0 {
				rp.ack(p, kwire.ErrNone, 0)
				ackAt = p.Now() - start
				return
			}
			p.Sleep(killAfter)
			rp.qp.Disconnect()
			p.Sleep(time.Millisecond)
			bqp := rp.qp.Remote()
			if bqp.State() != rdma.QPError {
				t.Fatalf("kill at +%v: broker QP still %v", killAfter, bqp.State())
			}
			for cqe, ok := bqp.SendCQ().TryPoll(); ok; cqe, ok = bqp.SendCQ().TryPoll() {
				left = append(left, cqe)
			}
			// The session died with the QP: the file is free for the next
			// producer, whose write lands behind the victim's committed one.
			next := r.rawProducer(p, r.endpoint("next"), b, kwire.AccessExclusive)
			next.write(p, batch)
			next.ack(p, kwire.ErrNone, 1)
		})
		return ackAt, left
	}
	ackAt, _ := run(-1)
	flushed := 0
	for kill := ackAt - 3*us; kill < ackAt; kill += 100 * time.Nanosecond {
		switch _, left := run(kill); {
		case len(left) == 0: // not posted yet, or already executed at the client's RNIC
		case len(left) == 1 && left[0].Op == rdma.OpSend && left[0].Status == rdma.StatusFlushed:
			flushed++
		default:
			t.Fatalf("kill at +%v: broker send CQ holds %+v, want nothing or one flushed SEND", kill, left)
		}
	}
	if flushed == 0 {
		t.Fatalf("no kill in the 3 µs before the ack arrived (+%v) caught it in flight", ackAt)
	}
}
