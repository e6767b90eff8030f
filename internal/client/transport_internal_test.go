package client

import (
	"errors"
	"testing"
	"time"

	"kafkadirect/internal/core"
	"kafkadirect/internal/kwire"
	"kafkadirect/internal/sim"
)

// Regression test for a previously-silent error path found by kdlint's
// errdrop sweep: osuTransport.Recv used to discard the error from reposting
// the receive buffer (`_ = t.qp.PostRecv(...)`). When the QP fails between a
// completed receive and its repost — exactly what a broker crash injected by
// chaos does — the old code returned the frame as if nothing happened and
// leaked one RQ slot per call; after the completion queue drained, the next
// Recv parked forever instead of surfacing a reconnectable failure.
func TestOSURecvSurfacesRepostFailure(t *testing.T) {
	env := sim.NewEnv(11)
	opts := core.DefaultOptions()
	opts.Config = opts.Config.WithRDMA()
	cl := core.NewCluster(env, opts)
	cl.AddBrokers(1)
	broker := cl.Brokers()[0]
	if err := cl.CreateTopic("t", 1, 1); err != nil {
		t.Fatal(err)
	}
	e := NewEndpoint(cl, "c", DefaultConfig())

	finished := false
	env.Go("driver", func(p *sim.Proc) {
		tr, err := NewOSUTransport(p, e, broker)
		if err != nil {
			t.Errorf("NewOSUTransport: %v", err)
			env.Stop()
			return
		}
		// Ask for metadata so the broker queues one response frame.
		req := kwire.Encode(1, &kwire.MetadataReq{Topics: []string{"t"}})
		if err := tr.Send(p, req); err != nil {
			t.Errorf("Send: %v", err)
			env.Stop()
			return
		}
		// Let the response complete into the client's receive CQ, then kill
		// the broker: FailAllQPs cascades to the client end of the QP, so
		// the completed receive is still OK but the repost must fail.
		p.Sleep(10 * time.Millisecond)
		cl.CrashBroker(broker.ID())
		frame, err := tr.Recv(p)
		if err == nil {
			t.Errorf("Recv returned a frame (%d bytes) with no error; repost failure was swallowed", len(frame))
		} else if !errors.Is(err, errQPFailed) {
			t.Errorf("Recv error = %v, want errQPFailed so the retry layer reconnects", err)
		}
		finished = true
		env.Stop()
	})
	env.RunUntil(10 * time.Second)
	env.Shutdown()
	if !finished {
		t.Fatal("driver did not finish: Recv blocked instead of failing")
	}
}

// The multi-TP consumer used to report a failed Read as a plain error and to
// drop ReleaseFile responses undecoded; the single-TP consumer wrapped the
// first in errQPFailed and checked the second. Both now run the same
// readSession code, so a QP failure under a multi consumer must classify as
// retryable exactly like one under a single consumer.
func TestMultiConsumerReadFailureIsRetryable(t *testing.T) {
	env := sim.NewEnv(11)
	opts := core.DefaultOptions()
	opts.Config = opts.Config.WithRDMA()
	cl := core.NewCluster(env, opts)
	cl.AddBrokers(1)
	broker := cl.Brokers()[0]
	if err := cl.CreateTopic("t", 1, 1); err != nil {
		t.Fatal(err)
	}
	finished := false
	env.Go("driver", func(p *sim.Proc) {
		defer env.Stop()
		co, err := NewMultiRDMAConsumer(p, NewEndpoint(cl, "c", DefaultConfig()), broker)
		if err != nil {
			t.Errorf("NewMultiRDMAConsumer: %v", err)
			return
		}
		if err := co.Subscribe(p, "t", 0, 0); err != nil {
			t.Errorf("Subscribe: %v", err)
			return
		}
		// Kill the QP while the idle poll's slot Read is on the wire.
		env.After(200*time.Nanosecond, func() { broker.Device().FailAllQPs("test") })
		_, err = co.Poll(p)
		if !errors.Is(err, errQPFailed) || !retryableErr(err) {
			t.Errorf("Poll error = %v, want errQPFailed (retryable)", err)
		}
		finished = true
	})
	env.RunUntil(10 * time.Second)
	env.Shutdown()
	if !finished {
		t.Fatal("driver did not finish")
	}
}
