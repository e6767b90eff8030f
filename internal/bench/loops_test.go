package bench

import (
	"testing"
	"time"

	"kafkadirect/internal/client"
	"kafkadirect/internal/krecord"
	"kafkadirect/internal/kwire"
	"kafkadirect/internal/sim"
)

// panicsWith runs fn and returns what it panicked with (nil if it did not).
func panicsWith(fn func()) (val any) {
	defer func() { val = recover() }()
	fn()
	return nil
}

// TestLoopsPanicOnError injects the two errors a fault-free rig can be made
// to return — a produce on a grant the broker revoked, a poll on a closed
// consumer — and requires every measurement loop to panic on them: a loop
// that swallowed one would measure failed operations.
func TestLoopsPanicOnError(t *testing.T) {
	r := newSysRig(rigConfig{brokers: 1})
	r.topic("t", 1, 1)
	r.run(func(p *sim.Proc) {
		rec := payload(64, 'x')
		// A corrupt write costs an exclusive producer its grant; the produce
		// that follows is answered INVALID_RECORD.
		revoked := func(name string) *client.RDMAProducer {
			pr, err := client.NewRDMAProducer(p, r.endpoint(name), "t", 0, kwire.AccessExclusive, 1)
			must(err)
			must(pr.WriteGarbage(p, 256))
			p.Sleep(time.Millisecond)
			return pr
		}
		pr := revoked("sync")
		if panicsWith(func() { closedLoop(p, 1, 1, nil, func() { mustProduce(p, pr, rec) }) }) == nil {
			t.Error("closedLoop over a revoked grant did not panic")
		}
		pr.Close()
		pr = revoked("async")
		if panicsWith(func() { flood(p, pr, 4, same(rec)) }) == nil {
			t.Error("flood over a revoked grant did not panic")
		}
		pr.Close()

		co := newRDMAConsumer(p, r.endpoint("closed"))
		co.Close()
		if panicsWith(func() { pollRecords(p, co) }) == nil {
			t.Error("pollRecords on a closed consumer did not panic")
		}
		if panicsWith(func() { drain(p, co, 1) }) == nil {
			t.Error("drain on a closed consumer did not panic")
		}
	})
}

// TestLoopsMeasure pins what the loops report on a healthy rig: flood asks
// for and sends exactly n records, drain stops once n have arrived, and
// closedLoop samples n ops after its warm-up with before kept outside them.
func TestLoopsMeasure(t *testing.T) {
	r := newSysRig(rigConfig{brokers: 1})
	r.topic("t", 1, 1)
	r.run(func(p *sim.Proc) {
		const n = 20
		pr := newProducer(p, r.endpoint("prod"), sysKDExcl, "t", 0, 1, 1)
		asked := 0
		elapsed := flood(p, pr, n, func(i int) krecord.Record {
			asked++
			return payload(64, byte(i))
		})
		if asked != n || elapsed <= 0 {
			t.Errorf("flood asked for %d records in %v, want %d in a positive time", asked, elapsed, n)
		}
		pr.Close()
		p.Sleep(time.Millisecond)

		co := newRDMAConsumer(p, r.endpoint("cons"))
		if first := pollRecords(p, co); len(first) == 0 || first[0].Value[0] != 0 {
			t.Errorf("pollRecords returned %d records, want a batch starting at record 0", len(first))
		}
		tc := newRPCConsumer(p, r.endpoint("cons-tcp"), false)
		if d := drain(p, tc, n); d <= 0 || tc.Position() != n {
			t.Errorf("drain took %v and left the consumer at %d, want %d", d, tc.Position(), n)
		}

		const step = 3 * time.Microsecond
		readied, ran := 0, 0
		samples := closedLoop(p, 2, 5,
			func() { readied++; p.Sleep(10 * step) },
			func() { ran++; p.Sleep(step) })
		if readied != 7 || ran != 7 || len(samples) != 5 || mean(samples) != step || median(samples) != step {
			t.Errorf("closedLoop: %d readied, %d ran, samples %v; want 7, 7 and five of %v", readied, ran, samples, step)
		}
	})
}
