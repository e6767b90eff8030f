// Package-level benchmarks: one testing.B benchmark per table/figure of the
// paper's evaluation, driving the same harness as cmd/kdbench, plus a set of
// single-point benchmarks that report the headline simulated metrics
// (latency in µs, goodput in MiB/s) via b.ReportMetric.
//
// The per-figure benchmarks regenerate the full table each iteration; they
// are deterministic, so one iteration is representative. Run them all with
//
//	go test -bench=. -benchmem
package kafkadirect_test

import (
	"testing"
	"time"

	"kafkadirect"
	"kafkadirect/internal/bench"
	"kafkadirect/internal/sim"
)

// benchmarkFigure reruns a registered experiment b.N times.
func benchmarkFigure(b *testing.B, id string) {
	e, ok := bench.Lookup(id)
	if !ok {
		b.Fatalf("unknown figure %q", id)
	}
	for i := 0; i < b.N; i++ {
		tbl := e.Run()
		if len(tbl.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// One benchmark per evaluation figure/table.

func BenchmarkFig06ProduceApproaches(b *testing.B)      { benchmarkFigure(b, "fig06") }
func BenchmarkFig07NotificationApproaches(b *testing.B) { benchmarkFigure(b, "fig07") }
func BenchmarkFig08WriteBatching(b *testing.B)          { benchmarkFigure(b, "fig08") }
func BenchmarkFig10ProduceLatency(b *testing.B)         { benchmarkFigure(b, "fig10") }
func BenchmarkFig11ProduceGoodput(b *testing.B)         { benchmarkFigure(b, "fig11") }
func BenchmarkFig12PartitionScaling(b *testing.B)       { benchmarkFigure(b, "fig12") }
func BenchmarkFig13SingleWorkerScaling(b *testing.B)    { benchmarkFigure(b, "fig13") }
func BenchmarkFig14ReplicatedLatency(b *testing.B)      { benchmarkFigure(b, "fig14") }
func BenchmarkFig15ReplicatedGoodput(b *testing.B)      { benchmarkFigure(b, "fig15") }
func BenchmarkFig16ReplicationFactor(b *testing.B)      { benchmarkFigure(b, "fig16") }
func BenchmarkFig17ReplicationBatching(b *testing.B)    { benchmarkFigure(b, "fig17") }
func BenchmarkFig18ConsumeLatency(b *testing.B)         { benchmarkFigure(b, "fig18") }
func BenchmarkEmptyFetch(b *testing.B)                  { benchmarkFigure(b, "emptyfetch") }
func BenchmarkFig19EndToEndLatency(b *testing.B)        { benchmarkFigure(b, "fig19") }
func BenchmarkFig20ConsumeGoodput(b *testing.B)         { benchmarkFigure(b, "fig20") }
func BenchmarkFig21EventProcessing(b *testing.B)        { benchmarkFigure(b, "fig21") }
func BenchmarkAblationCredits(b *testing.B)             { benchmarkFigure(b, "ablation-credits") }
func BenchmarkAblationFetchSize(b *testing.B)           { benchmarkFigure(b, "ablation-fetchsize") }

// ---------------------------------------------------------------------------
// Headline single-point benchmarks. Each runs the datapath end to end in the
// simulator and reports the SIMULATED metric; ns/op is the wall cost of
// simulating it, which is itself useful to track.
// ---------------------------------------------------------------------------

func BenchmarkHeadlineRDMAProduceRTT(b *testing.B) {
	var total time.Duration
	for i := 0; i < b.N; i++ {
		s := kafkadirect.NewSim(kafkadirect.Options{Brokers: 1, RDMA: true})
		s.MustCreateTopic("t", 1, 1)
		s.Run(func(p *sim.Proc) {
			pr := s.MustRDMAProducer(p, "t", 0, kafkadirect.Exclusive)
			rec := kafkadirect.Record{Value: make([]byte, 32), Timestamp: 1}
			pr.Produce(p, rec) // warm-up
			start := p.Now()
			const n = 16
			for j := 0; j < n; j++ {
				if _, err := pr.Produce(p, rec); err != nil {
					b.Fatal(err)
				}
			}
			total += (p.Now() - start) / n
		})
	}
	b.ReportMetric(float64(total.Microseconds())/float64(b.N), "sim-us/produce")
}

func BenchmarkHeadlineTCPProduceRTT(b *testing.B) {
	var total time.Duration
	for i := 0; i < b.N; i++ {
		s := kafkadirect.NewSim(kafkadirect.Options{Brokers: 1})
		s.MustCreateTopic("t", 1, 1)
		s.Run(func(p *sim.Proc) {
			pr := s.MustTCPProducer(p, "t", 0, 1)
			rec := kafkadirect.Record{Value: make([]byte, 32), Timestamp: 1}
			pr.Produce(p, rec)
			start := p.Now()
			const n = 16
			for j := 0; j < n; j++ {
				if _, err := pr.Produce(p, rec); err != nil {
					b.Fatal(err)
				}
			}
			total += (p.Now() - start) / n
		})
	}
	b.ReportMetric(float64(total.Microseconds())/float64(b.N), "sim-us/produce")
}

func BenchmarkHeadlineRDMAConsumeRTT(b *testing.B) {
	var total time.Duration
	for i := 0; i < b.N; i++ {
		s := kafkadirect.NewSim(kafkadirect.Options{Brokers: 1, RDMA: true})
		s.MustCreateTopic("t", 1, 1)
		s.Run(func(p *sim.Proc) {
			pr := s.MustRDMAProducer(p, "t", 0, kafkadirect.Exclusive)
			rec := kafkadirect.Record{Value: make([]byte, 32), Timestamp: 1}
			const n = 64
			for j := 0; j < n; j++ {
				pr.Produce(p, rec)
			}
			co := s.MustRDMAConsumer(p, "t", 0, 0)
			co.Poll(p) // warm-up
			start := p.Now()
			rounds := 0
			seen := 0
			for seen < n-30 {
				recs, err := co.Poll(p)
				if err != nil {
					b.Fatal(err)
				}
				seen += len(recs)
				rounds++
			}
			total += (p.Now() - start) / time.Duration(rounds)
		})
	}
	b.ReportMetric(float64(total.Microseconds())/float64(b.N), "sim-us/fetch")
}

// BenchmarkSimulatorEventRate measures the raw DES kernel: how many
// simulated produce operations per wall second the harness sustains.
func BenchmarkSimulatorEventRate(b *testing.B) {
	s := kafkadirect.NewSim(kafkadirect.Options{Brokers: 1, RDMA: true})
	s.MustCreateTopic("t", 1, 1)
	b.ResetTimer()
	s.Run(func(p *sim.Proc) {
		pr := s.MustRDMAProducer(p, "t", 0, kafkadirect.Exclusive)
		rec := kafkadirect.Record{Value: make([]byte, 64), Timestamp: 1}
		for i := 0; i < b.N; i++ {
			if err := pr.ProduceAsync(p, rec); err != nil {
				b.Fatal(err)
			}
		}
		if err := pr.Drain(p); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkAblationNotify(b *testing.B) { benchmarkFigure(b, "ablation-notify") }
