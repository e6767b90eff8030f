package stream

import (
	"encoding/json"
	"reflect"
	"runtime"
	"testing"
	"time"

	"kafkadirect/internal/client"
	"kafkadirect/internal/core"
	"kafkadirect/internal/obs"
	"kafkadirect/internal/sim"
)

func shortConfig(sys System, wl Workload, replicas int) Config {
	cfg := DefaultConfig()
	cfg.System = sys
	cfg.Workload = wl
	cfg.Replicas = replicas
	cfg.Duration = 4 * time.Second
	cfg.BurstGap = 2 * time.Second
	cfg.BurstSize = 200
	return cfg
}

func TestConstantRateDeliversAllEvents(t *testing.T) {
	res := Run(shortConfig(SysKafkaDirect, ConstantRate, 1))
	// 400 events/s for ~4 s across 2 topics.
	if res.Events < 1200 || res.Events > 1700 {
		t.Fatalf("events = %d, want ≈1600", res.Events)
	}
	if res.Mean <= 0 || res.Max < res.P99 || res.P99 < res.P50 {
		t.Fatalf("degenerate stats: %+v", res)
	}
}

func TestKafkaDirectBeatsKafkaOnDelay(t *testing.T) {
	kd := Run(shortConfig(SysKafkaDirect, ConstantRate, 1))
	kafka := Run(shortConfig(SysKafka, ConstantRate, 1))
	if kd.Mean >= kafka.Mean {
		t.Fatalf("KafkaDirect mean %v not below Kafka %v", kd.Mean, kafka.Mean)
	}
	ratio := float64(kafka.Mean) / float64(kd.Mean)
	if ratio < 1.5 {
		t.Fatalf("improvement only %.2fx; paper reports ~3.3x average", ratio)
	}
}

func TestReplicationRaisesDelay(t *testing.T) {
	plain := Run(shortConfig(SysKafka, ConstantRate, 1))
	repl := Run(shortConfig(SysKafka, ConstantRate, 2))
	if repl.Mean <= plain.Mean {
		t.Fatalf("2x replication should raise delay: %v vs %v", repl.Mean, plain.Mean)
	}
}

func TestBurstRaisesTailDelay(t *testing.T) {
	steady := Run(shortConfig(SysKafkaDirect, ConstantRate, 1))
	burst := Run(shortConfig(SysKafkaDirect, PeriodicBurst, 1))
	if burst.Events <= steady.Events {
		t.Fatalf("burst run should deliver more events: %d vs %d", burst.Events, steady.Events)
	}
	if burst.Max <= steady.Max {
		t.Fatalf("burst max delay %v should exceed steady %v", burst.Max, steady.Max)
	}
}

func TestBucketsCoverTheRun(t *testing.T) {
	res := Run(shortConfig(SysKafkaDirect, ConstantRate, 1))
	if len(res.Buckets) < 3 {
		t.Fatalf("only %d buckets", len(res.Buckets))
	}
	total := 0
	for _, b := range res.Buckets {
		if b.Events <= 0 || b.Mean < 0 {
			t.Fatalf("bad bucket %+v", b)
		}
		total += b.Events
	}
	if total != res.Events {
		t.Fatalf("bucket events %d != total %d", total, res.Events)
	}
}

func TestSensorEventJSONShape(t *testing.T) {
	ev := SensorEvent{TimestampNanos: 123, Lane: 2, CarCount: 17, AvgSpeed: 61.5}
	data, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	var back SensorEvent
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != ev {
		t.Fatalf("round trip %+v", back)
	}
	for _, key := range []string{"ts", "lane", "count", "speed"} {
		var m map[string]any
		json.Unmarshal(data, &m)
		if _, ok := m[key]; !ok {
			t.Fatalf("JSON missing %q field: %s", key, data)
		}
	}
}

func TestWorkloadAndSystemStrings(t *testing.T) {
	if ConstantRate.String() != "constant-rate" || PeriodicBurst.String() != "periodic-burst" {
		t.Fatal("workload strings")
	}
	if SysKafka.String() != "kafka" || SysOSU.String() != "osu" || SysKafkaDirect.String() != "kafkadirect" {
		t.Fatal("system strings")
	}
}

// An event costs no heap object from the sensor to the engine on any system:
// the encoder's buffer, the one-record argument, the producer's batch, the
// staged SENDs, the buffer the fetch lands in, the slice Poll returns and the
// parser all reuse what they have.
func TestAnEventAllocatesNothing(t *testing.T) {
	const warm, n = 300, 1000
	for _, sys := range []System{SysKafka, SysOSU, SysKafkaDirect} {
		cfg := shortConfig(sys, ConstantRate, 1)
		env := sim.NewEnv(23)
		opts := core.DefaultOptions()
		opts.Config = opts.Config.WithRDMA()
		cl := core.NewCluster(env, opts)
		cl.AddBrokers(1)
		if err := cl.CreateTopic(topicName(0), 1, 1); err != nil {
			t.Fatal(err)
		}
		var perEvent float64
		env.Go("driver", func(p *sim.Proc) {
			e := client.NewEndpoint(cl, "ep", client.DefaultConfig())
			pub := publisher{pr: newProducer(p, e, cfg, topicName(0), 0)}
			co := newConsumer(p, e, cfg, topicName(0))
			deliver := func(events int) {
				for i := 0; i < events; i++ {
					pub.publish(p, p.Now(), 1)
					for got := 0; got == 0; {
						recs, err := co.Poll(p)
						if err != nil {
							t.Fatal(err)
						}
						for _, rec := range recs {
							if ev, err := parseEvent(rec.Value); err != nil || ev.TimestampNanos > int64(p.Now()) {
								t.Fatalf("event %q: %+v, %v", rec.Value, ev, err)
							}
							got++
						}
					}
				}
			}
			deliver(warm)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			deliver(n)
			runtime.ReadMemStats(&after)
			perEvent = float64(after.Mallocs-before.Mallocs) / n
			env.Stop()
		})
		env.RunUntil(time.Minute)
		env.Shutdown()
		cl.Release()
		t.Logf("%v: %.3f objects per event", sys, perEvent)
		// Measured 0.003 on every system.
		if !raceDetector && perEvent > 0.05 {
			t.Errorf("%v: %.3f objects per event published, delivered and parsed, want none", sys, perEvent)
		}
	}
}

// Telemetry is passive: the same result, event for event, with a bundle
// collecting and without, and the bundle has the cluster's counters in it.
func TestTelemetryDoesNotPerturbTheRun(t *testing.T) {
	cfg := shortConfig(SysKafkaDirect, PeriodicBurst, 2)
	plain := Run(cfg)
	cfg.Obs = obs.New(obs.DefaultTraceCap)
	traced := Run(cfg)
	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("result with telemetry %+v, without %+v", traced, plain)
	}
	if n := cfg.Obs.Counter("broker/requests").Value(); n == 0 {
		t.Fatal("the run's brokers counted no requests into Config.Obs")
	}
}
