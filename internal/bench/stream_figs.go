package bench

import (
	"fmt"
	"time"

	"kafkadirect/internal/stream"
)

// fig21 reproduces the streaming-benchmark experiment: JSON sensor events
// into two topics, constant-rate and periodic-burst publishers, with and
// without 2x replication, for all three systems. The paper plots delay over
// time; we report the distribution (mean/p50/p99/max), which captures the
// same claims: KafkaDirect has the lowest delays everywhere and absorbs
// bursts without the availability gaps the baselines show.
func fig21(st *Stats) *Table {
	t := &Table{
		ID:      "fig21",
		Title:   "Event delay (ms): mean / p50 / p99 / max per workload, replication, system",
		Columns: []string{"workload", "repl", "system", "events", "mean_ms", "p50_ms", "p99_ms", "max_ms"},
	}
	systems := []stream.System{stream.SysKafka, stream.SysOSU, stream.SysKafkaDirect}
	workloads := []stream.Workload{stream.ConstantRate, stream.PeriodicBurst}
	replicaCounts := []int{1, 2}
	type point struct {
		wl       stream.Workload
		replicas int
		sys      stream.System
	}
	var points []point
	for _, wl := range workloads {
		for _, replicas := range replicaCounts {
			for _, sys := range systems {
				points = append(points, point{wl, replicas, sys})
			}
		}
	}
	results := make([]stream.Result, len(points))
	forEach(len(points), func(i int) {
		pt := points[i]
		cfg := stream.DefaultConfig()
		cfg.System = pt.sys
		cfg.Workload = pt.wl
		cfg.Replicas = pt.replicas
		cfg.Duration = 40 * time.Second
		cfg.Obs = newRigObs()
		results[i] = stream.Run(cfg)
		st.AddEvents(results[i].SimEvents, results[i].SimSwitches)
		collectRigObs(cfg.Obs)
	})
	for i, pt := range points {
		res := results[i]
		replLabel := "none"
		if pt.replicas > 1 {
			replLabel = "2x"
		}
		t.AddRow(pt.wl.String(), replLabel, pt.sys.String(),
			fmt.Sprintf("%d", res.Events),
			ms(res.Mean), ms(res.P50), ms(res.P99), ms(res.Max))
	}
	t.Note("paper: KafkaDirect lowest in every setting (3.3x average); baselines spike under bursts with replication")
	return t
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d)/float64(time.Millisecond))
}
