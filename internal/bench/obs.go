package bench

import (
	"fmt"
	"io"
	"sync"

	"kafkadirect/internal/obs"
)

// Host-side telemetry collection. Like the worker pool, the obs mode is a
// process-global resource setting changed only between runs: when enabled,
// every sysRig builds its simulation with a private obs.Obs and folds it
// into the global collector at teardown.
// Telemetry is PASSIVE — instruments are pure memory writes on sim-time
// reads — so every rendered table is byte-identical with the mode on or off
// (the determinism tests assert exactly that).

var (
	obsMu sync.Mutex
	// obsMetrics enables per-rig metric registries; obsTraceCap > 0
	// additionally sizes a per-rig span tracer.
	obsMetrics  bool
	obsTraceCap int
	// obsReg accumulates every finished rig's registry (merge is commutative,
	// so the aggregate is identical for any completion order). obsTraces
	// collects rig tracers; rig names are assigned in completion order, which
	// is the one run-over-run varying piece of trace output under -workers>1.
	obsReg    *obs.Registry
	obsTraces *obs.TraceSet
	obsRigSeq int
)

// SetObsMode configures telemetry collection for subsequent runs and resets
// the collector. metrics enables counter/gauge/histogram registries;
// traceCap > 0 also records spans (per rig, dropping beyond the cap).
// Process-global; change it only between runs.
func SetObsMode(metrics bool, traceCap int) {
	obsMu.Lock()
	defer obsMu.Unlock()
	obsMetrics = metrics || traceCap > 0
	obsTraceCap = traceCap
	obsReg = obs.NewRegistry()
	obsTraces = &obs.TraceSet{}
	obsRigSeq = 0
}

// newRigObs returns a fresh telemetry bundle for one rig, or nil when
// collection is off.
func newRigObs() *obs.Obs {
	obsMu.Lock()
	defer obsMu.Unlock()
	if !obsMetrics {
		return nil
	}
	return obs.New(obsTraceCap)
}

// collectRigObs folds a finished rig's telemetry into the global collector.
func collectRigObs(o *obs.Obs) {
	if o == nil {
		return
	}
	obsMu.Lock()
	defer obsMu.Unlock()
	if obsReg == nil {
		return // mode was reset while the rig ran; drop
	}
	obsReg.MergeFrom(o.Reg)
	if o.Trace != nil {
		obsRigSeq++
		obsTraces.Add(fmt.Sprintf("rig-%04d", obsRigSeq), o.Trace)
	}
}

// WriteObsMetrics renders the merged metrics of every rig run since
// SetObsMode. Call after the runs finish.
func WriteObsMetrics(w io.Writer) {
	obsMu.Lock()
	defer obsMu.Unlock()
	if obsReg == nil {
		return
	}
	obsReg.Snapshot(0).Render(w)
}

// WriteObsTrace writes the collected spans as Chrome trace-event JSON
// (chrome://tracing, Perfetto). Call after the runs finish.
func WriteObsTrace(w io.Writer) error {
	obsMu.Lock()
	defer obsMu.Unlock()
	if obsTraces == nil {
		return fmt.Errorf("bench: telemetry collection is off (SetObsMode)")
	}
	return obsTraces.WriteChromeTrace(w)
}

// CollectedSpans reports how many rigs contributed spans (tests).
func CollectedSpans() int {
	obsMu.Lock()
	defer obsMu.Unlock()
	if obsTraces == nil {
		return 0
	}
	return obsTraces.Len()
}
