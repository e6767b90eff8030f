// Command perf is the repository's benchmark: four fixed-work workloads
// measured in host time and simulated time, and a traced run that breaks the
// host time down by layer. See README.md in this directory.
//
//	go run . -workload produce_small -seed 1 -seconds 8 -trace 0   one run, as the driver makes it
//	go run .                                                        every workload, untraced then traced
//	go run . -aa                                                    the untraced set twice, compared
//	go run . -short                                                 every count divided by 50 (smoke test)
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

type options struct {
	cfg     runConfig
	seconds float64
	outdir  string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	name := fs.String("workload", "", "run this one workload in-process and print its result as the last line (default: all, each in a child process)")
	fs.Int64Var(&o.cfg.seed, "seed", 1, "seed of the generated inputs (produce_small, replicate_bulk; stream and figs fix theirs inside the program)")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "how long one run keeps repeating its fixed-work pass")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics (ladder, telemetry counts, CPU-sample shares)")
	fs.BoolVar(&o.cfg.short, "short", false, "divide every count by 50 and ignore -seconds (smoke test)")
	aa := fs.Bool("aa", false, "run the untraced set twice and compare the two against the bounds")
	fs.StringVar(&o.outdir, "outdir", filepath.Join(".bench_build", "perf-out"), "where a traced run writes its CPU profile and trace artefact")
	fs.StringVar(&o.cfg.golden, "golden", "", "golden tables for figs (default: results_all.txt in the working directory or a parent)")
	spec := fs.Bool("spec", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.cfg.short {
		o.seconds = 0
	}
	switch {
	case *spec:
		_, _ = stdout.Write(benchmarkJSON())
		return 0
	case *name != "":
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "perf: unknown workload %q\n", *name)
			return 2
		}
		runtime.GOMAXPROCS(2) // go 1.24 ignores the container's CPU quota
		res, err := runWorkload(w, o, *trace == 1, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "perf: %s: %v\n", w.name, err)
			return 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(stderr, "perf: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if res.Failed > 0 {
			return 1
		}
		return 0
	case *aa:
		return compareAA(o, stdout, stderr)
	}
	return reportAll(o, stdout, stderr)
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func header(w io.Writer, wl workload, o options, traced bool) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	fmt.Fprintf(w, "# perf workload=%s seed=%d seconds=%g traced=%v short=%v\n", wl.name, o.cfg.seed, o.seconds, traced, o.cfg.short)
	fmt.Fprintf(w, "# %s nproc=%d GOMAXPROCS=%d GOGC=%s commit=%s\n", runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), gogc, commit)
}

// setupRepeats is how often a run sets up; setup_s is the median.
const setupRepeats = 3

// setUp generates the inputs and, on the steady workloads, runs the warm-up
// pass that fills pools and lets lazy initialisation finish.
func setUp(w workload, cfg runConfig) (func(traced bool) passOut, error) {
	pass, err := w.prepare(cfg)
	if err != nil {
		return nil, err
	}
	if w.warmPass {
		pass(false)
	}
	return pass, nil
}

// passes repeats the fixed-work pass until the budget is spent (and at least
// atLeast times) and returns each pass's host cost and output.
func passes(pass func(bool) passOut, traced bool, atLeast int, budget float64) ([]hostCost, []passOut) {
	var costs []hostCost
	var outs []passOut
	for start := time.Now(); len(costs) < atLeast || time.Since(start).Seconds() < budget; {
		var po passOut
		costs = append(costs, timed(func() { po = pass(traced) }))
		outs = append(outs, po)
	}
	return costs, outs
}

// tally adds up what a run's passes attempted and how they failed.
type tally struct {
	attempted, failed int
	why               []string
}

func (t *tally) add(outs []passOut) {
	t.fail(checkSim(outs))
	for _, po := range outs {
		t.attempted += po.ops
		t.failed += po.failed
		t.why = append(t.why, po.why...)
	}
}

func (t *tally) fail(why []string) {
	t.failed += len(why)
	t.why = append(t.why, why...)
}

func runWorkload(w workload, o options, traced bool, stdout io.Writer) (result, error) {
	header(stdout, w, o, traced)
	res := result{Metrics: map[string]metricValue{}}
	var t tally
	var err error
	if traced {
		err = runTraced(w, o, &res, &t, stdout)
	} else {
		err = runUntraced(w, o, &res, &t, stdout)
	}
	if err != nil {
		return res, err
	}
	for i, line := range t.why {
		if i == 10 {
			fmt.Fprintf(stdout, "FAILED ... and %d more\n", len(t.why)-i)
			break
		}
		fmt.Fprintf(stdout, "FAILED %s\n", line)
	}
	res.Attempted, res.Failed, res.Correct = t.attempted, t.failed, t.failed == 0
	fmt.Fprintf(stdout, "%-28s %d\n%-28s %d\n", "ops", res.Attempted, "failed_ops", res.Failed)
	return res, nil
}

func runUntraced(w workload, o options, res *result, t *tally, stdout io.Writer) error {
	var setups []float64
	var pass func(bool) passOut
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		var err error
		if pass, err = setUp(w, o.cfg); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	costs, outs := passes(pass, false, w.minPasses, o.seconds)
	t.add(outs)
	fmt.Fprintf(stdout, "# passes: %d set-ups, %d timed\n", setupRepeats, len(costs))
	host := map[string]func(hostCost) float64{
		"wall_s":   func(c hostCost) float64 { return c.WallS },
		"cpu_s":    func(c hostCost) float64 { return c.CPUS },
		"alloc_mb": func(c hostCost) float64 { return c.AllocMB },
		"allocs_k": func(c hostCost) float64 { return c.AllocsK },
	}
	for _, m := range endToEnd {
		var v float64
		note := ""
		switch {
		case host[m.Name] != nil:
			q1, med, q3 := quartiles(column(costs, host[m.Name]))
			v, note = med, fmt.Sprintf("   (q1 %.4g, q3 %.4g)", q1, q3)
		case m.Name == "setup_s":
			v = median(setups)
		default:
			v = outs[0].sim[m.Name]
		}
		res.Metrics[m.Name] = metricValue{v, m.Unit}
		fmt.Fprintf(stdout, "%-28s %-14.6g %s%s\n", m.Name, v, m.Unit, note)
	}
	return nil
}

// checkSim holds simulated results to their contract: every sim_* metric is
// measured, and every pass, traced or not, reproduces the first pass's
// values exactly. It returns one line per violation.
func checkSim(outs []passOut) []string {
	var why []string
	for _, m := range endToEnd {
		if !strings.HasPrefix(m.Name, "sim_") {
			continue
		}
		first := outs[0].sim[m.Name]
		if first <= 0 {
			why = append(why, m.Name+" was not measured")
			continue
		}
		for i, po := range outs[1:] {
			if v := po.sim[m.Name]; v != first {
				why = append(why, fmt.Sprintf("%s is %v on pass %d and %v on pass 1", m.Name, v, i+2, first))
			}
		}
	}
	return why
}

// traceArtefact is what a traced run leaves in -outdir beside the profile.
type traceArtefact struct {
	Workload       string             `json:"workload"`
	Seed           int64              `json:"seed"`
	UntracedPasses []hostCost         `json:"untraced_passes"`
	TracedPasses   []hostCost         `json:"traced_passes"`
	Ladder         map[string]rungOut `json:"ladder"`
	Figures        []figRow           `json:"figures,omitempty"`
	Telemetry      []string           `json:"telemetry"` // counters, gauges and stage histograms, one rendered line each
	ProfileSamples int64              `json:"profile_samples"`
	Metrics        map[string]float64 `json:"per_layer"`
}

func runTraced(w workload, o options, res *result, t *tally, stdout io.Writer) error {
	pass, err := setUp(w, o.cfg)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.outdir, 0o755); err != nil {
		return err
	}
	// End-to-end numbers never come from a traced pass: the untraced passes
	// here exist only to give the traced ones a baseline in the same process.
	plainCosts, plainOuts := passes(pass, false, 1, o.seconds/3)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	tracedCosts, tracedOuts := passes(pass, true, 1, o.seconds*2/3)
	pprof.StopCPUProfile()
	t.add(append(append([]passOut(nil), plainOuts...), tracedOuts...))
	if err := os.WriteFile(filepath.Join(o.outdir, "cpu_"+w.name+".pprof"), prof.Bytes(), 0o644); err != nil {
		return err
	}
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return err
	}
	shares, nSamples := hostShares(samples)
	ladder := runLadder(o.cfg)

	vals := map[string]float64{}
	for name, r := range ladder {
		vals[name+".ns"], vals[name+".allocs"], vals[name+".events"] = r.NS, r.Allocs, r.Events
	}
	po := tracedOuts[0]
	c := parseCounters(po.obsText)
	ops := float64(po.ops)
	vals["sim.events_per_op"] = ratio(float64(po.events), ops)
	vals["rdma.wr_per_op"] = ratio(c["rdma/wr_posted"], ops)
	vals["rdma.cqe_per_op"] = ratio(c["rdma/cqes"], ops)
	vals["tcpnet.msgs_per_op"] = ratio(c["tcp/msgs"], ops)
	vals["tcpnet.copy_bytes_per_op"] = ratio(c["tcp/kernel_copy_bytes"], ops)
	vals["fabric.msgs_per_op"] = ratio(c["fabric/msgs"], ops)
	vals["fabric.bytes_per_op"] = ratio(c["fabric/bytes"], ops)
	vals["fabric.tx_busy_share"] = ratio(c["fabric/tx_busy_ns"], float64(po.simTime))
	vals["core.requests_per_op"] = ratio(c["broker/requests"], ops)
	vals["core.empty_fetch_share"] = ratio(c["broker/empty_fetches"], c["broker/requests"])
	vals["core.queue_depth_max"] = float64(po.queueMax)
	vals["client.retries"] = c["client/retries"]
	for b, s := range shares {
		vals["host_share."+b] = s
	}
	for _, row := range plainOuts[0].figs {
		vals["fig_wall_ms."+row.ID] = row.WallMS
		vals["fig_alloc_mb."+row.ID] = row.AllocMB
	}
	vals["runtime.sys_s"] = median(column(plainCosts, func(c hostCost) float64 { return c.SysS }))
	vals["runtime.gc_cpu_s"] = median(column(plainCosts, func(c hostCost) float64 { return c.GCCPUS }))
	vals["runtime.gc_cycles"] = median(column(plainCosts, func(c hostCost) float64 { return c.GCCycles }))
	vals["runtime.peak_rss_mb"] = peakRSSMB()
	wall := func(c hostCost) float64 { return c.WallS }
	vals["obs.trace_overhead_pct"] = 100 * (ratio(median(column(tracedCosts, wall)), median(column(plainCosts, wall))) - 1)

	fmt.Fprintf(stdout, "# passes: %d untraced, %d traced, %d CPU samples; artefacts in %s\n",
		len(plainCosts), len(tracedCosts), nSamples, o.outdir)
	for _, m := range perLayer() {
		v := vals[m.Name]
		res.Metrics[m.Name] = metricValue{v, m.Unit}
		fmt.Fprintf(stdout, "%-28s %-14.6g %s\n", m.Name, v, m.Unit)
	}
	art := traceArtefact{Workload: w.name, Seed: o.cfg.seed, UntracedPasses: plainCosts, TracedPasses: tracedCosts,
		Ladder: ladder, Figures: plainOuts[0].figs, Telemetry: strings.Split(strings.TrimSpace(po.obsText), "\n"),
		ProfileSamples: nSamples, Metrics: map[string]float64{}}
	for name, mv := range res.Metrics {
		art.Metrics[name] = mv.Value
	}
	b, err := json.MarshalIndent(art, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.outdir, "trace_"+w.name+".json"), b, 0o644)
}

// parseCounters reads the "counter <name> <value>" lines of a rendered
// telemetry registry. Duration counters are rendered in microseconds and
// come back in nanoseconds.
func parseCounters(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) != 3 || f[0] != "counter" {
			continue
		}
		scale := 1.0
		num, us := strings.CutSuffix(f[2], "us")
		if us {
			scale = 1e3
		}
		if v, err := strconv.ParseFloat(num, 64); err == nil {
			out[f[1]] = v * scale
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Whole-benchmark modes: one child process per workload
// ---------------------------------------------------------------------------

// child runs one workload in a fresh process, copies its report to stdout
// and returns the parsed last line.
func child(w workload, o options, traced bool, stdout, stderr io.Writer) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	args := []string{"-workload", w.name, "-seed", strconv.FormatInt(o.cfg.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", t, "-outdir", o.outdir}
	if o.cfg.short {
		args = append(args, "-short")
	}
	if o.cfg.golden != "" {
		args = append(args, "-golden", o.cfg.golden)
	}
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	last := lines[len(lines)-1]
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		_, _ = stdout.Write(out.Bytes())
		if runErr != nil {
			return res, runErr
		}
		return res, fmt.Errorf("%s printed no result: %w", w.name, err)
	}
	fmt.Fprintln(stdout, strings.Join(lines[:len(lines)-1], "\n"))
	if runErr != nil {
		return res, fmt.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted)
	}
	return res, nil
}

func reportAll(o options, stdout, stderr io.Writer) int {
	code := 0
	for _, traced := range []bool{false, true} {
		for _, w := range workloads {
			if _, err := child(w, o, traced, stdout, stderr); err != nil {
				fmt.Fprintf(stderr, "perf: %v\n", err)
				code = 1
			}
			fmt.Fprintln(stdout)
		}
	}
	return code
}

// compareAA runs the untraced set twice on the same code and holds the two
// to the benchmark's own bounds: host metrics within their bound, simulated
// metrics and failure counts identical.
func compareAA(o options, stdout, stderr io.Writer) int {
	var sets [2]map[string]result
	for i := range sets {
		sets[i] = map[string]result{}
		for _, w := range workloads {
			res, err := child(w, o, false, io.Discard, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "perf: %v\n", err)
				return 1
			}
			sets[i][w.name] = res
		}
	}
	code := 0
	fmt.Fprintf(stdout, "%-16s %-16s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, w := range workloads {
		a, b := sets[0][w.name], sets[1][w.name]
		for _, m := range endToEnd {
			va, vb := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
			diff := ratio(vb-va, va)
			bound := m.Bound
			if strings.HasPrefix(m.Name, "sim_") {
				bound = 0 // same seed, same code: simulated time repeats exactly
			}
			verdict := ""
			if math.Abs(diff) > bound {
				verdict, code = "  EXCEEDS", 1
			}
			fmt.Fprintf(stdout, "%-16s %-16s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", w.name, m.Name, va, vb, 100*diff, 100*bound, verdict)
		}
		if a.Failed != 0 || b.Failed != 0 {
			fmt.Fprintf(stdout, "%-16s failed_ops %d and %d\n", w.name, a.Failed, b.Failed)
			code = 1
		}
	}
	return code
}
