package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"
)

// The benchmark runs each workload in a child process started from
// os.Executable(). Under `go test` that is the test binary, so it doubles as
// the perf command when asked to.
const asMainEnv = "PERF_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestDiffTablesCountsEachFailedTable(t *testing.T) {
	rendered := "# a: first\nx  y\n1  2\n\n# b: second\nx\n3\n\n# c: third\nx\n4\n\n"
	got := splitTables(rendered)
	if len(got) != 3 {
		t.Fatalf("splitTables found %d tables, want 3", len(got))
	}
	if d := diffTables(splitTables(rendered), got); len(d) != 0 {
		t.Fatalf("identical renderings differ: %v", d)
	}
	golden := splitTables("# a: first\nx  y\n1  9\n\n# c: third\nx\n4\n\n") // a: one cell altered; b: missing
	d := diffTables(golden, got)
	if len(d) != 2 {
		t.Fatalf("got %d failures %v, want 2", len(d), d)
	}
	if !strings.Contains(d[0], `line 3: want "1  9", got "1  2"`) {
		t.Errorf("altered cell reported as %q", d[0])
	}
}

// TestFigsFailsOnBadGolden feeds the figs workload a golden file with one
// altered cell and one missing table and expects two failed operations and a
// non-zero exit.
func TestFigsFailsOnBadGolden(t *testing.T) {
	text, err := readGolden("")
	if err != nil {
		t.Fatal(err)
	}
	tables := splitTables(text)
	for id := range shortFigs {
		if tables[id] == "" {
			t.Fatalf("results_all.txt has no %s table", id)
		}
	}
	rows := strings.Split(tables["fig18"], "\n")
	cells := strings.Fields(rows[2])
	bad := strings.Replace(text, rows[2], strings.Replace(rows[2], cells[1], cells[1]+"9", 1), 1)
	bad = strings.Replace(bad, tables["chaos"], "", 1)
	path := filepath.Join(t.TempDir(), "golden.txt")
	if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-workload", "figs", "-short", "-golden", path)
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	out, err := cmd.Output()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("want a non-zero exit, got %v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	if res.Correct || res.Attempted != len(shortFigs) || res.Failed != 2 {
		t.Fatalf("correct=%v attempted=%d failed=%d, want false, %d, 2\n%s", res.Correct, res.Attempted, res.Failed, len(shortFigs), out)
	}
}

// TestHostSharesSumTo100 profiles real passes and checks that attribution
// loses no sample and finds the simulator.
func TestHostSharesSumTo100(t *testing.T) {
	pass := prepareProduce(runConfig{seed: 1, short: true}, smallSpec)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 400*time.Millisecond; {
		if po := pass(true); po.failed != 0 {
			t.Fatalf("pass failed: %v", po.why)
		}
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	shares, total := hostShares(samples)
	if total < 10 {
		t.Skipf("only %d CPU samples in 400 ms; the profiler is not delivering signals here", total)
	}
	sum := 0.0
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-100) > 1 {
		t.Errorf("shares sum to %.2f%%, want 100 ± 1", sum)
	}
	if shares["sim"] == 0 {
		t.Errorf("no sample attributed to the simulator: %v", shares)
	}
	if len(shares) != len(sharePackages)+len(shareRuntime) {
		t.Errorf("%d buckets, want %d", len(shares), len(sharePackages)+len(shareRuntime))
	}
}

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		want  string
		stack []string
	}{
		{"sim", []string{"runtime.chanrecv", "kafkadirect/internal/sim.(*Proc).park", "kafkadirect/internal/client.(*RDMAProducer).Produce"}},
		{"bufpool", []string{"runtime.memclrNoHeapPointers", "kafkadirect/internal/bufpool.Put", "kafkadirect/internal/klog.(*Log).Release"}},
		{"sim", []string{"kafkadirect/internal/sim.(*Queue[...]).Pop"}},
		{"harness", []string{"hash/crc32.Checksum", "main.(*valueSum).add"}},
		{"runtime_gc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}},
		{"runtime_sched", []string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}},
		{"runtime_other", []string{"runtime.sigtramp"}},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// TestLockstep keeps BENCHMARK.json, the spec in this package and what a run
// prints in step: the file is exactly `-spec`, and `-short` prints every
// workload and metric the file names, and no other.
func TestLockstep(t *testing.T) {
	file, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, benchmarkJSON()) {
		t.Fatal("BENCHMARK.json is out of date: run `go run . -spec > ../BENCHMARK.json` in perf/")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(file, &spec); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			want = append(want, w.Name+" traced=false "+m.Name)
		}
		for _, m := range spec.PerLayer {
			want = append(want, w.Name+" traced=true "+m.Name)
		}
	}

	t.Setenv(asMainEnv, "1")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-short", "-outdir", t.TempDir()}, &stdout, &stderr); code != 0 {
		t.Fatalf("-short exited %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	var got []string
	section := ""
	for _, line := range strings.Split(stdout.String(), "\n") {
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "# perf workload="):
			section = strings.TrimPrefix(f[2], "workload=") + " " + f[5] + " "
		case len(f) == 0 || f[0] == "#" || f[0] == "ops" || f[0] == "failed_ops":
		default:
			got = append(got, section+f[0])
		}
	}
	sort.Strings(want)
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("printed and declared names differ\nonly printed: %v\nonly declared: %v", minus(got, want), minus(want, got))
	}
}

func minus(a, b []string) []string {
	in := map[string]bool{}
	for _, s := range b {
		in[s] = true
	}
	var out []string
	for _, s := range a {
		if !in[s] {
			out = append(out, s)
		}
	}
	return out
}
