package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// readGolden loads results_all.txt. With no explicit path it looks in the
// working directory and then its parents, so the benchmark runs from the
// repository root (the driver) and from perf/ (a developer) alike.
func readGolden(path string) (string, error) {
	if path != "" {
		b, err := os.ReadFile(path)
		return string(b), err
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "results_all.txt"))
		if err == nil {
			return string(b), nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("results_all.txt not found in the working directory or its parents (use -golden)")
		}
		dir = parent
	}
}

var tableHeader = regexp.MustCompile(`(?m)^# ([A-Za-z0-9_-]+): `)

// splitTables cuts a kdbench rendering into its tables, keyed by id. Each
// value runs from the "# <id>: " header to the next header, which is exactly
// what bench.Table.Print writes for one table.
func splitTables(text string) map[string]string {
	out := map[string]string{}
	locs := tableHeader.FindAllStringSubmatchIndex(text, -1)
	for i, loc := range locs {
		end := len(text)
		if i+1 < len(locs) {
			end = locs[i+1][0]
		}
		out[text[loc[2]:loc[3]]] = text[loc[0]:end]
	}
	return out
}

// diffTables compares rendered tables byte for byte and returns one line per
// failed table: differing, produced without a golden, or in the golden but
// not produced.
func diffTables(want, got map[string]string) []string {
	var out []string
	for _, id := range sortedKeys(got) {
		w, ok := want[id]
		switch {
		case !ok:
			out = append(out, id+": no such table in the golden file")
		case w != got[id]:
			out = append(out, id+": "+firstDifference(w, got[id]))
		}
	}
	for _, id := range sortedKeys(want) {
		if _, ok := got[id]; !ok {
			out = append(out, id+": in the golden file but not produced")
		}
	}
	return out
}

func firstDifference(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d: want %q, got %q", i+1, wl, gl)
		}
	}
	return "tables differ"
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

var cellGap = regexp.MustCompile(`\s{2,}`)

// goldenCell reads one numeric cell of a golden table: the row whose leading
// cells equal rowKey, in the named column.
func goldenCell(gold map[string]string, id string, rowKey []string, col string) (float64, error) {
	lines := strings.Split(gold[id], "\n")
	if len(lines) < 2 {
		return 0, fmt.Errorf("golden table %s is missing", id)
	}
	ci := -1
	for i, c := range cellGap.Split(lines[1], -1) {
		if c == col {
			ci = i
		}
	}
	if ci < 0 {
		return 0, fmt.Errorf("golden table %s has no column %q", id, col)
	}
rows:
	for _, line := range lines[2:] {
		cells := cellGap.Split(line, -1)
		if len(cells) <= ci || len(cells) < len(rowKey) {
			continue
		}
		for i, k := range rowKey {
			if cells[i] != k {
				continue rows
			}
		}
		return strconv.ParseFloat(cells[ci], 64)
	}
	return 0, fmt.Errorf("golden table %s has no row %v", id, rowKey)
}

// goldenSimMetrics gives the figs workload its sim_* metrics. Its simulated
// results are the tables themselves, and a produced table that differs from
// the golden is a failed operation, so the cells are read from the golden:
// unreplicated 64 B produce latency (fig10) and goodput (fig11), and the
// fig21 burst point's p99.
func goldenSimMetrics(gold map[string]string) (map[string]float64, error) {
	p50, err := goldenCell(gold, "fig10", []string{"64B"}, "kd_excl")
	if err != nil {
		return nil, err
	}
	p99ms, err := goldenCell(gold, "fig21", []string{"periodic-burst", "2x", "kafkadirect"}, "p99_ms")
	if err != nil {
		return nil, err
	}
	kd, err := goldenCell(gold, "fig11", []string{"64B"}, "kd_excl")
	if err != nil {
		return nil, err
	}
	kafka, err := goldenCell(gold, "fig11", []string{"64B"}, "kafka")
	if err != nil {
		return nil, err
	}
	if kafka == 0 {
		return nil, fmt.Errorf("golden table fig11: kafka goodput at 64B is zero")
	}
	return map[string]float64{
		"sim_kd_p50_us":  p50,
		"sim_kd_p99_us":  p99ms * 1e3,
		"sim_kd_mibps":   kd,
		"sim_kd_speedup": kd / kafka,
	}, nil
}
