// Package core is a kdlint fixture for the maporder analyzer. Loops that
// push map-iteration order into observable output (formatted writes, slices
// that outlive the loop, unsorted key collections) must be flagged; the
// collect-sort-iterate idiom and order-insensitive reductions must pass.
package core

import (
	"fmt"
	"sort"
	"strings"
)

// Emit prints one line per topic straight out of map iteration, so the
// output order changes run to run.
func Emit(topics map[string]int) {
	for name, n := range topics {
		fmt.Printf("%s %d\n", name, n) // want `fmt\.Printf inside map iteration`
	}
}

// Render streams rows into a builder in map order.
func Render(topics map[string]int) string {
	var b strings.Builder
	for name := range topics {
		b.WriteString(name) // want `strings\.WriteString inside map iteration`
	}
	return b.String()
}

// Collect builds a slice whose element order is the map's iteration order.
func Collect(topics map[string]int) []int {
	var counts []int
	for _, n := range topics {
		counts = append(counts, n) // want `append to counts`
	}
	return counts
}

// Keys collects the keys but never sorts them, so iteration order leaks to
// every later use of the slice.
func Keys(topics map[string]int) []string {
	var names []string
	for name := range topics { // want `map keys collected into a slice that is never sorted`
		names = append(names, name)
	}
	return names
}

// respond stands in for core.Broker.respond, the broker's one way out: a
// queue push or a posted send sits behind it, out of this analyzer's sight.
func respond(req *int) { *req++ }

// Abort answers every parked request in map order, as core.revokeFile did:
// whose answer goes first renumbers every event after it.
func Abort(pending map[uint16]*int) {
	for _, req := range pending {
		respond(req) // want `core\.respond inside map iteration`
	}
}

// SortedKeys is the sanctioned idiom: collect the keys, sort, then iterate.
func SortedKeys(topics map[string]int) []string {
	names := make([]string, 0, len(topics))
	for name := range topics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Total is an order-insensitive reduction; iteration order cannot be
// observed, so ranging the map directly is legal.
func Total(topics map[string]int) int {
	total := 0
	for _, n := range topics {
		total += n
	}
	return total
}

// Sequential ranges over a slice, not a map, and is never flagged.
func Sequential(rows []string) {
	for _, r := range rows {
		fmt.Println(r)
	}
}
