// Package sim is a kdlint fixture for the simclock analyzer. The package
// base name places it in the simulation set, so wall-clock reads and global
// math/rand calls must be flagged here while virtual-time arithmetic, seeded
// generators, and justified //kdlint:allow escapes must pass.
package sim

import (
	"math/rand"
	"time"
)

// Tick commits every forbidden clock read in one function.
func Tick() time.Duration {
	start := time.Now()              // want `time\.Now is wall clock`
	time.Sleep(5 * time.Millisecond) // want `time\.Sleep is wall clock`
	n := rand.Intn(10)               // want `rand\.Intn uses the global, unseeded source`
	_ = n
	return time.Since(start) // want `time\.Since is wall clock`
}

// Seeded is the sanctioned form: duration arithmetic is virtual-time math,
// and a *rand.Rand built from an explicit seed is reproducible.
func Seeded() int {
	r := rand.New(rand.NewSource(42))
	d := 3 * time.Millisecond
	_ = d
	return r.Intn(10)
}

// Injected shows that naming the function is enough: a clock kept as a value
// reads the host clock wherever it is called later.
func Injected() func() time.Time {
	return time.Now // want `time\.Now is wall clock`
}

// Profiled carries a justified suppression, so its wall-clock read is legal.
func Profiled() time.Time {
	//kdlint:allow simclock fixture: profiles the host process, not the simulation
	return time.Now()
}

// Unjustified shows that a bare directive suppresses nothing — the finding
// below survives, and the directive itself is reported (the harness checks
// that as a floating expectation, since the directive line cannot carry a
// want comment of its own).
func Unjustified() time.Time {
	//kdlint:allow simclock
	return time.Now() // want `time\.Now is wall clock`
}

// Misspelled names an analyzer that does not exist; kdlint reports the
// directive so typos cannot silently disable enforcement.
func Misspelled() time.Duration {
	//kdlint:allow simclocks this never matches anything
	return 2 * time.Second
}
