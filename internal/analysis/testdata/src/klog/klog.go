// Package klog is a kdlint fixture for the errdrop analyzer. The package
// base name matches one of the transport/replication packages whose error
// returns are failover signals, so a call statement that discards an error
// from this package must be flagged; handled, propagated, and visibly
// dropped (`_ =`) forms must pass, as must calls with no error result.
package klog

import (
	"errors"

	"kafkadirect/internal/analysis/testdata/src/client"
)

// Append mimics the replicated-log API: its error is the failover signal.
func Append(rec []byte) error {
	if len(rec) == 0 {
		return errors.New("empty record")
	}
	return nil
}

// Flush has no error result, so calling it as a bare statement is legal.
func Flush() {}

// Size returns a value without an error; discarding nothing is legal.
func Size() int { return 0 }

func drop(rec []byte) {
	Append(rec)       // want `error from klog\.Append is silently discarded`
	go Append(rec)    // want `error from klog\.Append is silently discarded`
	defer Append(rec) // want `error from klog\.Append is silently discarded`
}

// dropPoll discards an error from another package of the set: a harness
// that polls without reading the error measures failed fetches.
func dropPoll() {
	client.Poll() // want `error from client\.Poll is silently discarded`
}

func handled(rec []byte) error {
	if err := Append(rec); err != nil {
		return err
	}
	// A visible, reviewable drop is an explicit decision, not an accident.
	_ = Append(rec)
	Flush()
	Size()
	return nil
}
