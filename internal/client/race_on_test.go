//go:build race

package client_test

// raceDetector reports that the race detector is on: sync.Pool then drops a
// quarter of what is put into it, so object counts are noise.
const raceDetector = true
