//go:build !race

package stream

const raceDetector = false
