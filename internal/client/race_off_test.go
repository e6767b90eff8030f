//go:build !race

package client_test

const raceDetector = false
