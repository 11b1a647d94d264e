//go:build !race

package server

// raceDetector reports a -race build: its sync.Pool drops items at random,
// so allocation counts are not exact under it.
const raceDetector = false
