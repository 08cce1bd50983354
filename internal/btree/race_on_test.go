//go:build race

package btree

// raceDetector reports whether this test binary was built with -race.
const raceDetector = true
