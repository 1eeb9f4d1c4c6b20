//go:build !race

package store

// raceEnabled reports whether the race detector instruments this build;
// allocation counts skip themselves under -race, where they include
// instrumentation overhead.
const raceEnabled = false
