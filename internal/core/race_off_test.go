//go:build !race

package core

// raceEnabled reports whether the race detector instruments this build;
// the run alloc-budget guard skips itself under -race, where allocation
// volumes include instrumentation overhead.
const raceEnabled = false
