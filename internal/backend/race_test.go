//go:build race

package backend

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts.
const raceEnabled = true
