//go:build race

package core

// raceEnabled reports whether the race detector instruments this build;
// long single-threaded probes skip themselves when it does.
const raceEnabled = true
