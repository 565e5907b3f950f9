//go:build !race

package main

// raceEnabled reports whether the race detector instruments this build;
// timing-sensitive gates skip themselves when it does.
const raceEnabled = false
