//go:build race

package operators_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
