//go:build race

package main

// raceEnabled reports whether the race detector is compiled in; the smoke
// test skips the full sweep under it.
const raceEnabled = true
