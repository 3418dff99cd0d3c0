//go:build race

package fleet

// raceEnabled reports whether the race detector is compiled in (this file's
// build tag selects it). Used to skip allocation assertions, which the
// detector's instrumentation would distort.
const raceEnabled = true
