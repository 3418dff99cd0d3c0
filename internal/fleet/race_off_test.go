//go:build !race

package fleet

// raceEnabled is false without the race detector; see race_on_test.go.
const raceEnabled = false
