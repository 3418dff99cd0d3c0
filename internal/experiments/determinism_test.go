package experiments

import "testing"

// TestParallelSweepIsDeterministic: the suite fans the 23x3 sweep across
// goroutines; results must not depend on scheduling, since every machine
// is independent and every generator seeded.
func TestParallelSweepIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full sweeps")
	}
	render := func(s *Suite) string {
		e, err := Fig8Speedup(s)
		if err != nil {
			t.Fatal(err)
		}
		return e.Render()
	}
	// Two independent parallel sweeps: the package's two suites.
	a := render(sharedSuite)
	b := render(secondSuite().s)
	if a != b {
		t.Fatalf("sweep output differs across runs:\n%s\n---\n%s", a, b)
	}
}
