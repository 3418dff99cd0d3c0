package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func cell(t *testing.T, s string) float64 {
	t.Helper()
	f, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("bad cell %q: %v", s, err)
	}
	return f
}

func TestExtensionEphemeralGC(t *testing.T) {
	if testing.Short() {
		t.Skip("full runs")
	}
	// All renders ExtensionEphemeralGC(sharedSuite); reuse that run.
	e := sharedExperiments(t)["ext-ephemeral-gc"]
	if len(e.Rows) != 4 {
		t.Fatalf("rows = %d, want 3 platform ops + average", len(e.Rows))
	}
	for _, r := range e.Rows[:3] {
		std, eph := cell(t, r[1]), cell(t, r[2])
		if eph <= std {
			t.Errorf("%s: ephemeral GC speedup %.3f should beat standard %.3f", r[0], eph, std)
		}
		hrStd, hrEph := cell(t, r[3]), cell(t, r[4])
		if hrEph <= hrStd+20 {
			t.Errorf("%s: ephemeral free hit rate %.1f%% should far exceed %.1f%%", r[0], hrEph, hrStd)
		}
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("full runs")
	}
	// All renders Ablations(sharedSuite); reuse that run.
	byID := sharedExperiments(t)
	// Bypass must contribute measurable speedup and traffic savings.
	b := byID["abl-bypass"]
	on, off := cell(t, b.Rows[0][1]), cell(t, b.Rows[1][1])
	if on <= off {
		t.Errorf("bypass on (%.3f) must beat bypass off (%.3f)", on, off)
	}
	// HOT latency: speedup must be non-increasing in latency.
	h := byID["abl-hot-latency"]
	prev := 99.0
	for _, r := range h.Rows {
		v := cell(t, r[1])
		if v > prev+0.002 {
			t.Errorf("HOT latency sweep not monotone: %v", h.Rows)
		}
		prev = v
	}
	// Pool depth is off the critical path: spread below 1%.
	p := byID["abl-pool"]
	lo, hi := 99.0, 0.0
	for _, r := range p.Rows {
		v := cell(t, r[1])
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi-lo > 0.01 {
		t.Errorf("pool depth moved speedup by %.3f; refills should be off the critical path", hi-lo)
	}
	// AAC hit rate grows with entries.
	a := byID["abl-aac"]
	if cell(t, a.Rows[0][2]) >= cell(t, a.Rows[len(a.Rows)-1][2]) {
		t.Error("AAC hit rate should grow with entry count")
	}
}
