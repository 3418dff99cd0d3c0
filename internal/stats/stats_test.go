package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewLinearHistogram("size", 512, 8)
	h.Add(1)
	h.Add(512)
	h.Add(513)
	h.Add(4096)
	h.Add(5000) // overflow

	if h.Total() != 5 {
		t.Fatalf("total = %d, want 5", h.Total())
	}
	if h.Count(0) != 2 {
		t.Errorf("bin0 = %d, want 2 (values 1 and 512)", h.Count(0))
	}
	if h.Count(1) != 1 {
		t.Errorf("bin1 = %d, want 1 (value 513)", h.Count(1))
	}
	if h.Count(7) != 1 {
		t.Errorf("bin7 = %d, want 1 (value 4096)", h.Count(7))
	}
	if h.Count(8) != 1 {
		t.Errorf("overflow = %d, want 1", h.Count(8))
	}
	if got := h.Fraction(0); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("fraction bin0 = %v, want 0.4", got)
	}
}

func TestHistogramFractionAtOrBelow(t *testing.T) {
	h := NewLinearHistogram("size", 512, 8)
	for i := 0; i < 93; i++ {
		h.Add(100)
	}
	for i := 0; i < 7; i++ {
		h.Add(1000)
	}
	if got := h.FractionAtOrBelow(512); math.Abs(got-0.93) > 1e-12 {
		t.Fatalf("FractionAtOrBelow(512) = %v, want 0.93", got)
	}
	if got := h.FractionAtOrBelow(1 << 30); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("FractionAtOrBelow(max) = %v, want 1", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewLinearHistogram("a", 16, 4)
	b := NewLinearHistogram("b", 16, 4)
	a.Add(5)
	b.Add(5)
	b.Add(100) // overflow
	a.Merge(b)
	if a.Total() != 3 {
		t.Fatalf("merged total = %d, want 3", a.Total())
	}
	if a.Count(0) != 2 {
		t.Fatalf("merged bin0 = %d, want 2", a.Count(0))
	}
	if a.Count(4) != 1 {
		t.Fatalf("merged overflow = %d, want 1", a.Count(4))
	}
}

func TestHistogramMergePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched bounds")
		}
	}()
	a := NewLinearHistogram("a", 16, 4)
	b := NewLinearHistogram("b", 32, 4)
	a.Merge(b)
}

func TestHistogramNormalizedSumsToOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewLinearHistogram("p", 64, 8)
		n := 1 + rng.Intn(500)
		for i := 0; i < n; i++ {
			h.Add(int64(rng.Intn(1024)))
		}
		var s float64
		for _, f := range h.Normalized() {
			if f < 0 || f > 1 {
				return false
			}
			s += f
		}
		return math.Abs(s-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramCumulativeMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewLinearHistogram("c", 10, 12)
		for i := 0; i < 200; i++ {
			h.Add(int64(rng.Intn(200)))
		}
		prev := 0.0
		for i := 0; i < h.Bins(); i++ {
			c := h.CumulativeFraction(i)
			if c < prev-1e-12 {
				return false
			}
			prev = c
		}
		return prev <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unsorted bounds")
		}
	}()
	NewHistogram("bad", []int64{10, 5})
}

func TestCounter(t *testing.T) {
	c := NewCounter()
	c.Inc("a", 2)
	c.Inc("b", 1)
	c.Inc("a", 3)
	if c.Get("a") != 5 || c.Get("b") != 1 || c.Get("missing") != 0 {
		t.Fatalf("counter values wrong: a=%d b=%d", c.Get("a"), c.Get("b"))
	}
	keys := c.Keys()
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("keys = %v, want [a b]", keys)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(0, 0) != 0 {
		t.Error("Ratio(0,0) should be 0")
	}
	if got := Ratio(1, 3); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("Ratio(1,3) = %v, want 0.25", got)
	}
}

func TestGeoMean(t *testing.T) {
	if GeoMean(nil) != 0 {
		t.Error("GeoMean(nil) should be 0")
	}
	got := GeoMean([]float64{1, 4})
	if math.Abs(got-2) > 1e-9 {
		t.Errorf("GeoMean(1,4) = %v, want 2", got)
	}
	// zeros are skipped
	got = GeoMean([]float64{0, 2, 8})
	if math.Abs(got-4) > 1e-9 {
		t.Errorf("GeoMean(0,2,8) = %v, want 4", got)
	}
}

func TestMeanAndMinMax(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) should be 0")
	}
	if got := Mean([]float64{1, 2, 3}); math.Abs(got-2) > 1e-12 {
		t.Errorf("Mean = %v, want 2", got)
	}
	lo, hi := MinMax([]float64{3, 1, 2})
	if lo != 1 || hi != 3 {
		t.Errorf("MinMax = %v,%v want 1,3", lo, hi)
	}
	lo, hi = MinMax(nil)
	if lo != 0 || hi != 0 {
		t.Errorf("MinMax(nil) = %v,%v want 0,0", lo, hi)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	if Percentile([]uint64(nil), 0.5) != 0 {
		t.Error("Percentile(nil) should be 0")
	}
	us := []uint64{10, 20, 30, 40}
	for _, c := range []struct {
		q    float64
		want uint64
	}{{0, 10}, {0.25, 10}, {0.5, 20}, {0.51, 30}, {0.99, 40}, {1, 40}} {
		if got := Percentile(us, c.q); got != c.want {
			t.Errorf("Percentile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := Percentile([]float64{1.5, 2.5, 3.5}, 0.5); got != 2.5 {
		t.Errorf("float64 median = %v, want 2.5", got)
	}
}

func TestSafeDiv(t *testing.T) {
	if SafeDiv(1, 0) != 0 {
		t.Error("SafeDiv(1,0) should be 0")
	}
	if SafeDiv(6, 3) != 2 {
		t.Error("SafeDiv(6,3) should be 2")
	}
}

func TestHistogramMean(t *testing.T) {
	h := NewLinearHistogram("m", 10, 4)
	if h.Mean() != 0 {
		t.Error("empty mean should be 0")
	}
	h.Add(10)
	h.Add(20)
	if got := h.Mean(); math.Abs(got-15) > 1e-12 {
		t.Errorf("mean = %v, want 15", got)
	}
	h.AddN(30, 2)
	if got := h.Mean(); math.Abs(got-22.5) > 1e-12 {
		t.Errorf("mean = %v, want 22.5", got)
	}
}

func TestHistogramStringContainsName(t *testing.T) {
	h := NewLinearHistogram("mylabel", 10, 2)
	h.Add(5)
	h.Add(100)
	s := h.String()
	if len(s) == 0 || s[:7] != "mylabel" {
		t.Fatalf("String() should start with name: %q", s)
	}
}
