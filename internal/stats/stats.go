package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram is a fixed-bin histogram over int64 samples. Bins are defined by
// their upper bounds (inclusive); samples above the last bound fall into an
// implicit overflow bin.
type Histogram struct {
	name   string
	bounds []int64 // ascending, inclusive upper bounds
	counts []uint64
	over   uint64
	total  uint64
	sum    int64
}

// NewHistogram creates a histogram with the given inclusive upper bounds,
// which must be strictly ascending.
func NewHistogram(name string, bounds []int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("stats: histogram %q bounds not ascending at %d", name, i))
		}
	}
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &Histogram{name: name, bounds: b, counts: make([]uint64, len(b))}
}

// NewLinearHistogram creates bins (0,width], (width,2*width], ... n bins.
func NewLinearHistogram(name string, width int64, n int) *Histogram {
	if width <= 0 || n <= 0 {
		panic("stats: linear histogram needs positive width and bin count")
	}
	bounds := make([]int64, n)
	for i := range bounds {
		bounds[i] = width * int64(i+1)
	}
	return NewHistogram(name, bounds)
}

// Name returns the histogram's display name.
func (h *Histogram) Name() string { return h.name }

// Add records one sample.
func (h *Histogram) Add(v int64) { h.AddN(v, 1) }

// AddN records a sample with multiplicity n.
func (h *Histogram) AddN(v int64, n uint64) {
	h.total += n
	h.sum += v * int64(n)
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
	if i == len(h.bounds) {
		h.over += n
		return
	}
	h.counts[i] += n
}

// Total returns the number of samples recorded.
func (h *Histogram) Total() uint64 { return h.total }

// Mean returns the sample mean (0 for an empty histogram).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Bins returns the number of explicit bins (excluding overflow).
func (h *Histogram) Bins() int { return len(h.bounds) }

// Bound returns the inclusive upper bound of bin i.
func (h *Histogram) Bound(i int) int64 { return h.bounds[i] }

// Count returns the raw count of bin i; i == Bins() returns the overflow bin.
func (h *Histogram) Count(i int) uint64 {
	if i == len(h.counts) {
		return h.over
	}
	return h.counts[i]
}

// Fraction returns bin i's share of all samples in [0,1]; i == Bins() is the
// overflow bin.
func (h *Histogram) Fraction(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Count(i)) / float64(h.total)
}

// CumulativeFraction returns the share of samples <= Bound(i).
func (h *Histogram) CumulativeFraction(i int) float64 {
	if h.total == 0 {
		return 0
	}
	var c uint64
	for j := 0; j <= i && j < len(h.counts); j++ {
		c += h.counts[j]
	}
	return float64(c) / float64(h.total)
}

// FractionAtOrBelow returns the share of samples with value <= v.
func (h *Histogram) FractionAtOrBelow(v int64) float64 {
	if h.total == 0 {
		return 0
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
	if i == len(h.bounds) {
		return 1 - float64(h.over)/float64(h.total)
	}
	return h.CumulativeFraction(i)
}

// Merge adds all samples of o (which must have identical bounds) into h.
func (h *Histogram) Merge(o *Histogram) {
	if len(o.bounds) != len(h.bounds) {
		panic("stats: merging histograms with different bin counts")
	}
	for i := range h.bounds {
		if h.bounds[i] != o.bounds[i] {
			panic("stats: merging histograms with different bounds")
		}
		h.counts[i] += o.counts[i]
	}
	h.over += o.over
	h.total += o.total
	h.sum += o.sum
}

// String renders the histogram as percentage rows.
func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (n=%d)\n", h.name, h.total)
	lo := int64(1)
	for i := range h.bounds {
		fmt.Fprintf(&b, "  [%d, %d]: %5.1f%%\n", lo, h.bounds[i], 100*h.Fraction(i))
		lo = h.bounds[i] + 1
	}
	if h.over > 0 {
		fmt.Fprintf(&b, "  [%d, Inf]: %5.1f%%\n", lo, 100*h.Fraction(len(h.bounds)))
	}
	return b.String()
}

// Normalized returns per-bin fractions including the overflow bin as the last
// element.
func (h *Histogram) Normalized() []float64 {
	out := make([]float64, len(h.bounds)+1)
	for i := range out {
		out[i] = h.Fraction(i)
	}
	return out
}

// Counter is a simple named uint64 counter set.
type Counter struct {
	m    map[string]uint64
	keys []string
}

// NewCounter returns an empty counter set.
func NewCounter() *Counter {
	return &Counter{m: make(map[string]uint64)}
}

// Inc adds n to key.
func (c *Counter) Inc(key string, n uint64) {
	if _, ok := c.m[key]; !ok {
		c.keys = append(c.keys, key)
	}
	c.m[key] += n
}

// Get returns the counter's value (0 if absent).
func (c *Counter) Get(key string) uint64 { return c.m[key] }

// Keys returns the keys in insertion order.
func (c *Counter) Keys() []string {
	out := make([]string, len(c.keys))
	copy(out, c.keys)
	return out
}

// Ratio computes a/(a+b) safely.
func Ratio(a, b uint64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}

// SafeDiv returns a/b, or 0 when b is 0.
func SafeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// GeoMean returns the geometric mean of positive values; zero/negative values
// are skipped. Returns 0 for an empty input.
func GeoMean(vs []float64) float64 {
	var logSum float64
	n := 0
	for _, v := range vs {
		if v > 0 {
			logSum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// Percentile returns the q-quantile (0 < q <= 1) of the samples by the
// nearest-rank method. The input must be sorted ascending; the result is
// always one of the samples. Returns 0 for an empty input.
func Percentile[T uint64 | float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// MinMax returns the minimum and maximum of vs; both 0 for empty input.
func MinMax(vs []float64) (lo, hi float64) {
	if len(vs) == 0 {
		return 0, 0
	}
	lo, hi = vs[0], vs[0]
	for _, v := range vs[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}
