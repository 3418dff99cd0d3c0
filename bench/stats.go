package main

import (
	"math"
	"slices"

	"memento/internal/stats"
)

func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartiles of xs, interpolated the
// way Python's statistics.quantiles(xs, n=4) does by default (the
// "exclusive" method), so spreads read the same here as in any script that
// post-processes the results.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := max(1, min(i*m/4, ld-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// percentile returns the nearest-rank q-quantile of xs and whether at least
// ten samples lie beyond it; a tail percentile is reported only then.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := sorted(xs)
	rank := max(0, min(int(math.Ceil(q*float64(len(s))))-1, len(s)-1))
	return s[rank], len(s)-1-rank >= 10
}

// summary describes one metric's samples.
type summary struct {
	N                  int
	Q1, Q3             float64
	MeanCILo, MeanCIHi float64
}

func summarize(xs []float64) summary {
	q1, q3 := quartiles(xs)
	ci := stats.BootstrapMeanCI(xs, 0.95, 2000, 1)
	return summary{N: len(xs), Q1: q1, Q3: q3, MeanCILo: ci.Lo, MeanCIHi: ci.Hi}
}

// Verdicts of a comparison between a parent's and a change's samples.
const (
	verdictImproved   = "improved"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// minPairs is the fewest pairs on which a comparison may call a change worse
// or improved; agreement is the share of them that must agree on its
// direction (nine of ten).
const (
	minPairs  = 10
	agreement = 0.9
)

// pairChanges returns the relative change of each pair (base[i], head[i]),
// signed so that a positive change is worse for a metric whose better
// direction is better ("lower" or "higher"). Unpaired runs are ignored.
func pairChanges(base, head []float64, better string) []float64 {
	n := min(len(base), len(head))
	ds := make([]float64, n)
	for i := range ds {
		ds[i] = (head[i] - base[i]) / math.Abs(base[i])
		if better == "higher" {
			ds[i] = -ds[i]
		}
	}
	return ds
}

// verdict compares head against base run by run. The i-th runs of the two
// sides are a pair measured back to back, so a drift of the host's speed
// between pairs, which on a shared machine is larger than the bounds,
// cancels out of each pair's change. The median change d decides, with
// bound a share of base:
//
//   - |d| <= bound: the same, or unresolved when the pairs' changes spread
//     (interquartile range) wider than the bound;
//   - d > bound: worse when at least minPairs pairs were measured and nine
//     of every ten got worse, ties counting for neither side;
//   - d < -bound: improved on the same condition, and only when the
//     medians also differ by more than the interquartile range of base's
//     own runs;
//
// and unresolved otherwise.
func verdict(base, head []float64, bound float64, better string) string {
	ds := pairChanges(base, head, better)
	if len(ds) == 0 {
		return verdictUnresolved
	}
	d := median(ds)
	if math.Abs(d) <= bound {
		if q1, q3 := quartiles(ds); q3-q1 > bound {
			return verdictUnresolved
		}
		return verdictSame
	}
	agree := 0
	for _, x := range ds {
		if x != 0 && (x > 0) == (d > 0) {
			agree++
		}
	}
	if len(ds) < minPairs || float64(agree) < agreement*float64(len(ds)) {
		return verdictUnresolved
	}
	if d > 0 {
		return verdictWorse
	}
	if q1, q3 := quartiles(base); math.Abs(median(head)-median(base)) <= q3-q1 {
		return verdictUnresolved
	}
	return verdictImproved
}
