package fleet

import (
	"fmt"
	"math"
	"math/rand"

	"memento/internal/workload"
)

// Pattern names an invocation arrival process.
type Pattern int

const (
	// PatternPoisson is a memoryless arrival process: exponential
	// inter-arrival gaps with mean MeanGap.
	PatternPoisson Pattern = iota
	// PatternBursty is an on/off modulated Poisson process: bursts of
	// BurstLen invocations arriving BurstFactor times faster than MeanGap,
	// separated by idle gaps sized so the long-run rate stays 1/MeanGap.
	PatternBursty
	// PatternDiurnal modulates the Poisson rate with a triangle wave of
	// period Period and relative amplitude Amplitude — the Azure-style
	// day/night load swing, kept piecewise-linear so the schedule is
	// bit-deterministic across platforms.
	PatternDiurnal
)

// String implements fmt.Stringer.
func (p Pattern) String() string {
	switch p {
	case PatternPoisson:
		return "poisson"
	case PatternBursty:
		return "bursty"
	case PatternDiurnal:
		return "diurnal"
	default:
		return fmt.Sprintf("pattern(%d)", int(p))
	}
}

// Arrivals describes a deterministic invocation arrival trace over a
// workload mix. Build one with Poisson, Bursty, or Diurnal and adjust the
// exported fields before handing it to WithArrivals; the same Arrivals
// value always expands to the same invocation schedule.
type Arrivals struct {
	Pattern Pattern
	// N is the number of invocations to generate.
	N int
	// MeanGap is the long-run mean inter-arrival gap in cycles.
	MeanGap uint64
	// Seed drives workload choice and gap jitter.
	Seed int64
	// Workloads is the uniform workload mix; empty selects the full
	// 23-workload benchmark suite.
	Workloads []string

	// BurstLen and BurstFactor shape PatternBursty (defaults 32 and 8).
	BurstLen    int
	BurstFactor float64
	// Period and Amplitude shape PatternDiurnal; Period defaults to a
	// quarter of the nominal horizon N*MeanGap, Amplitude to 0.8.
	Period    uint64
	Amplitude float64
}

// Poisson returns a Poisson arrival trace of n invocations with the given
// mean inter-arrival gap.
func Poisson(n int, meanGap uint64, seed int64) Arrivals {
	return Arrivals{Pattern: PatternPoisson, N: n, MeanGap: meanGap, Seed: seed}
}

// Bursty returns an on/off burst arrival trace of n invocations whose
// long-run rate matches 1/meanGap.
func Bursty(n int, meanGap uint64, seed int64) Arrivals {
	return Arrivals{Pattern: PatternBursty, N: n, MeanGap: meanGap, Seed: seed, BurstLen: 32, BurstFactor: 8}
}

// Diurnal returns a diurnally-modulated arrival trace of n invocations
// whose long-run rate matches 1/meanGap.
func Diurnal(n int, meanGap uint64, seed int64) Arrivals {
	return Arrivals{Pattern: PatternDiurnal, N: n, MeanGap: meanGap, Seed: seed, Amplitude: 0.8}
}

// Invocation is one function invocation in the fleet's arrival trace.
type Invocation struct {
	// ID is the arrival index (0-based).
	ID int
	// Workload names the benchmark profile this invocation runs.
	Workload string
	// Arrival is the arrival time in cycles.
	Arrival uint64
}

// validate checks the shape parameters.
func (a Arrivals) validate() error {
	if a.N <= 0 {
		return fmt.Errorf("fleet: arrivals need N > 0 invocations (got %d)", a.N)
	}
	if a.MeanGap == 0 {
		return fmt.Errorf("fleet: arrivals need MeanGap > 0 cycles")
	}
	// Every clamp below compares false against NaN, so a NaN shape would
	// make every gap NaN, whose uint64 conversion Go leaves to the platform.
	if math.IsNaN(a.BurstFactor) || math.IsNaN(a.Amplitude) {
		return fmt.Errorf("fleet: arrivals need numeric BurstFactor and Amplitude (got %v, %v)", a.BurstFactor, a.Amplitude)
	}
	for _, w := range a.Workloads {
		if _, ok := workload.ByName(w); !ok {
			return fmt.Errorf("fleet: unknown workload %q in arrival mix", w)
		}
	}
	return nil
}

// mix resolves the workload mix.
func (a Arrivals) mix() []string {
	if len(a.Workloads) > 0 {
		return a.Workloads
	}
	return workload.Names()
}

// arrivalStream yields the deterministic, time-sorted invocation schedule
// one invocation at a time, so a run holds O(1) of it however long it is.
type arrivalStream struct {
	a   Arrivals // shape parameters, defaults resolved
	mix []string
	rng *rand.Rand
	i   int    // next invocation ID
	now uint64 // the last arrival time
}

// stream validates the shape parameters and starts the schedule.
func (a Arrivals) stream() (*arrivalStream, error) {
	if err := a.validate(); err != nil {
		return nil, err
	}
	if a.BurstLen <= 0 {
		a.BurstLen = 32
	}
	if a.BurstFactor < 1 {
		a.BurstFactor = 8
	}
	if a.Period == 0 {
		a.Period = uint64(a.N) * a.MeanGap / 4
		if a.Period == 0 {
			a.Period = a.MeanGap
		}
	}
	a.Amplitude = min(max(a.Amplitude, 0), 0.95)
	return &arrivalStream{a: a, mix: a.mix(), rng: rand.New(rand.NewSource(a.Seed))}, nil
}

// next returns the next invocation, or false once all N have arrived.
func (s *arrivalStream) next() (Invocation, bool) {
	if s.i == s.a.N {
		return Invocation{}, false
	}
	inv := s.a.generate(s.rng, s.mix, s.i, s.now)
	s.i++
	s.now = inv.Arrival
	return inv, true
}

// distinct consumes the stream and returns the mix's workloads in
// first-arrival order. It stops once every distinct name of the mix has
// arrived: after 86 draws on average for the full suite, and after all N
// only when some workload never arrives.
func (s *arrivalStream) distinct() []string {
	seen := make(map[string]bool, len(s.mix))
	for _, w := range s.mix {
		seen[w] = false // a repeated name counts once
	}
	order := make([]string, 0, len(seen))
	for len(order) < len(seen) {
		inv, ok := s.next()
		if !ok {
			break
		}
		if !seen[inv.Workload] {
			seen[inv.Workload] = true
			order = append(order, inv.Workload)
		}
	}
	return order
}

// generate draws invocation i, which arrives one gap after now. The
// receiver's shape parameters must have their defaults resolved (stream).
func (a Arrivals) generate(rng *rand.Rand, mix []string, i int, now uint64) Invocation {
	name := mix[rng.Intn(len(mix))]
	mean := float64(a.MeanGap)
	var gap float64
	switch a.Pattern {
	case PatternBursty:
		gap = rng.ExpFloat64() * mean / a.BurstFactor
		if (i+1)%a.BurstLen == 0 {
			// Idle long enough to restore the long-run rate: the burst
			// saved BurstLen*mean*(1-1/f) cycles; pay them back here.
			gap += float64(a.BurstLen) * mean * (1 - 1/a.BurstFactor)
		}
	case PatternDiurnal:
		// Triangle wave in [1-amp, 1+amp] over the period modulates the
		// arrival *rate*; the gap divides by it.
		phase := float64(now%a.Period) / float64(a.Period) // [0,1)
		tri := 1 - 4*absf(phase-0.5)                       // [-1,1], peak mid-period
		rate := 1 + a.Amplitude*tri
		gap = rng.ExpFloat64() * mean / rate
	default: // PatternPoisson
		gap = rng.ExpFloat64() * mean
	}
	return Invocation{ID: i, Workload: name, Arrival: now + uint64(gap)}
}

func absf(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}
