package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"memento/internal/config"
	"memento/internal/machine"
)

// referenceSchedule expands the whole schedule into a slice in one loop:
// the oracle the arrival stream must reproduce invocation for invocation.
// A workload's dense id is the rank of its first occurrence among the
// mix's distinct names, found here by a linear search.
func referenceSchedule(a Arrivals) ([]Invocation, error) {
	if err := a.validate(); err != nil {
		return nil, err
	}
	mix := a.mix()
	var distinct []string
	for _, w := range mix {
		if !slices.Contains(distinct, w) {
			distinct = append(distinct, w)
		}
	}
	rng := rand.New(rand.NewSource(a.Seed))
	invs := make([]Invocation, a.N)
	mean := float64(a.MeanGap)

	burstLen := a.BurstLen
	if burstLen <= 0 {
		burstLen = 32
	}
	burstFactor := a.BurstFactor
	if burstFactor < 1 {
		burstFactor = 8
	}
	period := a.Period
	if period == 0 {
		period = uint64(a.N) * a.MeanGap / 4
		if period == 0 {
			period = a.MeanGap
		}
	}
	amp := a.Amplitude
	if amp < 0 {
		amp = 0
	}
	if amp > 0.95 {
		amp = 0.95
	}

	var now uint64
	for i := range invs {
		name := mix[rng.Intn(len(mix))]
		var gap float64
		switch a.Pattern {
		case PatternBursty:
			gap = rng.ExpFloat64() * mean / burstFactor
			if (i+1)%burstLen == 0 {
				gap += float64(burstLen) * mean * (1 - 1/burstFactor)
			}
		case PatternDiurnal:
			phase := float64(now%period) / float64(period)
			tri := 1 - 4*absf(phase-0.5)
			rate := 1 + amp*tri
			gap = rng.ExpFloat64() * mean / rate
		default:
			gap = rng.ExpFloat64() * mean
		}
		now += uint64(gap)
		invs[i] = Invocation{ID: i, Workload: name, Arrival: now, wid: int32(slices.Index(distinct, name)) + 1}
	}
	return invs, nil
}

// oracleSchedules are the arrival shapes the stream is checked on: every
// pattern over several seeds, plus the edge shapes.
func oracleSchedules() map[string]Arrivals {
	out := map[string]Arrivals{}
	for _, seed := range []int64{1, 2, 7, 21, 1234} {
		for _, a := range []Arrivals{
			Poisson(2000, 4_000_000, seed),
			Bursty(2000, 900, seed),
			Diurnal(2000, 9000, seed),
		} {
			out[fmt.Sprintf("%s/seed%d", a.Pattern, seed)] = a
		}
	}
	// Fewer invocations than the 23-workload mix: some never arrive, so the
	// prefix pass reads the whole stream.
	out["short"] = Poisson(5, 1_000_000, 3)
	// A repeated name weights the draw but counts once as a workload.
	dup := Bursty(500, 2000, 4)
	dup.Workloads = []string{"aes", "html", "aes", "jl"}
	out["duplicate"] = dup
	bursty := Bursty(700, 5000, 5)
	bursty.BurstLen, bursty.BurstFactor = 5, 0.5 // a factor below 1 selects the default
	out["bursty-shape"] = bursty
	diurnal := Diurnal(700, 5000, 6)
	diurnal.Period, diurnal.Amplitude = 123_457, 3 // the amplitude clamps to 0.95
	out["diurnal-shape"] = diurnal
	flat := Diurnal(300, 5000, 8)
	flat.Amplitude = -1 // clamps to 0
	out["diurnal-flat"] = flat
	return out
}

// drain reads a stream to its end.
func drain(s *arrivalStream) []Invocation {
	var invs []Invocation
	for inv, ok := s.next(); ok; inv, ok = s.next() {
		invs = append(invs, inv)
	}
	return invs
}

// firstArrivals lists the distinct workloads of a schedule in first-arrival
// order, with the index of the invocation that completed the list.
func firstArrivals(invs []Invocation) ([]string, int) {
	var order []string
	last := -1
	seen := map[string]bool{}
	for i, inv := range invs {
		if !seen[inv.Workload] {
			seen[inv.Workload] = true
			order = append(order, inv.Workload)
			last = i
		}
	}
	return order, last
}

// TestArrivalStreamMatchesReference is the schedule oracle: the stream
// yields exactly the invocations the slice expansion held, and the prefix
// pass names the reference's workloads in first-arrival order, stopping at
// the arrival that completes the mix.
func TestArrivalStreamMatchesReference(t *testing.T) {
	for name, a := range oracleSchedules() {
		want, err := referenceSchedule(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s, err := a.stream()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := drain(s); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: stream diverges from the reference schedule", name)
		}
		if _, ok := s.next(); ok {
			t.Errorf("%s: stream yields past N", name)
		}

		wantOrder, last := firstArrivals(want)
		distinct := map[string]bool{}
		for _, w := range a.mix() {
			distinct[w] = true
		}
		wantDraws := a.N // some workload never arrives
		if len(wantOrder) == len(distinct) {
			wantDraws = last + 1
		}
		prefix, _ := a.stream()
		if got := prefix.distinct(); !reflect.DeepEqual(got, wantOrder) {
			t.Errorf("%s: distinct = %v, want %v", name, got, wantOrder)
		}
		if prefix.i != wantDraws {
			t.Errorf("%s: prefix pass drew %d invocations, want %d", name, prefix.i, wantDraws)
		}
	}
}

// TestArrivalsRejectNaN: every clamp on the shape parameters compares
// false against NaN, so a NaN shape would turn every gap into NaN, whose
// uint64 conversion differs between platforms. Both shapes are rejected
// on every pattern, by the stream and by Run.
func TestArrivalsRejectNaN(t *testing.T) {
	for _, mk := range []func(int, uint64, int64) Arrivals{Poisson, Bursty, Diurnal} {
		for _, field := range []string{"BurstFactor", "Amplitude"} {
			a := mk(5, 1_000_000, 1)
			if field == "BurstFactor" {
				a.BurstFactor = math.NaN()
			} else {
				a.Amplitude = math.NaN()
			}
			if _, err := a.stream(); err == nil {
				t.Errorf("%s: NaN %s accepted by the stream", a.Pattern, field)
			}
			_, err := New(config.Default(), WithArrivals(a), WithBackend(staticCosts())).Run(machine.Memento)
			if err == nil {
				t.Errorf("%s: NaN %s accepted by Run", a.Pattern, field)
			}
		}
	}
}
