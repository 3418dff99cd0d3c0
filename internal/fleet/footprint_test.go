package fleet

import (
	"runtime"
	"testing"

	"memento/internal/config"
	"memento/internal/machine"
)

// sharedCosts is a cost model with a large copy-on-write base: each
// instance's footprint is 1000 pages of which 900 are the shared
// post-setup image.
func sharedCosts() *StaticBackend {
	return &StaticBackend{Default: Cost{
		RunCycles: 50_000_000, SetupCycles: 1_000_000, ColdExtraCycles: 1_000_000,
		FootprintPages: 1000, SharedPages: 900,
		SnapshotBytes: 1000 * 4096, RestoreBytes: 100 * 4096,
	}}
}

// burstOf returns n near-simultaneous arrivals of one workload: the gaps
// (about 1000 cycles) are vanishingly small against the 51M-cycle run
// time, so all n instances are co-resident.
func burstOf(n int) Arrivals {
	a := Poisson(n, 1000, 3)
	a.Workloads = []string{"aes"}
	return a
}

// fanOut runs an n-wide single-workload burst on one n-core host and
// returns the result.
func fanOut(t *testing.T, n int, memPages uint64) *Result {
	t.Helper()
	r, err := New(config.Default(),
		WithArrivals(burstOf(n)),
		WithHosts(Hosts{Count: 1, Cores: n, MemPages: memPages}),
		WithPolicy(LRU()),
		WithBackend(sharedCosts()),
	).Run(machine.Memento)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestFleetSharedBaseSublinear is the footprint gate: N co-resident
// instances of one workload must grow the cluster's peak memory by only
// the private remainder per sibling, not by N full footprints. The host
// is deliberately sized so the fan-out schedules only if the shared base
// is counted once: 16 full footprints need 16000 pages, the host has
// 4000.
func TestFleetSharedBaseSublinear(t *testing.T) {
	const (
		n         = 16
		footprint = 1000
		shared    = 900
	)
	r := fanOut(t, n, 4000)
	if r.ColdStarts != n {
		t.Fatalf("want %d cold starts, got %d", n, r.ColdStarts)
	}
	wantPeak := uint64(footprint + (n-1)*(footprint-shared))
	if r.PeakPages != wantPeak {
		t.Errorf("peak pages = %d, want %d (base once + %d private remainders)",
			r.PeakPages, wantPeak, n-1)
	}
	if r.PeakSharedPages != uint64((n-1)*shared) {
		t.Errorf("peak shared pages = %d, want %d", r.PeakSharedPages, uint64((n-1)*shared))
	}

	// Sublinearity in N: widening the fan-out 4x grows peak memory by the
	// private remainder per added instance — an order of magnitude below
	// the footprint.
	small := fanOut(t, 4, 4000)
	perInstance := (r.PeakPages - small.PeakPages) / (n - 4)
	if perInstance != footprint-shared {
		t.Errorf("marginal pages per instance = %d, want %d", perInstance, footprint-shared)
	}
}

// TestFleetIdleWarmTrimmedToBase: once the burst completes and every
// instance goes idle in the warm pool, only the shared base may stay
// resident — the private pages delta-restore on the next hit. A follow-up
// hit must then be warm and re-charge exactly one private remainder.
func TestFleetIdleWarmTrimmedToBase(t *testing.T) {
	const (
		n         = 8
		footprint = 1000
		shared    = 900
	)
	var peakAfterIdle uint64
	probe := &memProbe{}
	r, err := New(config.Default(),
		WithArrivals(burstOf(n)),
		WithHosts(Hosts{Count: 1, Cores: n, MemPages: 4000}),
		WithPolicy(LRU()),
		WithBackend(sharedCosts()),
		WithProbe(probe),
	).Run(machine.Memento)
	if err != nil {
		t.Fatal(err)
	}
	peakAfterIdle = probe.last
	if peakAfterIdle != shared {
		t.Errorf("resident pages after all instances idle = %d, want %d (the shared base alone)",
			peakAfterIdle, shared)
	}
	if len(r.Evictions) != 0 {
		t.Errorf("trimmed warm pool still evicted %d instances", len(r.Evictions))
	}
}

// memProbe records the last aggregate-memory sample.
type memProbe struct{ last uint64 }

func (p *memProbe) Invocation(InvocationDone)        {}
func (p *memProbe) Eviction(Eviction)                {}
func (p *memProbe) MemSample(_ uint64, pages uint64) { p.last = pages }

// TestFleetSimBackendSharedBase: the machine-backed cost model must report
// a real copy-on-write base — nonzero, within the footprint — and a
// steady-state restore delta below the full checkpoint, for both stacks.
func TestFleetSimBackendSharedBase(t *testing.T) {
	if testing.Short() {
		t.Skip("full machine measurement; skipped in -short mode")
	}
	be := NewSimBackend(config.Default())
	for _, stack := range []machine.Stack{machine.Baseline, machine.Memento} {
		c, err := be.Measure("aes", stack)
		if err != nil {
			t.Fatal(err)
		}
		if c.SharedPages == 0 || c.SharedPages > c.FootprintPages {
			t.Errorf("%v: shared pages = %d, want in (0, %d]", stack, c.SharedPages, c.FootprintPages)
		}
		if c.RestoreBytes == 0 || c.RestoreBytes >= c.SnapshotBytes {
			t.Errorf("%v: restore bytes = %d, want in (0, %d)", stack, c.RestoreBytes, c.SnapshotBytes)
		}
	}
}

// TestFleetAllocPerInvocation pins the engine's host memory to its hosts,
// not its arrivals: at a fixed host pool, running 2N invocations instead
// of N may allocate at most 24 bytes per extra invocation. What stays O(N)
// is the 8-byte latency vector and, under a TTL, the eviction log;
// materializing the schedule would add 32 bytes per invocation. The
// schedules are the benchmark's fleet-lru and fleet-ttl at a tenth of
// their hosts.
func TestFleetAllocPerInvocation(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation distorts allocation counts")
	}
	if testing.Short() {
		t.Skip("300k-invocation runs; skipped in -short mode")
	}
	const n = 100_000
	schedules := []struct {
		name   string
		arr    func(n int) Arrivals
		hosts  Hosts
		policy Policy
	}{
		{"lru-bursty", func(n int) Arrivals { return Bursty(n, 9000, 1) },
			Hosts{Count: 1000, Cores: 2, MemPages: 1600}, LRU()},
		{"ttl-poisson", func(n int) Arrivals { return Poisson(n, 90_000, 1) },
			Hosts{Count: 100, Cores: 2, MemPages: 16384}, KeepAlive(150_000_000)},
	}
	for _, sc := range schedules {
		allocated := func(n int) uint64 {
			f := New(config.Default(),
				WithArrivals(sc.arr(n)),
				WithHosts(sc.hosts),
				WithPolicy(sc.policy),
				WithBackend(staticCosts()),
				WithoutLatencies(),
			)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			r, err := f.Run(machine.Memento)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if r.Invocations != n {
				t.Fatalf("%s: %d of %d invocations completed", sc.name, r.Invocations, n)
			}
			return after.TotalAlloc - before.TotalAlloc
		}
		small, large := allocated(n), allocated(2*n)
		perInv := (float64(large) - float64(small)) / n
		t.Logf("%s: %.1f B per extra invocation (%d B at N, %d B at 2N)", sc.name, perInv, small, large)
		if perInv > 24 {
			t.Errorf("%s: %.1f B allocated per extra invocation, want at most 24", sc.name, perInv)
		}
	}
}
