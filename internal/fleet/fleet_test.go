package fleet

import (
	"reflect"
	"strings"
	"testing"

	"memento/internal/config"
	"memento/internal/machine"
)

// staticCosts is the canned backend most engine tests schedule against.
func staticCosts() *StaticBackend {
	return &StaticBackend{
		ByWorkload: map[string]Cost{
			"html": {RunCycles: 12_000_000, SetupCycles: 3_000_000, ColdExtraCycles: 2_400_000, FootprintPages: 1100},
			"aes":  {RunCycles: 8_000_000, SetupCycles: 2_000_000, ColdExtraCycles: 2_400_000, FootprintPages: 700},
			"jl":   {RunCycles: 15_000_000, SetupCycles: 2_500_000, ColdExtraCycles: 2_400_000, FootprintPages: 900},
		},
		Default: Cost{RunCycles: 10_000_000, SetupCycles: 2_000_000, ColdExtraCycles: 2_400_000, FootprintPages: 800},
	}
}

func run(t *testing.T, stack machine.Stack, opts ...Option) *Result {
	t.Helper()
	r, err := New(config.Default(), opts...).Run(stack)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestConformanceShippedPolicies(t *testing.T) {
	for _, mk := range []func() Policy{
		AlwaysCold,
		func() Policy { return KeepAlive(120_000_000) },
		LRU,
	} {
		if err := Conformance(mk); err != nil {
			t.Error(err)
		}
	}
}

// TestDeterminismMachineBacked pins the full determinism contract on the
// real cost model: same seed, same Fleet configuration, fresh backends —
// identical Result down to the eviction log, across both stacks.
func TestDeterminismMachineBacked(t *testing.T) {
	if testing.Short() {
		t.Skip("machine-backed measurement in -short mode")
	}
	for _, stack := range []machine.Stack{machine.Baseline, machine.Memento} {
		mk := func() *Result {
			return run(t, stack,
				WithArrivals(Arrivals{Pattern: PatternBursty, N: 60, MeanGap: 4_000_000, Seed: 5,
					Workloads: []string{"aes", "html"}, BurstLen: 16, BurstFactor: 8}),
				WithHosts(Hosts{Count: 2, Cores: 2, MemPages: 8192}),
				WithPolicy(KeepAlive(80_000_000)),
			)
		}
		r1, r2 := mk(), mk()
		if !reflect.DeepEqual(r1, r2) {
			t.Fatalf("stack %s: repeated machine-backed runs diverge:\n%+v\nvs\n%+v", stack, r1, r2)
		}
		if r1.Invocations != 60 {
			t.Fatalf("stack %s: %d of 60 invocations completed", stack, r1.Invocations)
		}
	}
}

func TestAlwaysColdNeverWarm(t *testing.T) {
	r := run(t, machine.Memento,
		WithArrivals(Poisson(200, 4_000_000, 3)),
		WithHosts(Hosts{Count: 2, Cores: 2, MemPages: 8192}),
		WithPolicy(AlwaysCold()),
		WithBackend(staticCosts()),
	)
	if r.WarmHits != 0 || r.ColdStarts != 200 {
		t.Fatalf("always-cold: warm=%d cold=%d, want 0/200", r.WarmHits, r.ColdStarts)
	}
	if len(r.Evictions) != 0 {
		t.Fatalf("always-cold evicted %d warm instances, want 0", len(r.Evictions))
	}
}

func TestKeepAliveWarmHitsAndTTLEvictions(t *testing.T) {
	r := run(t, machine.Memento,
		WithArrivals(Arrivals{Pattern: PatternPoisson, N: 200, MeanGap: 20_000_000, Seed: 4,
			Workloads: []string{"aes"}}),
		WithHosts(Hosts{Count: 1, Cores: 2, MemPages: 8192}),
		WithPolicy(KeepAlive(50_000_000)),
		WithBackend(staticCosts()),
	)
	if r.WarmHits == 0 {
		t.Fatal("keep-alive served no warm hits on a single-workload trace")
	}
	ttl := 0
	for _, ev := range r.Evictions {
		if ev.Reason == "ttl" {
			ttl++
		}
	}
	if ttl == 0 {
		t.Fatalf("keep-alive(50M) under 20M mean gaps logged no ttl evictions (%d total)", len(r.Evictions))
	}
}

func TestLRUPressureEvictions(t *testing.T) {
	r := run(t, machine.Memento,
		WithArrivals(Poisson(300, 4_000_000, 6)),
		WithHosts(Hosts{Count: 2, Cores: 2, MemPages: 2400}),
		WithPolicy(LRU()),
		WithBackend(staticCosts()),
	)
	pressure := 0
	for _, ev := range r.Evictions {
		if ev.Reason == "ttl" {
			t.Fatalf("LRU (no deadline) logged a ttl eviction: %+v", ev)
		}
		pressure++
	}
	if pressure == 0 {
		t.Fatal("LRU under tight memory logged no pressure evictions")
	}
	if r.WarmHits == 0 {
		t.Fatal("LRU served no warm hits")
	}
}

// TestWarmHitsCutLatency is the cost model's point: keep-warm policies beat
// always-cold on the same arrival trace because warm hits skip container
// and setup work.
func TestWarmHitsCutLatency(t *testing.T) {
	arr := Poisson(300, 5_000_000, 9)
	hosts := Hosts{Count: 2, Cores: 2, MemPages: 16384}
	cold := run(t, machine.Memento, WithArrivals(arr), WithHosts(hosts),
		WithPolicy(AlwaysCold()), WithBackend(staticCosts()))
	lru := run(t, machine.Memento, WithArrivals(arr), WithHosts(hosts),
		WithPolicy(LRU()), WithBackend(staticCosts()))
	if lru.MeanLatency >= cold.MeanLatency {
		t.Fatalf("LRU mean latency %.0f not below always-cold %.0f", lru.MeanLatency, cold.MeanLatency)
	}
	if lru.ColdFraction() >= cold.ColdFraction() {
		t.Fatalf("LRU cold fraction %.3f not below always-cold %.3f", lru.ColdFraction(), cold.ColdFraction())
	}
}

func TestPercentilesOrderedAndTailIsMax(t *testing.T) {
	r := run(t, machine.Memento,
		WithArrivals(Poisson(500, 4_000_000, 2)),
		WithHosts(Hosts{Count: 2, Cores: 2, MemPages: 8192}),
		WithPolicy(LRU()),
		WithBackend(staticCosts()),
	)
	if !(r.P50 <= r.P99 && r.P99 <= r.P999) {
		t.Fatalf("percentiles not monotone: p50=%d p99=%d p999=%d", r.P50, r.P99, r.P999)
	}
	var max uint64
	for _, l := range r.Latencies {
		if l > max {
			max = l
		}
	}
	if r.P999 > max {
		t.Fatalf("p999 %d exceeds max latency %d", r.P999, max)
	}
}

// refusePolicy never places anything: every invocation queues forever.
type refusePolicy struct{}

func (refusePolicy) Name() string                            { return "refuse" }
func (refusePolicy) Place(*Cluster, Invocation) int          { return -1 }
func (refusePolicy) KeepWarmTTL(*Cluster, Invocation) uint64 { return 0 }
func (refusePolicy) Victim(*Cluster, int) int                { return -1 }

func TestUnschedulableIsTypedError(t *testing.T) {
	_, err := New(config.Default(),
		WithArrivals(Poisson(10, 1_000_000, 1)),
		WithPolicy(refusePolicy{}),
		WithBackend(staticCosts()),
	).Run(machine.Memento)
	if err == nil || !strings.Contains(err.Error(), "unschedulable") {
		t.Fatalf("want unschedulable error, got %v", err)
	}
}

// wildPolicy places out of range to exercise the engine's validation.
type wildPolicy struct{}

func (wildPolicy) Name() string                            { return "wild" }
func (wildPolicy) Place(*Cluster, Invocation) int          { return 99 }
func (wildPolicy) KeepWarmTTL(*Cluster, Invocation) uint64 { return 0 }
func (wildPolicy) Victim(*Cluster, int) int                { return -1 }

func TestOutOfRangePlacementIsAnError(t *testing.T) {
	_, err := New(config.Default(),
		WithArrivals(Poisson(5, 1_000_000, 1)),
		WithPolicy(wildPolicy{}),
		WithBackend(staticCosts()),
	).Run(machine.Memento)
	if err == nil || !strings.Contains(err.Error(), "host 99") {
		t.Fatalf("want out-of-range placement error, got %v", err)
	}
}

func TestFootprintLargerThanHostIsAnError(t *testing.T) {
	_, err := New(config.Default(),
		WithArrivals(Poisson(5, 1_000_000, 1)),
		WithHosts(Hosts{Count: 1, Cores: 1, MemPages: 100}),
		WithPolicy(LRU()),
		WithBackend(&StaticBackend{Default: Cost{RunCycles: 1000, FootprintPages: 500}}),
	).Run(machine.Memento)
	if err == nil || !strings.Contains(err.Error(), "pages") {
		t.Fatalf("want footprint error, got %v", err)
	}
}

func TestArrivalsValidate(t *testing.T) {
	if _, err := New(config.Default(), WithArrivals(Poisson(0, 1, 1)),
		WithBackend(staticCosts())).Run(machine.Memento); err == nil {
		t.Fatal("N=0 arrivals accepted")
	}
	bad := Poisson(10, 1_000_000, 1)
	bad.Workloads = []string{"no-such-workload"}
	if _, err := New(config.Default(), WithArrivals(bad),
		WithBackend(staticCosts())).Run(machine.Memento); err == nil {
		t.Fatal("unknown workload in mix accepted")
	}
}

// TestTimeShareOversubscription: one host, one core, co-residency 2. The
// same overlapping burst that queues under exclusive cores runs co-resident
// under time sharing, paying the stretch and surcharge instead of waiting.
func TestTimeShareOversubscription(t *testing.T) {
	be := &StaticBackend{Default: Cost{
		RunCycles: 10_000_000, SetupCycles: 2_000_000, ColdExtraCycles: 1_000_000,
		CtxSwitchCycles: 500_000, FootprintPages: 100,
	}}
	arr := Arrivals{Pattern: PatternPoisson, N: 40, MeanGap: 2_000_000, Seed: 8,
		Workloads: []string{"aes"}}
	hosts := Hosts{Count: 1, Cores: 1, MemPages: 8192}

	serial := run(t, machine.Memento, WithArrivals(arr), WithHosts(hosts),
		WithPolicy(AlwaysCold()), WithBackend(be))
	shared := run(t, machine.Memento, WithArrivals(arr), WithHosts(hosts),
		WithPolicy(AlwaysCold()), WithBackend(be), WithTimeShare(2, 1500))

	if shared.Invocations != 40 || serial.Invocations != 40 {
		t.Fatalf("incomplete runs: serial=%d shared=%d", serial.Invocations, shared.Invocations)
	}
	if shared.MaxQueue >= serial.MaxQueue {
		t.Fatalf("time sharing did not shrink the queue: serial max %d, shared max %d",
			serial.MaxQueue, shared.MaxQueue)
	}
}

// countingProbe tallies probe callbacks for cross-checking Result fields.
type countingProbe struct {
	invocations, warm, evictions, samples int
}

func (p *countingProbe) Invocation(d InvocationDone) {
	p.invocations++
	if d.Warm {
		p.warm++
	}
}
func (p *countingProbe) Eviction(Eviction)     { p.evictions++ }
func (p *countingProbe) MemSample(_, _ uint64) { p.samples++ }

func TestProbeMatchesResult(t *testing.T) {
	var p countingProbe
	r := run(t, machine.Memento,
		WithArrivals(Poisson(250, 4_000_000, 12)),
		WithHosts(Hosts{Count: 2, Cores: 2, MemPages: 4096}),
		WithPolicy(KeepAlive(60_000_000)),
		WithBackend(staticCosts()),
		WithProbe(&p),
	)
	if p.invocations != r.Invocations {
		t.Fatalf("probe saw %d invocations, result has %d", p.invocations, r.Invocations)
	}
	if p.warm != r.WarmHits {
		t.Fatalf("probe saw %d warm hits, result has %d", p.warm, r.WarmHits)
	}
	if p.evictions != len(r.Evictions) {
		t.Fatalf("probe saw %d evictions, result has %d", p.evictions, len(r.Evictions))
	}
	if p.samples == 0 {
		t.Fatal("probe saw no memory samples")
	}
}

// TestSnapshotRestores pins the acceptance criterion: warm pricing routes
// through the machine layer's snapshot cache, counted per restore.
func TestSnapshotRestores(t *testing.T) {
	if testing.Short() {
		t.Skip("machine-backed measurement in -short mode")
	}
	arr := Poisson(20, 10_000_000, 1)
	arr.Workloads = []string{"aes"}
	r := run(t, machine.Memento,
		WithArrivals(arr),
		WithHosts(Hosts{Count: 1, Cores: 2, MemPages: 16384}),
		WithPolicy(LRU()),
		// Fresh SimBackend: nothing cached, so the measurement must restore.
		WithBackend(NewSimBackend(config.Default())),
	)
	if r.SnapshotRestores == 0 {
		t.Fatal("fleet run performed no snapshot restores; warm pricing is not routing through the snapshot cache")
	}
	if r.WarmHits == 0 {
		t.Fatal("LRU on a single-workload trace served no warm hits")
	}
}

// TestBackendCostsAreCachedAcrossRuns: a shared SimBackend measures each
// (workload, stack) once; the second run's restore delta is zero.
func TestBackendCostsAreCachedAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("machine-backed measurement in -short mode")
	}
	be := NewSimBackend(config.Default())
	arr := Poisson(10, 10_000_000, 1)
	arr.Workloads = []string{"aes"}
	opts := []Option{WithArrivals(arr), WithHosts(Hosts{Count: 1, Cores: 2, MemPages: 16384}),
		WithPolicy(LRU()), WithBackend(be)}
	r1 := run(t, machine.Memento, opts...)
	r2 := run(t, machine.Memento, opts...)
	if r1.SnapshotRestores == 0 {
		t.Fatal("first run restored nothing")
	}
	if r2.SnapshotRestores != 0 {
		t.Fatalf("second run re-measured (%d restores) despite the cache", r2.SnapshotRestores)
	}
	r1.SnapshotRestores = r2.SnapshotRestores
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("cached costs changed the schedule between identical runs")
	}
}

// TestInconsistentCostIsAnError: a custom Backend whose warm start skips
// more setup than the run holds would make WarmLatency wrap around and
// complete invocations in the past; one whose shared base exceeds the
// footprint would make the private remainder wrap and over-count memory.
// Run rejects both before scheduling, naming the workload.
func TestInconsistentCostIsAnError(t *testing.T) {
	for _, tc := range []struct {
		name string
		cost Cost
		want string
	}{
		{"setup beyond run", Cost{RunCycles: 1_000_000, SetupCycles: 2_000_000, FootprintPages: 500}, "setup cycles"},
		{"shared beyond footprint", Cost{RunCycles: 1_000_000, FootprintPages: 500, SharedPages: 600}, "shares"},
	} {
		arr := Poisson(50, 1_000_000, 1)
		arr.Workloads = []string{"aes"}
		_, err := New(config.Default(),
			WithArrivals(arr),
			WithHosts(Hosts{Count: 2, Cores: 2, MemPages: 1000}),
			WithPolicy(LRU()),
			WithBackend(&StaticBackend{Default: tc.cost}),
		).Run(machine.Memento)
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "aes") {
			t.Errorf("%s: want an error naming aes and %q, got %v", tc.name, tc.want, err)
		}
	}
}

// nameOnlyLRU is LRU reached through Invocations rebuilt from their
// exported fields, which drops the dense workload id the arrival stream
// attaches, so every placement resolves the workload by name.
type nameOnlyLRU struct{ rebuilt *int }

func exportedOnly(inv Invocation) Invocation {
	return Invocation{ID: inv.ID, Workload: inv.Workload, Arrival: inv.Arrival}
}

func (nameOnlyLRU) Name() string { return LRU().Name() }
func (p nameOnlyLRU) Place(c *Cluster, inv Invocation) int {
	if inv.id() >= 0 {
		*p.rebuilt++
	}
	return PlaceWarmFirst(c, exportedOnly(inv))
}
func (nameOnlyLRU) KeepWarmTTL(c *Cluster, inv Invocation) uint64 {
	return LRU().KeepWarmTTL(c, exportedOnly(inv))
}
func (nameOnlyLRU) Victim(c *Cluster, h int) int { return VictimLRU(c, h) }

// TestIDFallbackMatchesLRU: a policy that hands PlaceWarmFirst
// Invocations without their dense ids must schedule exactly like LRU over
// the Conformance scenarios, and pass Conformance itself. An id that no
// longer matches a rewritten Workload is not trusted either.
func TestIDFallbackMatchesLRU(t *testing.T) {
	rebuilt := 0
	mk := func() Policy { return nameOnlyLRU{rebuilt: &rebuilt} }
	if err := Conformance(mk); err != nil {
		t.Fatal(err)
	}
	for _, sc := range conformanceScenarios() {
		runWith := func(p Policy) *Result {
			return run(t, machine.Memento, WithArrivals(sc.arr), WithHosts(sc.hosts),
				WithPolicy(p), WithBackend(conformanceCost()))
		}
		if got, want := runWith(mk()), runWith(LRU()); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: name-resolved placements diverge from LRU", sc.label)
		}
	}
	if rebuilt == 0 {
		t.Fatal("the engine handed the policy no Invocation carrying an id")
	}

	e := newIndexEngine(1, 1, 1, 100, []string{"wa", "wb"})
	inv := Invocation{Workload: "wb", wid: 1} // the id of wa
	if got := e.c.idOf(inv); got != 1 {
		t.Fatalf("idOf trusted a stale id: got %d, want 1", got)
	}
	if got := e.c.idOf(Invocation{Workload: "wc"}); got != -1 {
		t.Fatalf("idOf(unknown workload) = %d, want -1", got)
	}
}
