// Benchmarks: one per table and figure of the paper's evaluation, each
// regenerating the corresponding result, plus micro-benchmarks of the
// Memento hardware fast paths. The workload sweep behind Table 2 and
// Figs 8-14 is computed once and shared, so each figure benchmark measures
// its own aggregation; BenchmarkSweep measures the full sweep itself.
package memento

import (
	"sync"
	"testing"

	"memento/internal/cache"
	"memento/internal/config"
	"memento/internal/core"
	"memento/internal/dram"
	"memento/internal/experiments"
	"memento/internal/fleet"
	"memento/internal/kernel"
	"memento/internal/machine"
	"memento/internal/tlb"
	"memento/internal/workload"
)

var (
	suiteOnce  sync.Once
	benchSuite *experiments.Suite
)

func sharedSuite(b *testing.B) *experiments.Suite {
	suiteOnce.Do(func() {
		benchSuite = experiments.NewSuite(config.Default())
		if _, err := benchSuite.Pairs(); err != nil {
			b.Fatal(err)
		}
	})
	return benchSuite
}

// BenchmarkSweep measures the full 23-workload x 3-stack simulation sweep
// that backs Table 2 and Figs 8-14.
func BenchmarkSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(config.Default())
		if _, err := s.Pairs(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2AllocationSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := experiments.Fig2AllocationSizes(experiments.NewSuite(config.Default()))
		if len(e.Rows) != 5 {
			b.Fatal("bad fig2")
		}
	}
}

func BenchmarkFig3Lifetimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := experiments.Fig3Lifetimes(experiments.NewSuite(config.Default()))
		if len(e.Rows) != 5 {
			b.Fatal("bad fig3")
		}
	}
}

func BenchmarkTable1Joint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := experiments.Table1Joint(experiments.NewSuite(config.Default()))
		if len(e.Rows) != 2 {
			b.Fatal("bad table1")
		}
	}
}

func benchExperiment(b *testing.B, run func(*experiments.Suite) (experiments.Experiment, error)) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Breakdown(b *testing.B)   { benchExperiment(b, experiments.Table2Breakdown) }
func BenchmarkFig8Speedup(b *testing.B)       { benchExperiment(b, experiments.Fig8Speedup) }
func BenchmarkFig9Breakdown(b *testing.B)     { benchExperiment(b, experiments.Fig9Breakdown) }
func BenchmarkFig10Bandwidth(b *testing.B)    { benchExperiment(b, experiments.Fig10Bandwidth) }
func BenchmarkFig11Memory(b *testing.B)       { benchExperiment(b, experiments.Fig11Memory) }
func BenchmarkFig12HOTHitRate(b *testing.B)   { benchExperiment(b, experiments.Fig12HOTHitRate) }
func BenchmarkFig13ArenaListOps(b *testing.B) { benchExperiment(b, experiments.Fig13ArenaListOps) }
func BenchmarkFig14Pricing(b *testing.B)      { benchExperiment(b, experiments.Fig14Pricing) }
func BenchmarkIsoStorage(b *testing.B)        { benchExperiment(b, experiments.IsoStorage) }
func BenchmarkMallacc(b *testing.B)           { benchExperiment(b, experiments.MallaccComparison) }
func BenchmarkFragmentation(b *testing.B)     { benchExperiment(b, experiments.SensitivityFragmentation) }

func BenchmarkTable3Config(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := experiments.Table3Config(s)
		if len(e.Rows) == 0 {
			b.Fatal("bad table3")
		}
	}
}

// BenchmarkFleet measures the fleet scheduler: 2000 Poisson invocations
// discrete-event-scheduled across 4x2 cores under the LRU policy (the
// `-fleet` study's heaviest row shape). The machine-backed cost model is
// warmed outside the timer, so the number isolates the scheduler itself —
// arrival generation, the event queue, placement, and eviction.
func BenchmarkFleet(b *testing.B) {
	be := fleet.NewSimBackend(config.Default())
	mk := func() *fleet.Fleet {
		return fleet.New(config.Default(),
			fleet.WithArrivals(fleet.Poisson(2000, 6_000_000, 11)),
			fleet.WithHosts(fleet.Hosts{Count: 4, Cores: 2, MemPages: 16384}),
			fleet.WithPolicy(fleet.LRU()),
			fleet.WithBackend(be),
		)
	}
	if _, err := mk().Run(machine.Memento); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := mk().Run(machine.Memento)
		if err != nil {
			b.Fatal(err)
		}
		if r.Invocations != 2000 {
			b.Fatal("incomplete fleet run")
		}
	}
}

// fleetScaleFleet builds the fleet the scale benchmarks run: a canned
// static cost model (no machine simulation, so scheduling is the only
// work), bursty arrivals at ~0.67 offered load, LRU keep-warm, and the
// latency vector dropped — the configuration that isolates the
// scheduling hot path the indexes accelerate.
func fleetScaleFleet(hosts, n int, gap uint64) *fleet.Fleet {
	be := &fleet.StaticBackend{
		ByWorkload: map[string]fleet.Cost{
			"html": {RunCycles: 12_000_000, SetupCycles: 3_000_000, ColdExtraCycles: 2_400_000, FootprintPages: 1100},
			"aes":  {RunCycles: 8_000_000, SetupCycles: 2_000_000, ColdExtraCycles: 2_400_000, FootprintPages: 700},
			"jl":   {RunCycles: 15_000_000, SetupCycles: 2_500_000, ColdExtraCycles: 2_400_000, FootprintPages: 900},
		},
		Default: fleet.Cost{RunCycles: 10_000_000, SetupCycles: 2_000_000, ColdExtraCycles: 2_400_000, FootprintPages: 800},
	}
	return fleet.New(config.Default(),
		fleet.WithArrivals(fleet.Bursty(n, gap, 17)),
		fleet.WithHosts(fleet.Hosts{Count: hosts, Cores: 2, MemPages: 16384}),
		fleet.WithPolicy(fleet.LRU()),
		fleet.WithBackend(be),
		fleet.WithoutLatencies(),
	)
}

// benchFleetScale times one fleetScaleFleet run per op.
func benchFleetScale(b *testing.B, hosts, n int, gap uint64) {
	for i := 0; i < b.N; i++ {
		r, err := fleetScaleFleet(hosts, n, gap).Run(machine.Memento)
		if err != nil {
			b.Fatal(err)
		}
		if r.Invocations != n {
			b.Fatal("incomplete fleet run")
		}
	}
}

// BenchmarkFleetScale measures the indexed engine at fleet scale: 1k
// hosts x 100k invocations (always), and 10k hosts x 1M invocations
// (skipped under -short). The gap scales with the host count so both
// points sit at the same ~0.67 offered load.
func BenchmarkFleetScale(b *testing.B) {
	b.Run("1k_hosts_100k_invs", func(b *testing.B) {
		benchFleetScale(b, 1000, 100_000, 9000)
	})
	b.Run("10k_hosts_1M_invs", func(b *testing.B) {
		if testing.Short() {
			b.Skip("10k-host point skipped in short mode")
		}
		benchFleetScale(b, 10_000, 1_000_000, 900)
	})
}

// BenchmarkWorkloadPair measures one full baseline+Memento comparison of a
// representative function (the unit of Fig 8).
func BenchmarkWorkloadPair(b *testing.B) {
	p, _ := workload.ByName("aes")
	tr := workload.Generate(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := machine.RunPair(config.Default(), tr, machine.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Memento hardware micro-benchmarks (simulator hot paths) ---

func newBenchUnit(b *testing.B) *core.Unit {
	cfg := config.Default()
	h := cache.NewHierarchy(cfg, dram.New(cfg.DRAM))
	k := kernel.New(cfg, h)
	lay, err := core.NewLayout(cfg.Memento, core.DefaultRegionStart, core.DefaultRegionBytes)
	if err != nil {
		b.Fatal(err)
	}
	pa, err := core.NewPageAllocator(cfg, lay, h, k)
	if err != nil {
		b.Fatal(err)
	}
	_ = tlb.NewSystem(cfg)
	u, err := core.NewUnit(cfg, lay, pa, h, core.NopTranslator())
	if err != nil {
		b.Fatal(err)
	}
	return u
}

// BenchmarkObjAllocFree measures the simulated obj-alloc/obj-free pair on
// the HOT hit path.
func BenchmarkObjAllocFree(b *testing.B) {
	u := newBenchUnit(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va, _, err := u.ObjAlloc(64)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := u.ObjFree(va); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHOTFlush measures a full context-switch HOT flush.
func BenchmarkHOTFlush(b *testing.B) {
	u := newBenchUnit(b)
	for c := 1; c <= 64; c++ {
		if _, _, err := u.ObjAlloc(uint64(c * 8)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.FlushHOT()
		// Reload one entry so the next flush has work to do; free the
		// object so the arena (and its stripe) is reused, not consumed.
		va, _, err := u.ObjAlloc(8)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := u.ObjFree(va); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheHierarchyAccess measures the simulator's L1-hit path.
func BenchmarkCacheHierarchyAccess(b *testing.B) {
	cfg := config.Default()
	h := cache.NewHierarchy(cfg, dram.New(cfg.DRAM))
	h.Access(0x1000, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(0x1000, false)
	}
}

// BenchmarkTraceGeneration measures workload-trace synthesis.
func BenchmarkTraceGeneration(b *testing.B) {
	p, _ := workload.ByName("html")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := workload.Generate(p)
		if tr.Len() == 0 {
			b.Fatal("empty trace")
		}
	}
}
