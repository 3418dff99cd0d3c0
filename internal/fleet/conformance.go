package fleet

import (
	"fmt"
	"reflect"

	"memento/internal/config"
	"memento/internal/machine"
)

// conformanceCost is the canned cost model the harness schedules with: no
// machine simulation, so any Policy can be checked in microseconds.
func conformanceCost() Backend {
	return &StaticBackend{
		ByWorkload: map[string]Cost{
			"html": {RunCycles: 12_000_000, SetupCycles: 3_000_000, ColdExtraCycles: 2_400_000, FootprintPages: 1100},
			"aes":  {RunCycles: 8_000_000, SetupCycles: 2_000_000, ColdExtraCycles: 2_400_000, FootprintPages: 700},
			"jl":   {RunCycles: 15_000_000, SetupCycles: 2_500_000, ColdExtraCycles: 2_400_000, FootprintPages: 900},
		},
		Default: Cost{RunCycles: 10_000_000, SetupCycles: 2_000_000, ColdExtraCycles: 2_400_000, FootprintPages: 800},
	}
}

// conformanceScenario is one cluster and arrival trace Conformance runs a
// policy on.
type conformanceScenario struct {
	label string
	arr   Arrivals
	hosts Hosts
}

// conformanceScenarios are Conformance's runs: every arrival pattern on a
// roomy cluster, plus one tight enough to force evictions.
func conformanceScenarios() []conformanceScenario {
	return []conformanceScenario{
		{"poisson", Poisson(300, 4_000_000, 7), Hosts{Count: 3, Cores: 2, MemPages: 8192}},
		{"bursty", Bursty(300, 4_000_000, 8), Hosts{Count: 3, Cores: 2, MemPages: 8192}},
		{"diurnal", Diurnal(300, 4_000_000, 9), Hosts{Count: 3, Cores: 2, MemPages: 8192}},
		// Tight memory: room for only ~2 footprints per host, forcing the
		// eviction path on every keep-warm policy.
		{"pressure", Poisson(200, 3_000_000, 10), Hosts{Count: 2, Cores: 2, MemPages: 2400}},
	}
}

// Conformance checks a Policy implementation against the engine contract
// every shipped policy satisfies, and returns the first violation:
//
//   - Name() is non-empty and stable across instances;
//   - the policy is deterministic: identical fleets produce identical
//     Results (schedule, percentiles, eviction log) on repeated runs;
//   - every invocation completes (no invocation is left unschedulable on a
//     cluster it fits), across Poisson, bursty, and diurnal arrivals;
//   - Place and Victim stay in range (the engine reports violations);
//   - warm hits are only ever served from an existing warm instance, so
//     WarmHits+ColdStarts partitions the invocations.
//
// The harness is also the engine's differential gate: every run executes
// with index self-checking on, so after each event the accelerated
// Cluster accessors (LeastLoadedHost, BestWarmHost, WarmFreshest,
// OldestWarm) are compared against the retained reference linear scans on
// the live cluster state — thousands of reachable states per scenario —
// and each scenario additionally re-runs under WithReferenceScans, whose
// Result must be deeply equal to the indexed engine's.
//
// mk must return a fresh Policy per call (stateful policies would
// otherwise leak state across the determinism comparison). The harness
// runs on a canned cost model — no machine simulation — so it is cheap
// enough to run under -race in any test suite.
func Conformance(mk func() Policy) error {
	name := mk().Name()
	if name == "" {
		return fmt.Errorf("fleet: policy Name() is empty")
	}
	if n2 := mk().Name(); n2 != name {
		return fmt.Errorf("fleet: policy Name() unstable across instances: %q vs %q", name, n2)
	}
	for _, sc := range conformanceScenarios() {
		run := func(opts ...Option) (*Result, error) {
			f := New(config.Default(),
				append([]Option{
					WithArrivals(sc.arr),
					WithHosts(sc.hosts),
					WithPolicy(mk()),
					WithBackend(conformanceCost()),
				}, opts...)...,
			)
			// Cross-check every indexed accessor against its reference scan
			// after each event.
			f.selfCheck = true
			return f.Run(machine.Memento)
		}
		r1, err := run()
		if err != nil {
			return fmt.Errorf("fleet: policy %s, scenario %s: %w", name, sc.label, err)
		}
		if r1.Invocations != sc.arr.N {
			return fmt.Errorf("fleet: policy %s, scenario %s: %d of %d invocations completed",
				name, sc.label, r1.Invocations, sc.arr.N)
		}
		if r1.WarmHits+r1.ColdStarts != r1.Invocations {
			return fmt.Errorf("fleet: policy %s, scenario %s: warm (%d) + cold (%d) != invocations (%d)",
				name, sc.label, r1.WarmHits, r1.ColdStarts, r1.Invocations)
		}
		r2, err := run()
		if err != nil {
			return fmt.Errorf("fleet: policy %s, scenario %s (rerun): %w", name, sc.label, err)
		}
		if !reflect.DeepEqual(r1, r2) {
			return fmt.Errorf("fleet: policy %s, scenario %s: repeated runs diverge (nondeterministic policy?)",
				name, sc.label)
		}
		ref, err := run(WithReferenceScans())
		if err != nil {
			return fmt.Errorf("fleet: policy %s, scenario %s (reference engine): %w", name, sc.label, err)
		}
		if !reflect.DeepEqual(r1, ref) {
			return fmt.Errorf("fleet: policy %s, scenario %s: indexed engine diverges from the reference scans",
				name, sc.label)
		}
	}
	return nil
}
