package machine

import (
	"testing"

	"memento/internal/config"
	"memento/internal/workload"
)

// TestRaisingDRAMLatencyNeverLowersCycles is a metamorphic check: DRAM
// latency feeds the cycle count but decides nothing a run does, so raising
// the row-hit and row-miss latencies must never lower a run's cycles. It
// runs every profile, shrunk to max(Allocs/256, 200) allocations as the
// warm-burst benchmark shrinks them, on both stacks, at the Table 3
// latencies and two raised ones (hit and miss raised alone, then together).
func TestRaisingDRAMLatencyNeverLowersCycles(t *testing.T) {
	base := config.Default()
	raised := []func(*config.DRAMConfig){
		func(*config.DRAMConfig) {},
		func(d *config.DRAMConfig) { d.RowHitCycles += 1 },
		func(d *config.DRAMConfig) { d.RowMissCycles += 1 },
		func(d *config.DRAMConfig) { d.RowHitCycles, d.RowMissCycles = d.RowHitCycles*2, d.RowMissCycles*2 },
	}
	for _, p := range workload.Profiles() {
		p.Allocs = max(p.Allocs/256, 200)
		tr := workload.Generate(p)
		for _, stack := range []Stack{Baseline, Memento} {
			var cycles [4]uint64
			for i, raise := range raised {
				cfg := base
				raise(&cfg.DRAM)
				m, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				r, err := m.Run(tr, Options{Stack: stack})
				if err != nil {
					t.Fatalf("%s/%s: %v", p.Name, stack, err)
				}
				cycles[i] = r.Cycles
			}
			// Each raised configuration dominates the Table 3 one, and the
			// doubled one dominates both single raises. Every run reaches
			// DRAM, so doubling must cost something.
			if cycles[1] < cycles[0] || cycles[2] < cycles[0] || cycles[3] < cycles[1] || cycles[3] < cycles[2] ||
				cycles[3] == cycles[0] {
				t.Errorf("%s/%s: cycles %v at DRAM latencies {table 3, hit+1, miss+1, both doubled}: a raise lowered them, or doubling left them unchanged",
					p.Name, stack, cycles)
			}
		}
	}
}
