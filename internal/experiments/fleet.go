package experiments

import (
	"context"
	"fmt"

	"memento/internal/fleet"
	"memento/internal/machine"
)

// FleetStudy runs the cluster-scale study: every arrival pattern crossed
// with every shipped keep-warm policy on both stacks, over one shared
// machine-backed cost model so the whole table costs one (workload, stack)
// measurement sweep. Not part of the paper's figures; printed by
// `cmd/experiments -fleet` and pinned by experiments_fleet_output.txt.
// Cancellation takes effect at per-cell (pattern x policy x stack)
// boundaries.
func FleetStudy(ctx context.Context, s *Suite) (Experiment, error) {
	e := Experiment{
		ID:    "fleet",
		Title: "Fleet simulation: arrival pattern x keep-warm policy x stack",
		Paper: "not in paper; fleet-level extension (cold-start fraction and keep-warm policy at cluster scale)",
		Header: []string{
			"pattern", "policy", "stack", "p50 Mcyc", "p99 Mcyc", "p999 Mcyc",
			"cold", "peak MiB", "shared MiB", "restore MiB", "evictions",
		},
	}
	hosts := fleet.Hosts{Count: 4, Cores: 2, MemPages: 16384} // 4 x 2 cores x 64 MiB
	const (
		n       = 2000
		meanGap = 6_000_000
	)
	patterns := []fleet.Arrivals{
		fleet.Poisson(n, meanGap, 11),
		fleet.Bursty(n, meanGap, 12),
		fleet.Diurnal(n, meanGap, 13),
	}
	policies := []func() fleet.Policy{
		fleet.AlwaysCold,
		func() fleet.Policy { return fleet.KeepAlive(150_000_000) },
		fleet.LRU,
	}
	// One backend for all runs: costs are cached per (workload, stack), so
	// the 18 fleet runs share a single measurement sweep.
	backend := fleet.NewSimBackend(s.Cfg)
	mcyc := func(c uint64) string { return f3(float64(c) / 1e6) }
	for _, arr := range patterns {
		for _, mk := range policies {
			for _, stack := range []machine.Stack{machine.Baseline, machine.Memento} {
				if err := ctx.Err(); err != nil {
					return e, err
				}
				f := fleet.New(s.Cfg,
					fleet.WithArrivals(arr),
					fleet.WithHosts(hosts),
					fleet.WithPolicy(mk()),
					fleet.WithBackend(backend),
					fleet.WithMeasureWorkers(s.workers),
				)
				r, err := f.Run(stack)
				if err != nil {
					return e, fmt.Errorf("experiments: fleet %s/%s/%s: %w",
						arr.Pattern, mk().Name(), stack, err)
				}
				e.Rows = append(e.Rows, []string{
					r.Pattern, r.Policy, r.Stack.String(),
					mcyc(r.P50), mcyc(r.P99), mcyc(r.P999),
					pct(r.ColdFraction()),
					fmt.Sprintf("%.1f", float64(r.PeakBytes())/float64(1<<20)),
					fmt.Sprintf("%.1f", float64(r.PeakSharedPages)*4096/float64(1<<20)),
					fmt.Sprintf("%.1f", float64(r.RestoreBytes)/float64(1<<20)),
					fmt.Sprintf("%d", len(r.Evictions)),
				})
			}
		}
	}
	e.Notes = append(e.Notes,
		fmt.Sprintf("pool: %d hosts x %d cores x %d MiB; %d invocations per run, mean inter-arrival %d cycles",
			hosts.Count, hosts.Cores, hosts.MemPages*4096/(1<<20), n, meanGap),
		"warm hits restore the machine layer's post-setup snapshot; cold misses pay the measured container+setup cycles",
		"shared = peak pages co-resident instances alias from one copy-on-write base; restore = total delta-restore bytes warm hits copied",
		"idle warm instances are trimmed to the shared base (private pages delta-restore on the next hit), so keep-warm pools peak far below footprint x occupancy",
	)
	return e, nil
}
