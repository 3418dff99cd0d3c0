// Package memento is the public API of the Memento reproduction: a
// timing-level simulation of "Memento: Architectural Support for Ephemeral
// Memory Management in Serverless Environments" (MICRO '23).
//
// The package wraps the internal building blocks — the cache/TLB/DRAM
// hierarchy, the simulated OS kernel, the pymalloc/jemalloc/Go-runtime
// baseline allocators, and the Memento hardware (hardware object allocator
// with its Hardware Object Table, hardware page allocator with the Arena
// Allocation Cache and hardware-built page tables, and the main-memory
// bypass) — behind a small surface:
//
//	cfg := memento.DefaultConfig()
//	r := memento.NewRunner(cfg)
//	base, mem, err := r.Compare("html")
//	fmt.Printf("speedup: %.2fx\n", memento.Speedup(base, mem))
//
// Runner is the entry point for single runs: functional options
// (WithStack, WithColdStart, WithMallaccIdeal, WithMmapPopulate,
// WithProbe, WithTimeline, WithWarmStart) select the stack and studies,
// attach telemetry probes, and record cycle-attribution timelines.
//
// Every table and figure of the paper's evaluation is regenerated by a
// Suite:
//
//	exps, err := memento.NewSuite(cfg).All(ctx)
//
// Sweeps (Suite.All, WarmStartsExperiment, WarmBytesExperiment,
// FleetExperiment) take a context and stop at the next per-workload or
// per-cell boundary when it is cancelled; a single Runner run has no
// cancellation point and takes none. Machine-readable artifacts come from
// ExportRuns, ExportRunsCSV and ExportExperiments.
package memento

import (
	"context"
	"fmt"

	"memento/internal/config"
	"memento/internal/experiments"
	"memento/internal/machine"
	"memento/internal/trace"
	"memento/internal/workload"
)

// Config is the simulated machine configuration (Table 3 plus the cost
// model; see internal/config for every knob).
type Config = config.Machine

// DefaultConfig returns the paper's Table 3 configuration.
func DefaultConfig() Config { return config.Default() }

// Options configure a simulation run.
type Options = machine.Options

// Result is the outcome of one simulation run.
type Result = machine.Result

// Stack selects the memory-management system under test.
type Stack = machine.Stack

// Stacks under test.
const (
	// Baseline is the software stack (pymalloc/jemalloc/Go runtime + OS).
	Baseline = machine.Baseline
	// Memento is the paper's hardware design.
	Memento = machine.Memento
)

// Profile describes one synthetic benchmark.
type Profile = workload.Profile

// Trace is a memory-management event trace.
type Trace = trace.Trace

// Experiment is one regenerated table or figure.
type Experiment = experiments.Experiment

// Workloads returns the full benchmark suite (16 serverless functions,
// 4 data-processing applications, 3 platform operations).
func Workloads() []Profile { return workload.Profiles() }

// WorkloadNames returns the benchmark names in the paper's order.
func WorkloadNames() []string { return workload.Names() }

// GenerateTrace builds the deterministic trace for a named workload.
func GenerateTrace(name string) (*Trace, error) {
	p, ok := workload.ByName(name)
	if !ok {
		return nil, fmt.Errorf("memento: unknown workload %q (see WorkloadNames)", name)
	}
	return workload.Generate(p), nil
}

// Speedup returns base cycles / memento cycles.
func Speedup(base, mem Result) float64 { return machine.Speedup(base, mem) }

// WarmStart is a reusable post-setup checkpoint: restoring it skips
// re-simulating process setup (the serverless warm start) while producing
// runs bit-identical to cold ones. Build one with PrepareWarm and attach it
// to a Runner with WithWarmStart, or call its Run method directly.
type WarmStart = machine.WarmStart

// PrepareWarm simulates process setup for a trace once and returns the
// reusable checkpoint. The options must carry the setup-shaping fields
// (stack, cold start, jemalloc knobs, MAP_POPULATE) the later runs will
// use; observation options may differ per run.
func PrepareWarm(cfg Config, tr *Trace, opt Options) (*WarmStart, error) {
	return machine.PrepareWarm(cfg, tr, opt)
}

// WarmStartsExperiment reports, per workload and stack, the setup cycles a
// warm invocation skips re-simulating (the `cmd/experiments -warm` table).
// It stops at the next per-workload boundary when ctx is cancelled.
func WarmStartsExperiment(ctx context.Context, s *experiments.Suite) (Experiment, error) {
	return experiments.WarmStarts(ctx, s)
}

// WarmBytesExperiment reports, per workload and stack, the full checkpoint
// size against the bytes a steady-state warm restore actually copies (the
// delta) — the second `cmd/experiments -warm` table. It stops at the next
// per-workload boundary when ctx is cancelled.
func WarmBytesExperiment(ctx context.Context, s *experiments.Suite) (Experiment, error) {
	return experiments.WarmBytes(ctx, s)
}

// SuiteOption configures a Suite the way RunOption configures a Runner.
type SuiteOption = experiments.SuiteOption

// WithWorkers bounds the experiment sweep's parallel fan-out (zero or
// negative selects runtime.GOMAXPROCS(0)).
func WithWorkers(n int) SuiteOption { return experiments.WithWorkers(n) }

// NewSuite builds the experiment suite over cfg. Its All(ctx) regenerates
// every table and figure of the paper's evaluation (Figs 2-3 and Table 1
// from traces; Table 2 and Figs 8-14 plus the Section 6.6/6.7 studies from
// full simulations); individual figures and the studies above reuse the
// same cached workload sweep.
func NewSuite(cfg Config, opts ...SuiteOption) *experiments.Suite {
	return experiments.NewSuite(cfg, opts...)
}
