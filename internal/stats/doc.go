// Package stats provides the histogram, counter, and estimation utilities
// used by the workload characterization (Figs 2-3, Table 1), the experiment
// harness, and the paper-validation scorecard.
//
// Invariants the rest of the repository relies on:
//
//   - Determinism. Every function in this package is a pure computation
//     over its inputs. The bootstrap resampler (BootstrapMeanCI) draws from
//     an explicit splitmix64 stream seeded by the caller — never from the
//     math/rand global — so the same samples, level, resample count, and
//     seed produce bit-identical confidence intervals on every run, on
//     every platform, and under the race detector. TestBootstrapDeterminism
//     pins this.
//
//   - Golden coupling. Histogram binning and the mean/percentile helpers
//     feed the rendered experiment tables that experiments_output.txt pins
//     byte-for-byte, and BootstrapMeanCI feeds the EXPERIMENTS.md tables
//     that TestExperimentsMDGolden pins. Any behavioural change here
//     surfaces in those goldens first; regenerate them deliberately.
//
//   - Exported-surface stability. Histogram, CI, and the package
//     functions are consumed by internal/experiments, internal/fleet,
//     internal/validate, and the root facade. Additive changes are fine;
//     renames and semantic changes require sweeping those callers in the
//     same commit.
//
// Library-path panics in this package are restricted to constructor
// misconfiguration over static bin tables (see scripts/panicgate.sh); the
// estimation helpers return zero values for degenerate inputs instead of
// panicking.
package stats
