package experiments

import (
	"context"
	"fmt"

	"memento/internal/machine"
)

// WarmStarts quantifies the serverless warm-start saving the snapshot layer
// models: every cold invocation re-simulates process setup (address-space
// construction, runtime/allocator initialization, working-buffer
// pre-faulting), while a warm invocation restores a post-setup checkpoint
// and replays only the function body. The table reports the setup cycles
// each stack skips per warm invocation, absolute and as a share of the
// whole run. Not part of the paper's figures; printed by
// `cmd/experiments -warm` and pinned by experiments_warm_output.txt.
// Cancellation takes effect at per-workload boundaries.
func WarmStarts(ctx context.Context, s *Suite) (Experiment, error) {
	e := Experiment{
		ID:    "warm",
		Title: "Warm starts: setup cycles skipped per invocation",
		Paper: "not in paper; motivated by Section 2.2 (ephemeral processes re-pay setup every invocation)",
		Header: []string{
			"workload", "lang", "baseline setup", "memento setup", "base %run", "mem %run",
		},
	}
	pairs, err := s.PairsContext(ctx)
	if err != nil {
		return e, err
	}
	for _, name := range sortedNames(pairs) {
		if err := ctx.Err(); err != nil {
			return e, err
		}
		pr := pairs[name]
		wb, err := machine.PrepareWarm(s.Cfg, pr.Trace, machine.Options{Stack: machine.Baseline})
		if err != nil {
			return e, fmt.Errorf("experiments: %s (warm baseline): %w", name, err)
		}
		wm, err := machine.PrepareWarm(s.Cfg, pr.Trace, machine.Options{Stack: machine.Memento})
		if err != nil {
			return e, fmt.Errorf("experiments: %s (warm memento): %w", name, err)
		}
		bs, ms := wb.SetupCycles(), wm.SetupCycles()
		e.Rows = append(e.Rows, []string{
			name, pr.Prof.Lang.String(),
			fmt.Sprintf("%d", bs), fmt.Sprintf("%d", ms),
			pct(float64(bs) / float64(pr.Base.Cycles)),
			pct(float64(ms) / float64(pr.Mem.Cycles)),
		})
	}
	e.Notes = append(e.Notes,
		"setup = kernel MM cycles + Memento pool-replenishment cycles charged before the first trace event",
		"a run restored from the checkpoint skips re-simulating setup and is bit-identical to a cold run")
	return e, nil
}

// WarmBytes quantifies what the delta-snapshot layer moves per warm
// invocation: the full checkpoint size (what a deep-copy restore would
// copy) against the steady-state delta restore (what a recycled machine
// actually copies — only the regions the previous run dirtied). The gap is
// the lazy-restore saving massive warm fan-out rides on. Printed by
// `cmd/experiments -warm` after the setup-cycle table and pinned by
// experiments_warm_output.txt. Cancellation takes effect at per-workload
// boundaries.
func WarmBytes(ctx context.Context, s *Suite) (Experiment, error) {
	e := Experiment{
		ID:    "warmbytes",
		Title: "Warm starts: checkpoint bytes vs delta-restore bytes",
		Paper: "not in paper; lazy-restore extension (copy-on-write delta snapshots)",
		Header: []string{
			"workload", "lang", "stack", "snapshot KiB", "restore KiB", "shared KiB", "copied",
		},
	}
	pairs, err := s.PairsContext(ctx)
	if err != nil {
		return e, err
	}
	kib := func(b uint64) string { return fmt.Sprintf("%.1f", float64(b)/1024) }
	for _, name := range sortedNames(pairs) {
		if err := ctx.Err(); err != nil {
			return e, err
		}
		pr := pairs[name]
		for _, stack := range []machine.Stack{machine.Baseline, machine.Memento} {
			opt := machine.Options{Stack: stack}
			ws, err := machine.PrepareWarm(s.Cfg, pr.Trace, opt)
			if err != nil {
				return e, fmt.Errorf("experiments: %s (warm bytes, %s): %w", name, stack, err)
			}
			// Run once on a held machine, then restore it: the restore
			// meters the steady-state delta that run dirtied.
			m, err := machine.New(s.Cfg)
			if err != nil {
				return e, fmt.Errorf("experiments: %s (warm bytes, %s): %w", name, stack, err)
			}
			if _, _, err := ws.RunOn(m, pr.Trace, opt); err != nil {
				return e, fmt.Errorf("experiments: %s (warm bytes, %s): %w", name, stack, err)
			}
			rs, err := ws.Restore(m)
			if err != nil {
				return e, fmt.Errorf("experiments: %s (warm bytes, %s): %w", name, stack, err)
			}
			e.Rows = append(e.Rows, []string{
				name, pr.Prof.Lang.String(), stack.String(),
				kib(rs.SnapshotBytes), kib(rs.RestoreBytes), kib(rs.SharedBytes),
				pct(float64(rs.RestoreBytes) / float64(rs.SnapshotBytes)),
			})
		}
	}
	e.Notes = append(e.Notes,
		"snapshot = full captured state; restore = bytes a steady-state warm restore copies (dirty regions only)",
		"shared = copy-on-write page-table state aliased, never copied; results stay bit-identical to cold runs")
	return e, nil
}
