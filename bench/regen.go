package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"memento/internal/config"
	"memento/internal/experiments"
	"memento/internal/machine"
	"memento/internal/workload"
)

// regenerate rewrites the expected outputs under bench/testdata from the
// current simulator: the sweep checksum, the seed-1 fleet checksums, and
// the cycles of every plain daemon run, each computed on a fresh machine.
func regenerate() error {
	pairs, err := experiments.NewSuite(config.Default()).Pairs()
	if err != nil {
		return err
	}
	sums := map[string]string{"sweep": fmt.Sprintf("%016x", sweepSum(pairs))}
	for _, name := range []string{"fleet-lru", "fleet-ttl"} {
		f, n, eviction := newFleet(name, 1, false)
		res, err := f.Run(machine.Memento)
		if err != nil {
			return err
		}
		if err := checkFleet(res, n, eviction); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		sums[name] = fmt.Sprintf("%016x", fleetSum(res))
	}
	cycles, err := daemonCycles()
	if err != nil {
		return err
	}
	if err := writeJSON(checksumsFile, sums); err != nil {
		return err
	}
	return writeJSON(daemonCyclesFile, cycles)
}

// daemonCycles runs every (workload, stack, cold_start, mmap_populate)
// combination a plain daemon job can ask for.
func daemonCycles() (map[string]uint64, error) {
	type task struct {
		prof workload.Profile
		opt  machine.Options
	}
	var tasks []task
	for _, p := range workload.Profiles() {
		for _, stack := range []machine.Stack{machine.Baseline, machine.Memento} {
			for _, cold := range []bool{false, true} {
				for _, pop := range []bool{false, true} {
					tasks = append(tasks, task{p, machine.Options{Stack: stack, ColdStart: cold, MmapPopulate: pop}})
				}
			}
		}
	}
	out := map[string]uint64{}
	var mu sync.Mutex
	var errs []error
	var wg sync.WaitGroup
	next := make(chan task)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range next {
				m, err := machine.New(config.Default())
				var res machine.Result
				if err == nil {
					res, err = m.Run(workload.GenerateCached(t.prof), t.opt)
				}
				mu.Lock()
				if err != nil {
					errs = append(errs, err)
				} else {
					out[cyclesKey(t.prof.Name, t.opt.Stack.String(), t.opt.ColdStart, t.opt.MmapPopulate)] = res.Cycles
				}
				mu.Unlock()
			}
		}()
	}
	for _, t := range tasks {
		next <- t
	}
	close(next)
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return out, nil
}

// writeJSON writes v as indented JSON to bench/<name>.
func writeJSON(name string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("bench", name), append(raw, '\n'), 0o644)
}
