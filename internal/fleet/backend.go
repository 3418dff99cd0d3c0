package fleet

import (
	"fmt"
	"sync"

	"memento/internal/config"
	"memento/internal/machine"
	"memento/internal/workload"
)

// Cost is the measured per-(workload, stack) invocation cost model the
// discrete-event scheduler prices invocations with.
type Cost struct {
	// RunCycles is a full invocation including process setup. Runs restored
	// from a warm-start checkpoint are bit-identical to cold ones, so one
	// measurement serves both paths.
	RunCycles uint64
	// SetupCycles is the process-setup work a warm start skips
	// (WarmStart.SetupCycles).
	SetupCycles uint64
	// ColdExtraCycles is the container cold-start surcharge paid only on a
	// cold invocation (the workload's ColdStartCycles).
	ColdExtraCycles uint64
	// CtxSwitchCycles is the per-invocation context-switch surcharge one
	// co-resident sibling adds on a time-shared core, measured by running
	// two copies through the machine.Sched execution backend. Zero until
	// MeasureShared has run.
	CtxSwitchCycles uint64
	// FootprintPages is the resident memory an instance occupies while
	// running or kept warm (the run's peak resident pages).
	FootprintPages uint64
	// SharedPages is the copy-on-write portion of the footprint: the
	// post-setup base image (the warm-start checkpoint's resident pages)
	// that every co-resident instance of the same workload aliases instead
	// of duplicating, privatizing only the pages its own run touches. The
	// first resident instance on a host pays the full footprint; each
	// sibling pays FootprintPages - SharedPages.
	SharedPages uint64
	// SnapshotBytes is the full size of the workload's warm-start
	// checkpoint — what a deep-copy restore would move.
	SnapshotBytes uint64
	// RestoreBytes is what a steady-state warm restore actually copies: the
	// delta a previous run dirtied, measured by restoring the machine that
	// run used.
	RestoreBytes uint64
}

// ColdLatency is the queue-free latency of a cold invocation: container
// setup plus the full run (process setup plus function body).
func (c Cost) ColdLatency() uint64 { return c.ColdExtraCycles + c.RunCycles }

// WarmLatency is the queue-free latency of a warm invocation: the run with
// process setup restored from the snapshot instead of re-simulated.
func (c Cost) WarmLatency() uint64 { return c.RunCycles - c.SetupCycles }

// Backend supplies the fleet's cost model. The default SimBackend measures
// on the machine simulator; tests substitute StaticBackend for canned
// costs. Implementations must be safe for concurrent Measure calls and
// must return identical costs for identical inputs.
type Backend interface {
	// Measure returns the invocation costs of one workload on one stack.
	Measure(workload string, stack machine.Stack) (Cost, error)
	// MeasureShared returns the Cost with CtxSwitchCycles filled in for the
	// given scheduling quantum (in trace events). Only time-shared fleets
	// call it.
	MeasureShared(workload string, stack machine.Stack, quantum int) (Cost, error)
	// Restores reports how many warm-start snapshot restores the backend
	// has performed — the proof that warm costs route through the
	// snapshot-cache layer rather than being re-simulated cold.
	Restores() uint64
}

type costKey struct {
	name  string
	stack machine.Stack
}

// SimBackend measures invocation costs on the machine simulator:
// PrepareWarm simulates process setup once and captures the snapshot-cache
// checkpoint, and a single restored run measures the (cold-identical) run
// cycles and resident footprint. Every measurement therefore exercises the
// warm-start restore path itself; Restores counts them.
type SimBackend struct {
	cfg config.Machine

	mu       sync.Mutex
	costs    map[costKey]Cost
	shared   map[costKey]uint64 // quantum-independent cache keyed like costs
	inflight map[costKey]*sync.WaitGroup
	restores uint64
}

// NewSimBackend builds the default machine-backed cost model.
func NewSimBackend(cfg config.Machine) *SimBackend {
	return &SimBackend{
		cfg:      cfg,
		costs:    make(map[costKey]Cost),
		shared:   make(map[costKey]uint64),
		inflight: make(map[costKey]*sync.WaitGroup),
	}
}

// Restores reports the warm-start restores performed so far.
func (b *SimBackend) Restores() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.restores
}

// Measure implements Backend, caching one measurement per
// (workload, stack). Concurrent callers of the same key block on the
// single in-flight measurement instead of duplicating it.
func (b *SimBackend) Measure(name string, stack machine.Stack) (Cost, error) {
	key := costKey{name: name, stack: stack}
	for {
		b.mu.Lock()
		if c, ok := b.costs[key]; ok {
			b.mu.Unlock()
			return c, nil
		}
		if wg, ok := b.inflight[key]; ok {
			b.mu.Unlock()
			wg.Wait()
			continue
		}
		wg := &sync.WaitGroup{}
		wg.Add(1)
		b.inflight[key] = wg
		b.mu.Unlock()

		c, err := b.measure(name, stack)
		b.mu.Lock()
		delete(b.inflight, key)
		if err == nil {
			b.costs[key] = c
			// Two restores per measurement: the run's full copy and the
			// delta-metering restore after it.
			b.restores += 2
		}
		b.mu.Unlock()
		wg.Done()
		return c, err
	}
}

// measure runs the actual simulation: one PrepareWarm (building the
// checkpoint) and one restored run on a fresh machine the backend holds (a
// full copy). Restoring that machine once more meters the steady-state
// delta restore — the bytes a warm fan-out instance actually copies once
// the base is shared. Holding the machine, rather than recycling one
// through the checkpoint's pool, makes the delta deterministic: a pool may
// drop its machines at any GC (and often does under -race).
func (b *SimBackend) measure(name string, stack machine.Stack) (Cost, error) {
	p, ok := workload.ByName(name)
	if !ok {
		return Cost{}, fmt.Errorf("fleet: unknown workload %q", name)
	}
	tr := workload.GenerateCached(p)
	opt := machine.Options{Stack: stack}
	ws, err := machine.PrepareWarm(b.cfg, tr, opt)
	if err != nil {
		return Cost{}, fmt.Errorf("fleet: measuring %s/%s: %w", name, stack, err)
	}
	m, err := machine.New(b.cfg)
	if err != nil {
		return Cost{}, fmt.Errorf("fleet: measuring %s/%s: %w", name, stack, err)
	}
	res, _, err := ws.RunOn(m, tr, opt)
	if err != nil {
		return Cost{}, fmt.Errorf("fleet: measuring %s/%s (warm run): %w", name, stack, err)
	}
	delta, err := ws.Restore(m)
	if err != nil {
		return Cost{}, fmt.Errorf("fleet: measuring %s/%s (delta restore): %w", name, stack, err)
	}
	c := Cost{
		RunCycles:       res.Cycles,
		SetupCycles:     ws.SetupCycles(),
		ColdExtraCycles: tr.ColdStartCycles,
		FootprintPages:  res.PeakResidentPages,
		SnapshotBytes:   ws.SnapshotBytes(),
		RestoreBytes:    delta.RestoreBytes,
	}
	// The CoW-shareable base is the checkpoint's post-setup resident image:
	// siblings alias it and privatize only run-touched pages. Capped by the
	// instance footprint it is part of.
	c.SharedPages = ws.BaseResidentPages()
	if c.SharedPages > c.FootprintPages {
		c.SharedPages = c.FootprintPages
	}
	return c, nil
}

// MeasureShared implements Backend: it runs two copies of the workload
// through the machine.Sched execution backend (the generalized
// RunMultiProcess) and reads the context-switch cycles one co-resident
// sibling costs an invocation over its lifetime.
func (b *SimBackend) MeasureShared(name string, stack machine.Stack, quantum int) (Cost, error) {
	c, err := b.Measure(name, stack)
	if err != nil {
		return Cost{}, err
	}
	key := costKey{name: name, stack: stack}
	b.mu.Lock()
	ctx, ok := b.shared[key]
	b.mu.Unlock()
	if ok {
		c.CtxSwitchCycles = ctx
		return c, nil
	}
	p, _ := workload.ByName(name)
	tr := workload.GenerateCached(p)
	m, err := machine.New(b.cfg)
	if err != nil {
		return Cost{}, err
	}
	s := m.NewSched(machine.Options{Stack: stack}, quantum)
	for i := 0; i < 2; i++ {
		if err := s.Spawn(tr); err != nil {
			s.Close()
			return Cost{}, fmt.Errorf("fleet: time-share calibration %s/%s: %w", name, stack, err)
		}
	}
	results, err := s.Run()
	if err != nil {
		return Cost{}, fmt.Errorf("fleet: time-share calibration %s/%s: %w", name, stack, err)
	}
	ctx = results[0].Buckets.CtxSwitch
	b.mu.Lock()
	b.shared[key] = ctx
	b.mu.Unlock()
	c.CtxSwitchCycles = ctx
	return c, nil
}

// StaticBackend serves canned costs — the stub cost model the policy
// conformance harness and unit tests run the scheduler against, with no
// machine simulation behind it.
type StaticBackend struct {
	// ByWorkload overrides the default cost per workload name.
	ByWorkload map[string]Cost
	// Default serves workloads absent from ByWorkload.
	Default Cost
}

// Measure implements Backend.
func (b *StaticBackend) Measure(name string, _ machine.Stack) (Cost, error) {
	if c, ok := b.ByWorkload[name]; ok {
		return c, nil
	}
	if b.Default == (Cost{}) {
		return Cost{}, fmt.Errorf("fleet: static backend has no cost for %q", name)
	}
	return b.Default, nil
}

// MeasureShared implements Backend; static costs carry their
// CtxSwitchCycles verbatim.
func (b *StaticBackend) MeasureShared(name string, stack machine.Stack, _ int) (Cost, error) {
	return b.Measure(name, stack)
}

// Restores implements Backend: a static backend never restores snapshots.
func (b *StaticBackend) Restores() uint64 { return 0 }
