// Package machine is the timing simulator: it executes memory-management
// traces against either the baseline software stack (language allocator +
// simulated kernel) or the Memento stack (hardware object allocator +
// hardware page allocator + bypass), charging every event through the
// shared cache hierarchy, TLBs, and DRAM model, and attributing cycles to
// the categories the paper reports (Table 2, Figs 8-11).
package machine

import (
	"sync"

	"memento/internal/cache"
	"memento/internal/config"
	"memento/internal/core"
	"memento/internal/dram"
	"memento/internal/kernel"
	"memento/internal/simerr"
	"memento/internal/softalloc"
	"memento/internal/telemetry"
	"memento/internal/tlb"
	"memento/internal/trace"
)

// Stack selects the memory-management system under test.
type Stack int

const (
	// Baseline is the software stack the paper measures against.
	Baseline Stack = iota
	// Memento is the paper's hardware design.
	Memento
)

// String implements fmt.Stringer.
func (s Stack) String() string {
	if s == Memento {
		return "memento"
	}
	return "baseline"
}

// Options configure one simulation run.
type Options struct {
	Stack Stack
	// ColdStart prepends the container setup cost (Section 6.6).
	ColdStart bool
	// MallaccIdeal models the idealized Mallacc of Section 6.7: the
	// userspace allocator fast path costs zero cycles (cache always hits at
	// zero latency); kernel costs remain. Only meaningful on Baseline.
	MallaccIdeal bool
	// JEMallocOpts overrides the C++ allocator knobs (Section 6.6 tuning).
	JEMallocOpts *softalloc.JEMallocOpts
	// MmapPopulate forces MAP_POPULATE on all allocator mmaps
	// (Section 6.6).
	MmapPopulate bool
	// Probe, when non-nil, receives per-event and per-component telemetry
	// during the run (see internal/telemetry). Probes observe only — they
	// never change cycle accounting — and all hooks run synchronously on
	// the simulation goroutine.
	Probe telemetry.Probe
	// TimelineInterval, when > 0, samples the bucket/cache/TLB/DRAM/kernel
	// counters every N trace events into Result.Timeline, plus one sample
	// after setup and one at teardown.
	TimelineInterval int
	// AllocHook, when non-nil, intercepts every physical frame allocation
	// (kernel buddy allocations and Memento pool pops) for fault injection;
	// see internal/faultinject for ready-made deterministic triggers.
	AllocHook AllocHook
	// Warm, when non-nil, makes RunWarm restore this checkpoint instead of
	// simulating process setup (see PrepareWarm). The checkpoint must match
	// the run's setup-shaping fields; observation options may differ.
	Warm *WarmStart
}

// AllocHook intercepts physical frame allocations for fault injection: the
// kernel's and the Memento page allocator's. It is satisfied by
// faultinject.Hook.
type AllocHook = kernel.AllocHook

// Buckets is the cycle attribution the Fig 9 breakdown derives from.
type Buckets struct {
	// AppCompute is non-MM application work (including RPCs, cold start).
	AppCompute uint64
	// AppMem is application data-access time (touches).
	AppMem uint64
	// UserAlloc / UserFree are userspace (or hardware-object) MM cycles on
	// the critical path.
	UserAlloc uint64
	UserFree  uint64
	// Kernel is kernel MM work: syscalls, page faults, exit teardown.
	Kernel uint64
	// PageMgmt is Memento's hardware page-allocator work (first-touch
	// backing, arena teardown) — the category that replaces Kernel.
	PageMgmt uint64
	// GC is garbage-collection mark work (Golang).
	GC uint64
	// CtxSwitch is scheduler + HOT/TLB flush cost (multi-process runs).
	CtxSwitch uint64
}

// Total sums all buckets.
func (b Buckets) Total() uint64 {
	return b.AppCompute + b.AppMem + b.UserAlloc + b.UserFree + b.Kernel + b.PageMgmt + b.GC + b.CtxSwitch
}

// MM returns all memory-management cycles.
func (b Buckets) MM() uint64 {
	return b.UserAlloc + b.UserFree + b.Kernel + b.PageMgmt + b.GC
}

// Result is the outcome of one run.
type Result struct {
	Workload string
	Lang     trace.Language
	Stack    Stack

	Cycles  uint64
	Buckets Buckets

	DRAM   dram.Stats
	Hier   cache.Stats
	TLB    tlb.Stats
	Kernel kernel.Stats
	// HOT and PageAlloc are zero for baseline runs.
	HOT       core.Stats
	PageAlloc core.PageAllocStats
	Soft      softalloc.Stats

	// UserPages / KernelPages are the aggregate (cumulative) physical pages
	// allocated during execution, the Fig 11 metric.
	UserPages   uint64
	KernelPages uint64
	// PeakResidentPages is the high-water mark of resident pages (software
	// address space plus, on the Memento stack, hardware-backed arena
	// pages) — the §6.5 pricing model's memory term.
	PeakResidentPages uint64
	// Fragmentation is the end-of-run fraction of inactive small-object
	// slots (§6.6).
	Fragmentation float64

	// Timeline is the interval sampling of the run, present only when
	// Options.TimelineInterval was > 0.
	Timeline *telemetry.Timeline

	// Err records this process's failure in a RunMultiProcess batch whose
	// siblings kept running; its chain ends in one of the memento.Err*
	// sentinels. Always nil for single-process runs (Machine.Run returns
	// the error instead of a Result).
	Err error
}

// TotalPages returns aggregate user+kernel page allocations.
func (r Result) TotalPages() uint64 { return r.UserPages + r.KernelPages }

// Machine bundles the shared hardware: one core with its hierarchy, TLBs,
// DRAM, and the OS kernel.
type Machine struct {
	cfg  config.Machine
	d    *dram.DRAM
	h    *cache.Hierarchy
	k    *kernel.Kernel
	tlbs *tlb.System
	// base is the snapshot this machine was last captured to or restored
	// from; re-capturing an untouched machine reuses it (O(1)).
	base *Snapshot
}

// New builds a machine from configuration.
func New(cfg config.Machine) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := dram.New(cfg.DRAM)
	h := cache.NewHierarchy(cfg, d)
	return &Machine{
		cfg:  cfg,
		d:    d,
		h:    h,
		k:    kernel.New(cfg, h),
		tlbs: tlb.NewSystem(cfg),
	}, nil
}

// Config returns the machine configuration.
func (m *Machine) Config() config.Machine { return m.cfg }

// attachProbe threads one probe through every component (nil detaches all).
func (m *Machine) attachProbe(p telemetry.Probe) {
	m.d.SetProbe(p)
	m.h.SetProbe(p)
	m.k.SetProbe(p)
	m.tlbs.SetProbe(p)
}

// Run executes one trace to completion on a fresh process.
//
// The component counters in the Result (DRAM, Hier, TLB, Kernel) are the
// machine's *cumulative* totals: reusing one Machine across several Runs
// accumulates them (snapshot the stats before a run and subtract, or use a
// fresh Machine per run as Runner does, to get per-run activity).
// RunMultiProcess instead reports per-process deltas — see its
// documentation. Physical frames are reclaimed whether the run succeeds or
// fails, so FreeFrames() is restored and a later run starts from a clean
// machine; errors are typed (matchable with errors.Is against the
// simerr/memento sentinels) and annotated with the workload, stack, and
// failing trace-event index.
func (m *Machine) Run(tr *trace.Trace, opt Options) (Result, error) {
	p, err := m.newProcess(tr, opt)
	if err != nil {
		return Result{}, simerr.WithRun(err, tr.Name, opt.Stack.String(), -1)
	}
	return m.runLoop(p, tr, opt)
}

// runLoop replays the trace events on an already-set-up process (fresh from
// newProcess or restored from a warm-start checkpoint) and tears it down.
func (m *Machine) runLoop(p *process, tr *trace.Trace, opt Options) (Result, error) {
	fail := func(err error, event int) (Result, error) {
		err = simerr.WithRun(err, tr.Name, opt.Stack.String(), event)
		p.destroy()
		p.release()
		return Result{}, err
	}
	for !p.done() {
		if err := p.step(); err != nil {
			return fail(err, p.pc-1)
		}
	}
	if err := p.finish(); err != nil {
		return fail(err, p.pc)
	}
	r := p.result()
	p.destroy()
	p.release()
	return r, nil
}

// RunPair runs the same trace on a baseline machine and a Memento machine
// with identical configuration, the comparison every speedup figure is
// built on. The two stacks run concurrently on independent machines (each
// restored from its own warm-start checkpoint when one is cached — see
// RunWarm). Runs carrying a Probe or AllocHook stay sequential and cold:
// those hooks run synchronously on the simulation goroutine and would
// otherwise interleave across stacks. Options.Warm is ignored here (a
// checkpoint is single-stack); use RunWarm for explicit checkpoints.
func RunPair(cfg config.Machine, tr *trace.Trace, opt Options) (base, mem Result, err error) {
	ob, om := opt, opt
	ob.Stack, om.Stack = Baseline, Memento
	ob.Warm, om.Warm = nil, nil
	if opt.Probe != nil || opt.AllocHook != nil {
		mb, err := New(cfg)
		if err != nil {
			return base, mem, err
		}
		base, err = mb.Run(tr, ob)
		if err != nil {
			return base, mem, err
		}
		mm, err := New(cfg)
		if err != nil {
			return base, mem, err
		}
		mem, err = mm.Run(tr, om)
		return base, mem, err
	}
	var wg sync.WaitGroup
	var merr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		mem, merr = RunWarm(cfg, tr, om)
	}()
	base, err = RunWarm(cfg, tr, ob)
	wg.Wait()
	if err != nil {
		return Result{}, Result{}, err
	}
	if merr != nil {
		return base, Result{}, merr
	}
	return base, mem, nil
}

// Speedup returns base cycles / memento cycles.
func Speedup(base, mem Result) float64 {
	if mem.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(mem.Cycles)
}
