package machine

import (
	"fmt"
	"sync"

	"memento/internal/config"
	"memento/internal/simerr"
	"memento/internal/softalloc"
	"memento/internal/trace"
)

// setupKey identifies everything process setup depends on: the machine
// configuration, the stack, and the trace/option fields that shape setup
// (language picks the allocator, AppBufBytes sizes the pre-mapped working
// buffer, RPC/cold-start terms seed the compute bucket, the name length
// seeds the app-access RNG). Two runs with equal keys reach an identical
// post-setup state, so one snapshot serves both. Observation options
// (Probe, AllocHook, TimelineInterval) and replay-only options
// (MallaccIdeal) are deliberately excluded: they never change setup state.
type setupKey struct {
	cfg             config.Machine
	stack           Stack
	lang            trace.Language
	appBufBytes     uint64
	rpcCalls        int
	coldStart       bool
	coldStartCycles uint64
	nameLen         int
	mmapPopulate    bool
	je              softalloc.JEMallocOpts
}

func warmKeyOf(cfg config.Machine, tr *trace.Trace, opt Options) setupKey {
	k := setupKey{
		cfg:          cfg,
		stack:        opt.Stack,
		lang:         tr.Lang,
		appBufBytes:  tr.AppBufBytes,
		rpcCalls:     tr.RPCCalls,
		coldStart:    opt.ColdStart,
		nameLen:      len(tr.Name),
		mmapPopulate: opt.MmapPopulate,
	}
	if opt.ColdStart {
		k.coldStartCycles = tr.ColdStartCycles
	}
	if opt.Stack == Baseline && tr.Lang == trace.Cpp {
		k.je = softalloc.DefaultJEMallocOpts()
		if opt.JEMallocOpts != nil {
			k.je = *opt.JEMallocOpts
		}
	}
	return k
}

// WarmStart is a reusable post-setup checkpoint: one machine snapshot plus
// one process snapshot, taken right after process setup (address space
// built, runtime initialized, working buffer mapped) and before the first
// trace event. Restoring it skips re-simulating setup — the serverless
// warm-start this PR models — while producing runs bit-identical to cold
// ones. A WarmStart is immutable and safe for concurrent Run calls.
type WarmStart struct {
	cfg         config.Machine
	key         setupKey
	msnap       *Snapshot
	psnap       *procSnapshot
	setupCycles uint64
	// pool recycles machines whose components are already based on msnap:
	// restoring one copies only the regions the previous run dirtied (the
	// delta), not the whole hardware state. Machines enter the pool only
	// after a successful run; failed runs abandon theirs.
	pool sync.Pool
}

// newWarmStart captures machine + process state. The process stays usable
// (capture does not disturb it), so the caller can keep running it.
func newWarmStart(cfg config.Machine, key setupKey, m *Machine, p *process) *WarmStart {
	w := &WarmStart{
		cfg:         cfg,
		key:         key,
		msnap:       m.Snapshot(),
		psnap:       p.captureState(),
		setupCycles: m.k.KernelMMCycles(),
	}
	if p.pa != nil {
		w.setupCycles += p.pa.Stats().BackgroundCycles
	}
	return w
}

// Config returns the machine configuration the checkpoint was taken under.
func (w *WarmStart) Config() config.Machine { return w.cfg }

// Stack returns the stack the checkpoint was taken on.
func (w *WarmStart) Stack() Stack { return w.key.stack }

// SetupCycles reports the simulated setup work (kernel MM cycles plus
// Memento pool-replenishment background cycles) each warm invocation
// skips re-simulating — the per-invocation saving the warm-start
// experiment reports.
func (w *WarmStart) SetupCycles() uint64 { return w.setupCycles }

// SnapshotBytes returns the full size of the checkpoint (machine hardware
// state plus the process snapshot) — what a deep-copy restore would move.
func (w *WarmStart) SnapshotBytes() uint64 {
	return w.msnap.Bytes() + w.psnap.restoreStats().SnapshotBytes
}

// SharedBytes returns the copy-on-write portion of the checkpoint: frozen
// page-table trees that every restored instance aliases instead of copying.
func (w *WarmStart) SharedBytes() uint64 {
	return w.psnap.restoreStats().SharedBytes
}

// BaseResidentPages returns the post-setup resident page count of the
// checkpointed process (software address space plus, on the Memento stack,
// hardware-backed arena pages). In a copy-on-write fan-out every warm
// instance aliases this base image and privatizes only what its run
// touches, so it is the per-sibling sharing potential the fleet layer
// charges with.
func (w *WarmStart) BaseResidentPages() uint64 {
	n := w.psnap.as.ResidentPages()
	if w.psnap.pa != nil {
		n += w.psnap.pa.ResidentPages()
	}
	return n
}

// PrepareWarm simulates process setup once and returns the checkpoint,
// without running any trace events. The setup simulation is observed by
// opt.Probe and opt.AllocHook if attached (they see setup's page faults
// and frame allocations); runs restored from the checkpoint observe only
// post-setup events with whatever observers their own Options carry.
func PrepareWarm(cfg config.Machine, tr *trace.Trace, opt Options) (*WarmStart, error) {
	m, err := New(cfg)
	if err != nil {
		return nil, err
	}
	p, err := m.newProcess(tr, opt)
	if err != nil {
		return nil, simerr.WithRun(err, tr.Name, opt.Stack.String(), -1)
	}
	w := newWarmStart(cfg, warmKeyOf(cfg, tr, opt), m, p)
	p.release()
	return w, nil
}

// Run executes the trace on a fresh machine restored from the checkpoint.
// The trace and options must match the checkpoint's setup (same
// configuration, stack, language, and setup-shaping fields); observation
// options are free to differ. Fault-injection hooks are re-armed at
// restore: a hook passed here counts only post-setup frame allocations,
// unlike a cold run whose hook also sees setup's.
func (w *WarmStart) Run(tr *trace.Trace, opt Options) (Result, error) {
	r, _, err := w.RunMetered(tr, opt)
	return r, err
}

// RunMetered is Run with restore metering: it additionally reports how many
// bytes the restore copied and aliased. Repeat runs recycle machines whose
// state is already based on this checkpoint, so their RestoreBytes cover
// only the previous run's dirtied regions — far below SnapshotBytes — which
// is what makes massive warm fan-out cheap. The simulation result is
// bit-identical either way.
func (w *WarmStart) RunMetered(tr *trace.Trace, opt Options) (Result, RestoreStats, error) {
	var m *Machine
	if v := w.pool.Get(); v != nil {
		m = v.(*Machine)
	} else {
		var err error
		m, err = New(w.cfg)
		if err != nil {
			return Result{}, RestoreStats{}, err
		}
	}
	r, rs, err := w.RunOn(m, tr, opt)
	if err == nil {
		w.pool.Put(m)
	}
	return r, rs, err
}

// RunOn is RunMetered on a machine the caller holds instead of a pooled
// one, so the caller decides what state the restore starts from: a fresh
// machine meters a full copy, and one that last ran from this checkpoint
// meters only that run's delta. m must be built from the checkpoint's
// configuration. After a failed run m is in an undefined state.
func (w *WarmStart) RunOn(m *Machine, tr *trace.Trace, opt Options) (Result, RestoreStats, error) {
	opt.Warm = nil
	if k := warmKeyOf(w.cfg, tr, opt); k != w.key {
		return Result{}, RestoreStats{}, simerr.WithRun(
			fmt.Errorf("machine: warm start was prepared for a different setup: %w", simerr.ErrInvalidConfig),
			tr.Name, opt.Stack.String(), -1)
	}
	rs, err := w.Restore(m)
	if err != nil {
		return Result{}, RestoreStats{}, err
	}
	p, err := m.restoreProcess(tr, opt, w.psnap)
	if err != nil {
		return Result{}, rs, simerr.WithRun(err, tr.Name, opt.Stack.String(), -1)
	}
	r, err := m.runLoop(p, tr, opt)
	if err != nil {
		return Result{}, rs, err
	}
	// Detach per-run observation wiring so m can be reused.
	m.attachProbe(nil)
	m.k.SetAllocHook(nil)
	return r, rs, nil
}

// Restore returns m's hardware state to the checkpoint and meters the
// restore the way a run's would: the hardware bytes copied plus the
// process snapshot's copy cost. It builds no process and replays nothing,
// so restoring a machine right after a run reads that run's steady-state
// delta without paying for another run.
func (w *WarmStart) Restore(m *Machine) (RestoreStats, error) {
	rs, err := m.RestoreMetered(w.msnap)
	if err != nil {
		return RestoreStats{}, err
	}
	rs.add(w.psnap.restoreStats())
	return rs, nil
}

// warmRuns caches one WarmStart per setup key for the life of the process,
// the way a serverless platform keeps warm containers per function
// configuration.
var warmRuns sync.Map // setupKey -> *WarmStart

// RunWarm runs the trace on a fresh machine, reusing a cached post-setup
// checkpoint when one exists for this setup. The first run with a given
// setup pays for setup simulation once and captures the checkpoint in
// passing; later runs restore it and replay only the trace. Results are
// bit-identical to Machine.Run on a fresh machine.
//
// Runs carrying a Probe or AllocHook fall back to a cold run (observers
// are entitled to see setup activity); pass an explicit Options.Warm to
// opt into warm starts for observed runs. An explicit Options.Warm is
// always honored first.
func RunWarm(cfg config.Machine, tr *trace.Trace, opt Options) (Result, error) {
	if opt.Warm != nil {
		return opt.Warm.Run(tr, opt)
	}
	if opt.Probe != nil || opt.AllocHook != nil {
		m, err := New(cfg)
		if err != nil {
			return Result{}, err
		}
		return m.Run(tr, opt)
	}
	key := warmKeyOf(cfg, tr, opt)
	if v, ok := warmRuns.Load(key); ok {
		return v.(*WarmStart).Run(tr, opt)
	}
	m, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	p, err := m.newProcess(tr, opt)
	if err != nil {
		return Result{}, simerr.WithRun(err, tr.Name, opt.Stack.String(), -1)
	}
	// Capture in passing: the cold run pays only the snapshot copy, then
	// continues to completion on its own state.
	warmRuns.LoadOrStore(key, newWarmStart(cfg, key, m, p))
	return m.runLoop(p, tr, opt)
}
