package machine

import (
	"fmt"

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

// Snapshot is an immutable capture of a machine's hardware state: DRAM row
// buffers, the cache hierarchy, both TLB levels, and the kernel's
// machine-wide state (buddy allocator + counters). One snapshot can seed
// any number of machines, concurrently. Every component is delta-aware:
// restoring a machine back onto the snapshot it was captured from copies
// only the regions dirtied in between, and re-capturing an untouched
// machine reuses the previous handle. Observation wiring (probes,
// fault-injection hooks) is never part of a snapshot; it is re-attached
// per run.
type Snapshot struct {
	cfg  config.Machine
	d    *dram.Snapshot
	h    *cache.HierarchySnapshot
	tlbs *tlb.SystemSnapshot
	k    *kernel.Snapshot
}

// Config returns the configuration the snapshot was taken under.
func (s *Snapshot) Config() config.Machine { return s.cfg }

// Bytes returns the full size of the captured hardware state — what a
// from-scratch restore copies.
func (s *Snapshot) Bytes() uint64 {
	return s.d.Bytes() + s.h.Bytes() + s.tlbs.Bytes() + s.k.Bytes()
}

// RestoreStats meters one restore: how big the captured state is, how much
// of it the restore actually copied (the delta), and how much it aliased
// copy-on-write instead of copying (frozen page-table trees shared with the
// snapshot). Bit-identical simulation results are unaffected — these are
// host-side bookkeeping numbers, reported by the warm-start and fleet
// experiments as the paper-motivating fan-out costs.
type RestoreStats struct {
	// SnapshotBytes is the full captured state size.
	SnapshotBytes uint64
	// RestoreBytes is what this restore copied. For a delta restore onto
	// the machine the snapshot came from this is only the dirtied regions;
	// for a fresh machine it approaches SnapshotBytes - SharedBytes.
	RestoreBytes uint64
	// SharedBytes is the copy-on-write portion aliased instead of copied.
	SharedBytes uint64
}

// add accumulates o into s.
func (s *RestoreStats) add(o RestoreStats) {
	s.SnapshotBytes += o.SnapshotBytes
	s.RestoreBytes += o.RestoreBytes
	s.SharedBytes += o.SharedBytes
}

// Snapshot captures the machine's hardware state. If nothing changed since
// the previous capture or restore, the previous handle is returned (O(1)).
func (m *Machine) Snapshot() *Snapshot {
	d, h, t, k := m.d.Snapshot(), m.h.Snapshot(), m.tlbs.Snapshot(), m.k.Snapshot()
	if b := m.base; b != nil && b.d == d && b.h == h && b.tlbs == t && b.k == k {
		return b
	}
	s := &Snapshot{cfg: m.cfg, d: d, h: h, tlbs: t, k: k}
	m.base = s
	return s
}

// RestoreMetered replaces the machine's hardware state with that of s and
// reports how much state the restore copied. The machine must have been
// built from the same configuration; probe and hook attachments survive
// the restore (their cached flags are re-derived). Restoring a machine
// back onto its own base snapshot copies only what the machine dirtied
// since — the lazy-restore fast path massive warm fan-out rides on.
func (m *Machine) RestoreMetered(s *Snapshot) (RestoreStats, error) {
	if m.cfg != s.cfg {
		return RestoreStats{}, fmt.Errorf("machine: restore of snapshot from a different configuration: %w", simerr.ErrInvalidConfig)
	}
	rs := RestoreStats{SnapshotBytes: s.Bytes()}
	rs.RestoreBytes += m.d.Restore(s.d)
	rs.RestoreBytes += m.h.Restore(s.h)
	rs.RestoreBytes += m.tlbs.Restore(s.tlbs)
	rs.RestoreBytes += m.k.Restore(s.k)
	m.base = s
	return rs, nil
}

// procSnapshot is a deep copy of one process's post-setup state: the
// address space, the stack-specific allocator state, the cycle buckets the
// setup charged, and the application-buffer cursor/RNG. It is captured
// before the first trace event, so the object table and live list (always
// empty at that point) are not part of it.
type procSnapshot struct {
	stack Stack
	lang  trace.Language

	as *kernel.AddressSpaceSnapshot

	// Baseline path.
	alloc softalloc.AllocSnapshot
	// Memento path.
	pa    *core.PageAllocSnapshot
	unit  *core.UnitSnapshot
	large softalloc.AllocSnapshot

	b Buckets

	appBufVA  uint64
	appBufLen uint64
	appCursor uint64
	appRng    uint64
}

// procScalarBytes covers the cycle buckets (8 counters), the app-buffer
// cursor/RNG quad, and the stack/language tags.
const procScalarBytes = 8*8 + 4*8 + 2*8

// restoreStats meters what restoring this process snapshot costs: the
// address-space and Memento page tables are aliased copy-on-write, the
// allocator graphs and scalars are copied.
func (ps *procSnapshot) restoreStats() RestoreStats {
	var rs RestoreStats
	rs.SharedBytes = ps.as.SharedBytes()
	rs.RestoreBytes = ps.as.CopiedBytes() + procScalarBytes
	if ps.alloc != nil {
		rs.RestoreBytes += ps.alloc.Bytes()
	}
	if ps.pa != nil {
		rs.SharedBytes += ps.pa.SharedBytes()
		rs.RestoreBytes += ps.pa.CopiedBytes() + ps.unit.Bytes() + ps.large.Bytes()
	}
	rs.SnapshotBytes = rs.RestoreBytes + rs.SharedBytes
	return rs
}

// captureState deep-copies the process's state. It must be called before
// the first trace event (the object table is not captured).
func (p *process) captureState() *procSnapshot {
	if p.pc != 0 || len(p.liveList) != 0 {
		panic("machine: captureState after trace events began")
	}
	s := &procSnapshot{
		stack:     p.opt.Stack,
		lang:      p.tr.Lang,
		as:        p.as.Snapshot(),
		b:         p.b,
		appBufVA:  p.appBufVA,
		appBufLen: p.appBufLen,
		appCursor: p.appCursor,
		appRng:    p.appRng,
	}
	if p.alloc != nil {
		s.alloc = p.alloc.Snapshot()
	}
	if p.pa != nil {
		s.pa = p.pa.Snapshot()
		s.unit = p.unit.Snapshot()
		s.large = p.large.Snapshot()
	}
	return s
}

// restoreProcess rebuilds a process from a post-setup snapshot without
// charging any simulated cycles or allocating any simulated frames: the
// machine snapshot restored alongside it already accounts for everything
// setup did. The state lands in the pooled scratch's address space,
// allocators and Memento hardware, re-attached to m, so at steady state the
// restore allocates nothing on the host. It mirrors newProcess's wiring —
// per-run observation state (probe attachment, fault-injection hooks,
// force-populate mode, the timeline) comes from opt, not from the snapshot,
// so a restored run can be observed differently from the run that was
// captured.
func (m *Machine) restoreProcess(tr *trace.Trace, opt Options, ps *procSnapshot) (*process, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if opt.Stack != ps.stack || tr.Lang != ps.lang {
		return nil, fmt.Errorf("machine: warm snapshot is for stack %v / lang %v, run wants %v / %v: %w",
			ps.stack, ps.lang, opt.Stack, tr.Lang, simerr.ErrInvalidConfig)
	}
	m.k.SetAllocHook(opt.AllocHook)
	m.k.SetForcePopulate(opt.MmapPopulate)
	m.attachProbe(opt.Probe)

	p := m.scratchProcess(tr, opt)
	scr := p.scr
	as := &scr.as
	m.k.RestoreAddressSpaceInto(as, ps.as)
	as.Shootdown = m.shootdown
	p.as = as
	// fail returns the scratch to the pool; the caller abandons the machine
	// on error, so no simulated teardown is needed.
	fail := func(err error) (*process, error) {
		p.release()
		return nil, err
	}

	// Restore into the scratch's allocators, attached to this machine.
	switch ps.stack {
	case Baseline:
		switch tr.Lang {
		case trace.Python:
			if scr.py == nil {
				scr.py = new(softalloc.PyMalloc)
			}
			scr.py.Attach(m.cfg, m.k, as, &p.mmu)
			p.alloc = scr.py
		case trace.Cpp:
			if scr.je == nil {
				scr.je = new(softalloc.JEMalloc)
			}
			scr.je.Attach(m.cfg, m.k, as, &p.mmu)
			p.alloc = scr.je
		case trace.Golang:
			if scr.goa == nil {
				scr.goa = new(softalloc.GoAlloc)
			}
			scr.goa.Attach(m.cfg, m.k, as, &p.mmu)
			p.alloc = scr.goa
		default:
			return fail(fmt.Errorf("machine: unknown language %v: %w", tr.Lang, simerr.ErrTraceInvalid))
		}
		if err := p.alloc.Restore(ps.alloc); err != nil {
			return fail(err)
		}
	case Memento:
		lay, err := scr.layout(m.cfg.Memento)
		if err != nil {
			return fail(err)
		}
		if scr.pa == nil {
			scr.pa, scr.unit, scr.large = new(core.PageAllocator), new(core.Unit), new(softalloc.LargeAlloc)
		}
		pa := scr.pa
		pa.Attach(m.cfg, lay, m.h, m.k)
		pa.Restore(ps.pa)
		pa.Shootdown = m.shootdown
		pa.SetAllocHook(opt.AllocHook)
		p.pa = pa
		if err := scr.unit.Attach(m.cfg, lay, pa, m.h, &p.mmu); err != nil {
			return fail(err)
		}
		scr.unit.Restore(ps.unit)
		p.unit = scr.unit
		scr.large.Attach(m.cfg, m.k, as, &p.mmu)
		if err := scr.large.Restore(ps.large); err != nil {
			return fail(err)
		}
		p.large = scr.large
	}

	p.b = ps.b
	p.appBufVA, p.appBufLen = ps.appBufVA, ps.appBufLen
	p.appCursor, p.appRng = ps.appCursor, ps.appRng
	if opt.TimelineInterval > 0 {
		// The restored counters are exactly the cold run's post-setup
		// counters, so this anchor sample is byte-identical to a cold one.
		p.timeline = telemetry.NewTimeline(opt.TimelineInterval)
		p.timeline.Record(p.snapshot())
	}
	p.observed = opt.Probe != nil || p.timeline != nil
	return p, nil
}
