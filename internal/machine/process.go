package machine

import (
	"fmt"
	"sync"

	"memento/internal/config"
	"memento/internal/core"
	"memento/internal/kernel"
	"memento/internal/simerr"
	"memento/internal/softalloc"
	"memento/internal/telemetry"
	"memento/internal/tlb"
	"memento/internal/trace"
)

// object tracks one trace object's placement.
type object struct {
	va      uint64
	size    uint64
	live    bool
	memento bool // served by the hardware object allocator
	liveIdx int  // position in process.liveList
}

// scratch is the per-run object table and live list. The suite replays tens
// of traces with up to hundreds of thousands of objects each, so the tables
// are pooled across runs instead of reallocated per run.
type scratch struct {
	objs     []object
	liveList []int
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// newScratch takes a pooled scratch and sizes its object table for n
// objects, reusing the previous run's capacity when it suffices.
func newScratch(n int) *scratch {
	s := scratchPool.Get().(*scratch)
	if cap(s.objs) < n {
		s.objs = make([]object, n)
	} else {
		s.objs = s.objs[:n]
		clear(s.objs)
	}
	s.liveList = s.liveList[:0]
	return s
}

// process is a resumable execution of one trace on one stack.
type process struct {
	m   *Machine
	tr  *trace.Trace
	opt Options

	as  *kernel.AddressSpace
	mmu *mmu

	// Baseline path.
	alloc softalloc.Allocator
	// Memento path.
	unit  *core.Unit
	pa    *core.PageAllocator
	large *softalloc.LargeAlloc

	scr        *scratch
	objs       []object
	liveList   []int
	pc         int
	b          Buckets
	finished   bool
	destroyed  bool
	fragSample float64
	fragSum    float64
	fragN      int
	allocSeen  int

	// compDelta, when set (RunMultiProcess), makes result() report the
	// per-process component deltas accumulated in comp instead of the
	// machine-global cumulative counters.
	compDelta bool
	comp      componentStats

	// appBuf is the application working buffer KindCompute streams over
	// (its traffic is the non-MM baseline both stacks share).
	appBufVA  uint64
	appBufLen uint64
	appCursor uint64
	appRng    uint64 // xorshift state for the access pattern

	// timeline, when non-nil, is the run's interval counter recording.
	timeline *telemetry.Timeline
	// observed caches whether any observer (probe or timeline) is attached,
	// so the per-event step tests one flag instead of two interfaces.
	observed bool
}

// mmu dispatches translations: Memento-region addresses walk the hardware
// page allocator's table (the MPTR path, Section 3.2); everything else
// walks the kernel's page tables and may page-fault.
type mmu struct {
	p *process
}

// Translate implements core.Translator. The error follows the tlb.Walker
// taxonomy (simerr.ErrSegfault / simerr.ErrOutOfMemory).
func (u *mmu) Translate(va uint64) (pa uint64, cycles uint64, err error) {
	var w tlb.Walker = u.p.as
	if u.p.pa != nil && u.p.unit.Layout().Contains(va) {
		w = u.p.pa
	}
	pfn, cycles, err := u.p.m.tlbs.Translate(va>>config.PageShift, w)
	if err != nil {
		return 0, cycles, err
	}
	return pfn<<config.PageShift | va&(config.PageSize-1), cycles, nil
}

// AccessVA implements softalloc.VMem.
func (u *mmu) AccessVA(va uint64, write bool) (uint64, error) {
	pa, cycles, err := u.Translate(va)
	if err != nil {
		return cycles, err
	}
	return cycles + u.p.m.h.Access(pa, write), nil
}

// newProcess sets up the per-run state: address space, allocator or
// Memento unit, and charges runtime initialization. A setup failure leaves
// the machine clean: everything allocated so far (address-space metadata,
// allocator pools, mapped buffers) is torn down before the error returns.
func (m *Machine) newProcess(tr *trace.Trace, opt Options) (*process, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	// The hook attaches before the first frame allocation so it observes the
	// whole setup, address-space metadata included.
	m.k.SetAllocHook(opt.AllocHook)
	as, err := m.k.NewAddressSpace()
	if err != nil {
		return nil, simerr.Wrap(err, "process-setup")
	}
	scr := newScratch(tr.Objects)
	p := &process{
		m:        m,
		tr:       tr,
		opt:      opt,
		as:       as,
		scr:      scr,
		objs:     scr.objs,
		liveList: scr.liveList,
	}
	// fail reclaims every resource the partial setup acquired (satisfying
	// the invariant that a failed newProcess restores FreeFrames).
	fail := func(err error) (*process, error) {
		p.destroy()
		p.release()
		return nil, simerr.Wrap(err, "process-setup")
	}
	p.mmu = &mmu{p: p}
	p.as.Shootdown = m.tlbs.Shootdown
	m.k.SetForcePopulate(opt.MmapPopulate)
	m.attachProbe(opt.Probe)

	switch opt.Stack {
	case Baseline:
		switch tr.Lang {
		case trace.Python:
			p.alloc = softalloc.NewPyMalloc(m.cfg, m.k, p.as, p.mmu)
		case trace.Cpp:
			jo := softalloc.DefaultJEMallocOpts()
			if opt.JEMallocOpts != nil {
				jo = *opt.JEMallocOpts
			}
			p.alloc = softalloc.NewJEMalloc(m.cfg, m.k, p.as, p.mmu, jo)
		case trace.Golang:
			p.alloc = softalloc.NewGoAlloc(m.cfg, m.k, p.as, p.mmu)
		default:
			return fail(fmt.Errorf("machine: unknown language %v: %w", tr.Lang, simerr.ErrTraceInvalid))
		}
		// Runtime/allocator initialization happens at container start: its
		// cycles are part of the cold-start cost, not the warm function
		// run (Section 5 warms the system before measuring). Its memory
		// side effects (jemalloc's pre-faulted pool, Go's arena
		// reservation) persist either way.
		cycles, err := p.alloc.Init()
		if err != nil {
			return fail(err)
		}
		if opt.ColdStart {
			p.b.AppCompute += cycles
		}
	case Memento:
		lay, err := core.NewLayout(m.cfg.Memento, core.DefaultRegionStart, core.DefaultRegionBytes)
		if err != nil {
			return fail(err)
		}
		pa, err := core.NewPageAllocator(m.cfg, lay, m.h, m.k)
		if err != nil {
			return fail(err)
		}
		pa.Shootdown = m.tlbs.Shootdown
		pa.SetAllocHook(opt.AllocHook)
		p.pa = pa
		unit, err := core.NewUnit(m.cfg, lay, pa, m.h, p.mmu)
		if err != nil {
			return fail(err)
		}
		p.unit = unit
		p.large = softalloc.NewLargeAlloc(m.cfg, m.k, p.as, p.mmu)
	default:
		return fail(fmt.Errorf("machine: unknown stack %v: %w", opt.Stack, simerr.ErrInvalidConfig))
	}

	if opt.ColdStart {
		p.b.AppCompute += tr.ColdStartCycles
	}
	p.b.AppCompute += uint64(tr.RPCCalls) * m.cfg.Cost.RPCCyclesPerCall

	if tr.AppBufBytes > 0 {
		// The input/working buffer is staged before the measured region
		// (inputs arrive via RPC); its pages exist in both stacks alike.
		va, _, err := m.k.Mmap(p.as, tr.AppBufBytes, true)
		if err != nil {
			return fail(err)
		}
		p.appBufVA, p.appBufLen = va, tr.AppBufBytes
		p.appRng = uint64(len(tr.Name))*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	}
	if opt.TimelineInterval > 0 {
		// The post-setup sample anchors the series; with the teardown sample
		// every timeline has at least two points.
		p.timeline = telemetry.NewTimeline(opt.TimelineInterval)
		p.timeline.Record(p.snapshot())
	}
	p.observed = opt.Probe != nil || p.timeline != nil
	return p, nil
}

// release returns the per-run scratch to the pool. The process must not
// step or finish afterwards.
func (p *process) release() {
	if p.scr == nil {
		return
	}
	p.scr.objs = p.objs
	p.scr.liveList = p.liveList
	scratchPool.Put(p.scr)
	p.scr = nil
	p.objs, p.liveList = nil, nil
}

// destroy reclaims every physical frame the process holds without charging
// simulated cycles: the Memento page allocator's pool, table, and mapped
// arena pages go back to the OS, the address space (data pages, page
// tables, VMA metadata frame) is torn down, and the TLBs are flushed so no
// stale translations survive into the machine's next run. It is the
// error-path and post-run counterpart to finish(), safe on partially built
// processes and idempotent.
func (p *process) destroy() {
	if p.destroyed {
		return
	}
	p.destroyed = true
	if p.pa != nil {
		_ = p.pa.Release()
	}
	_ = p.m.k.DestroyAddressSpace(p.as)
	p.m.tlbs.FlushAll()
}

// computeTraffic issues the application's own memory accesses for one
// compute event: a streaming walk over the working buffer with occasional
// random jumps. The access *latencies* are already represented inside the
// compute cycle budget, so only traffic and cache pressure are modeled.
// The buffer is mapped at setup, so an access can only fail if the machine
// has run out of frames backing a lazily-populated page.
func (p *process) computeTraffic(cycles uint64) error {
	if p.appBufLen == 0 || p.tr.ComputeAPK <= 0 {
		return nil
	}
	n := cycles * uint64(p.tr.ComputeAPK) / 1000
	for i := uint64(0); i < n; i++ {
		// xorshift64 for a cheap deterministic pattern choice.
		p.appRng ^= p.appRng << 13
		p.appRng ^= p.appRng >> 7
		p.appRng ^= p.appRng << 17
		if p.appRng%8 == 0 {
			p.appCursor = p.appRng % p.appBufLen
		}
		p.appCursor = (p.appCursor + config.LineSize) % p.appBufLen
		if _, err := p.mmu.AccessVA(p.appBufVA+p.appCursor, p.appRng%4 == 1); err != nil {
			return err
		}
	}
	return nil
}

func (p *process) done() bool { return p.pc >= p.tr.Len() }

func (p *process) kernelMM() uint64 { return p.m.k.KernelMMCycles() }

func (p *process) backing() uint64 {
	if p.pa == nil {
		return 0
	}
	return p.pa.BackingCycles()
}

// step executes one trace event, reporting into the attached probe and
// timeline. The telemetry-disabled fast path costs one flag test, cached at
// process setup instead of re-deriving two nil checks per event.
func (p *process) step() error {
	if !p.observed {
		return p.stepEvent()
	}
	idx := p.pc
	kind := p.tr.KindAt(idx)
	before := p.b
	if err := p.stepEvent(); err != nil {
		return err
	}
	if p.opt.Probe != nil {
		p.opt.Probe.Event(telemetry.Event{
			Index:  idx,
			Kind:   eventKindOf(kind),
			Stack:  stackOf(p.opt.Stack),
			Delta:  bucketsOf(p.b).Sub(bucketsOf(before)),
			Cycles: p.b.Total(),
		})
	}
	if p.timeline != nil && p.pc%p.opt.TimelineInterval == 0 {
		p.timeline.Record(p.snapshot())
	}
	return nil
}

// stepEvent executes one trace event.
func (p *process) stepEvent() error {
	e := p.tr.At(p.pc)
	p.pc++
	switch e.Kind {
	case trace.KindAlloc:
		return p.doAlloc(e)
	case trace.KindFree:
		return p.doFree(e)
	case trace.KindTouch:
		return p.doTouch(e)
	case trace.KindCompute:
		p.b.AppCompute += e.Cycles
		return p.computeTraffic(e.Cycles)
	case trace.KindGC:
		cycles, err := p.gcMark()
		p.b.GC += cycles
		return err
	case trace.KindContextSwitch:
		p.b.CtxSwitch += p.contextSwitch()
		return nil
	default:
		return fmt.Errorf("unknown event kind %d", e.Kind)
	}
}

// sampleFragmentation records one occupancy observation (§6.6).
func (p *process) sampleFragmentation() {
	var frag float64
	if p.unit != nil {
		frag = p.unit.Fragmentation()
	} else if p.alloc != nil {
		frag = 1 - p.alloc.Occupancy()
	}
	p.fragSum += frag
	p.fragN++
}

func (p *process) doAlloc(e trace.Event) error {
	p.allocSeen++
	if p.allocSeen%8192 == 0 {
		p.sampleFragmentation()
	}
	kb := p.kernelMM()
	var va, cycles uint64
	var err error
	isMemento := false
	switch p.opt.Stack {
	case Baseline:
		va, cycles, err = p.alloc.Alloc(e.Size)
	case Memento:
		if e.Size <= uint64(p.m.cfg.Memento.MaxObjectSize) {
			va, cycles, err = p.unit.ObjAlloc(e.Size)
			isMemento = true
		} else {
			va, cycles, err = p.large.Alloc(e.Size)
		}
	}
	if err != nil {
		return err
	}
	kd := p.kernelMM() - kb
	p.b.Kernel += kd
	user := cycles - min64(kd, cycles)
	if p.opt.MallaccIdeal && p.tr.Lang == trace.Cpp && !isMemento && e.Size <= 512 {
		// Idealized Mallacc (Section 6.7): the malloc-acceleration cache
		// has zero latency and always hits, erasing the malloc fast path's
		// instruction work (size-class computation, free-list head
		// caching). The allocator's metadata memory traffic and slow-path
		// refills remain — Mallacc caches results, it does not manage
		// memory.
		user /= mallaccResidualDiv
	}
	p.b.UserAlloc += user
	o := &p.objs[e.Obj]
	o.va, o.size, o.live, o.memento = va, e.Size, true, isMemento
	if s, ok := p.sizeOf(o); ok {
		o.size = s
	}
	o.liveIdx = len(p.liveList)
	p.liveList = append(p.liveList, e.Obj)
	return nil
}

func (p *process) sizeOf(o *object) (uint64, bool) {
	if o.memento {
		return p.unit.SizeOf(o.va)
	}
	if p.opt.Stack == Baseline {
		return p.alloc.SizeOf(o.va)
	}
	return p.large.SizeOf(o.va)
}

func (p *process) doFree(e trace.Event) error {
	o := &p.objs[e.Obj]
	if !o.live {
		return fmt.Errorf("free of non-live object %d", e.Obj)
	}
	kb := p.kernelMM()
	var cycles uint64
	var err error
	switch {
	case p.opt.Stack == Baseline:
		cycles, err = p.alloc.Free(o.va)
	case o.memento:
		cycles, err = p.unit.ObjFree(o.va)
	default:
		cycles, err = p.large.Free(o.va)
	}
	if err != nil {
		return err
	}
	kd := p.kernelMM() - kb
	p.b.Kernel += kd
	user := cycles - min64(kd, cycles)
	if p.opt.MallaccIdeal && p.tr.Lang == trace.Cpp && !o.memento && o.size <= 512 {
		user /= mallaccResidualDiv
	}
	p.b.UserFree += user
	o.live = false
	p.removeLive(e.Obj)
	return nil
}

// removeLive swap-removes the object from the live list.
func (p *process) removeLive(obj int) {
	i := p.objs[obj].liveIdx
	last := len(p.liveList) - 1
	moved := p.liveList[last]
	p.liveList[i] = moved
	p.objs[moved].liveIdx = i
	p.liveList = p.liveList[:last]
}

func (p *process) doTouch(e trace.Event) error {
	o := &p.objs[e.Obj]
	if !o.live {
		return fmt.Errorf("touch of non-live object %d", e.Obj)
	}
	bytes := e.Bytes
	if bytes == 0 || bytes > o.size {
		bytes = o.size
	}
	kb := p.kernelMM()
	bb := p.backing()
	var cycles uint64
	var aerr error
	lines := 0
	for off := uint64(0); off < bytes; off += config.LineSize {
		c, err := p.accessData(o, o.va+off, e.Write)
		cycles += c
		lines++
		if err != nil {
			aerr = err
			break
		}
	}
	kd := p.kernelMM() - kb
	bd := p.backing() - bb
	// Multi-line touches overlap in the OOO core (memory-level
	// parallelism): the serialized per-line latencies above are divided by
	// the effective MLP. Fault/backing work stays serial (it is).
	mlp := uint64(lines)
	if mlp > touchMLP {
		mlp = touchMLP
	}
	if mlp == 0 {
		mlp = 1
	}
	app := (cycles - min64(kd+bd, cycles)) / mlp
	p.b.Kernel += kd
	p.b.PageMgmt += bd
	p.b.AppMem += app
	return aerr
}

// touchMLP is the modeled memory-level parallelism of streaming touches.
const touchMLP = 4

// mallaccResidualDiv divides the userspace fast-path cost under the
// idealized Mallacc: roughly one third remains as metadata memory-access
// time and slow-path refills that a malloc cache cannot hide.
const mallaccResidualDiv = 3

// accessData routes one line access through the right path. The error
// follows the tlb.Walker taxonomy.
func (p *process) accessData(o *object, va uint64, write bool) (uint64, error) {
	if o.memento {
		return p.unit.AccessData(va, write)
	}
	return p.mmu.AccessVA(va, write)
}

// gcMark charges a mark phase over the live set. The model is identical
// for both stacks (Memento "does not help with tracking liveness",
// Section 4): fixed start/stop cost, per-live-object scan instructions,
// and header accesses for a bounded sample of the live set.
func (p *process) gcMark() (uint64, error) {
	cycles := p.m.cfg.InstrCycles(5000)
	per := p.m.cfg.InstrCycles(30)
	cycles += per * uint64(len(p.liveList))
	const sampleCap = 4096
	for i, obj := range p.liveList {
		if i >= sampleCap {
			break
		}
		o := &p.objs[obj]
		c, err := p.accessData(o, o.va, false)
		cycles += c
		if err != nil {
			return cycles, err
		}
	}
	return cycles, nil
}

// contextSwitch models a scheduler switch on this core: direct cost, TLB
// flush (no ASIDs), and for Memento the HOT flush (Section 4).
func (p *process) contextSwitch() uint64 {
	cycles := p.m.cfg.Cost.ContextSwitchCycles
	p.m.tlbs.FlushAll()
	if p.unit != nil {
		cycles += p.unit.FlushHOT()
	}
	return cycles
}

// finish charges the process-exit teardown: the OS batch-free of all
// remaining memory (baseline) or the hardware arena reclamation plus the
// software large-object teardown (Memento).
func (p *process) finish() error {
	if p.finished {
		return nil
	}
	p.finished = true
	beforeTeardown := p.b
	// The §6.6 fragmentation metric is the mean of the periodic samples
	// taken during execution (end-of-run state is unrepresentative: the
	// late frees have drained the heap by then).
	p.sampleFragmentation()
	if p.fragN > 0 {
		p.fragSample = p.fragSum / float64(p.fragN)
	}
	kb := p.kernelMM()
	if p.unit != nil {
		p.b.PageMgmt += p.unit.Teardown()
		if err := p.unit.ReleasePool(); err != nil {
			return err
		}
	}
	cycles, err := p.m.k.ReleaseAll(p.as)
	if err != nil {
		return err
	}
	kd := p.kernelMM() - kb
	_ = cycles // fully contained in the kernel delta
	p.b.Kernel += kd
	if p.opt.Probe != nil {
		p.opt.Probe.Event(telemetry.Event{
			Index:  p.pc,
			Kind:   telemetry.EventFinish,
			Stack:  stackOf(p.opt.Stack),
			Delta:  bucketsOf(p.b).Sub(bucketsOf(beforeTeardown)),
			Cycles: p.b.Total(),
		})
	}
	if p.timeline != nil {
		p.timeline.Record(p.snapshot())
	}
	return nil
}

// result assembles the Result snapshot. In delta mode (RunMultiProcess)
// the component counters are the per-process deltas accumulated around this
// process's quanta; otherwise they are the machine-cumulative totals (see
// Machine.Run for the accumulation contract).
func (p *process) result() Result {
	comp := componentStats{
		dram: p.m.d.Stats(),
		hier: p.m.h.Stats(),
		tlb:  p.m.tlbs.Stats(),
		kern: p.m.k.Stats(),
	}
	if p.compDelta {
		comp = p.comp
	}
	r := Result{
		Workload:          p.tr.Name,
		Lang:              p.tr.Lang,
		Stack:             p.opt.Stack,
		Buckets:           p.b,
		Cycles:            p.b.Total(),
		DRAM:              comp.dram,
		Hier:              comp.hier,
		TLB:               comp.tlb,
		Kernel:            comp.kern,
		PeakResidentPages: p.as.PeakResidentPages(),
	}
	r.UserPages = r.Kernel.UserPagesAllocated
	r.KernelPages = r.Kernel.KernelPagesAllocated
	r.Fragmentation = p.fragSample
	r.Timeline = p.timeline
	if p.unit != nil {
		r.HOT = p.unit.Stats()
		r.PageAlloc = p.pa.Stats()
		r.PeakResidentPages += r.PageAlloc.PeakResidentPages
	}
	if p.alloc != nil {
		r.Soft = p.alloc.Stats()
	} else if p.large != nil {
		r.Soft = p.large.Stats()
	}
	return r
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
