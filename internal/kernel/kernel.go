package kernel

import (
	"errors"
	"fmt"
	"sort"

	"memento/internal/config"
	"memento/internal/pagetable"
	"memento/internal/simerr"
	"memento/internal/telemetry"
)

// Reserved low physical frames (kernel image, fixed structures).
const firstUsableFrame = 256

// Stats accumulates kernel memory-management activity. Cycle fields are the
// basis of the Table 2 user/kernel breakdown and the Fig 9 page-mgmt gains;
// page counters feed the Fig 11 aggregate-memory results.
type Stats struct {
	// Mmaps, Munmaps, and PageFaults count events.
	Mmaps      uint64
	Munmaps    uint64
	PageFaults uint64

	// SyscallCycles is time spent in mmap/munmap (entry/exit + kernel work).
	SyscallCycles uint64
	// FaultCycles is time spent in the page-fault path (trap + handler +
	// allocation + zeroing + PTE install).
	FaultCycles uint64

	// UserPagesAllocated counts data pages handed to userspace (cumulative).
	UserPagesAllocated uint64
	// KernelPagesAllocated counts pages consumed by kernel metadata —
	// page tables and VMA bookkeeping (cumulative).
	KernelPagesAllocated uint64
	// PageTablePages is the current number of live page-table pages.
	PageTablePages uint64
	// ZeroedPages counts pages zeroed by the fault path.
	ZeroedPages uint64
	// Shootdowns counts TLB shootdown events issued by munmap.
	Shootdowns uint64
}

// KernelMMCycles returns all kernel memory-management cycles.
func (s Stats) KernelMMCycles() uint64 { return s.SyscallCycles + s.FaultCycles }

// Sub returns the field-wise difference s - o: the activity between two
// snapshots. Arithmetic wraps (uint64 modular); for gauges like
// PageTablePages a delta may represent a net decrease, and summing the
// per-process deltas still reproduces the cumulative counter exactly.
func (s Stats) Sub(o Stats) Stats {
	s.Mmaps -= o.Mmaps
	s.Munmaps -= o.Munmaps
	s.PageFaults -= o.PageFaults
	s.SyscallCycles -= o.SyscallCycles
	s.FaultCycles -= o.FaultCycles
	s.UserPagesAllocated -= o.UserPagesAllocated
	s.KernelPagesAllocated -= o.KernelPagesAllocated
	s.PageTablePages -= o.PageTablePages
	s.ZeroedPages -= o.ZeroedPages
	s.Shootdowns -= o.Shootdowns
	return s
}

// Add returns the field-wise sum s + o.
func (s Stats) Add(o Stats) Stats {
	s.Mmaps += o.Mmaps
	s.Munmaps += o.Munmaps
	s.PageFaults += o.PageFaults
	s.SyscallCycles += o.SyscallCycles
	s.FaultCycles += o.FaultCycles
	s.UserPagesAllocated += o.UserPagesAllocated
	s.KernelPagesAllocated += o.KernelPagesAllocated
	s.PageTablePages += o.PageTablePages
	s.ZeroedPages += o.ZeroedPages
	s.Shootdowns += o.Shootdowns
	return s
}

// Counters returns the stats in their stable telemetry wire form.
func (s Stats) Counters() telemetry.KernelCounters {
	return telemetry.KernelCounters{
		Mmaps:         s.Mmaps,
		Munmaps:       s.Munmaps,
		PageFaults:    s.PageFaults,
		SyscallCycles: s.SyscallCycles,
		FaultCycles:   s.FaultCycles,
	}
}

// vma is one mapped virtual region [start, end) in page units.
type vma struct {
	startVPN uint64
	endVPN   uint64 // exclusive
	populate bool
}

// AddressSpace is one process's virtual memory image.
type AddressSpace struct {
	k  *Kernel
	pt pagetable.Table
	// vmas is kept sorted by startVPN.
	vmas []vma
	// cursor is the next VA for a fresh mmap, in VPN units.
	cursor uint64
	// metaFrame backs VMA bookkeeping accesses.
	metaFrame uint64
	// Shootdown, when set, is invoked for every unmapped VPN so the owner
	// (the machine's TLB) can invalidate stale translations.
	Shootdown func(vpn uint64)
	// residentPages is the current number of data pages mapped.
	residentPages uint64
	// peakResident tracks the maximum of residentPages.
	peakResident uint64
	// vmasCreated counts mappings ever created (slab accounting).
	vmasCreated uint64
	// Delta-snapshot state: base is the snapshot this address space was last
	// captured to or restored from; mutated is set by every state-changing
	// entry point so an unchanged re-Snapshot is an O(1) handle reuse.
	base    *AddressSpaceSnapshot
	mutated bool
}

// vmasPerSlabPage is how many VMA metadata sets fit a kernel slab page
// (vm_area_struct + anon_vma + rmap entries, ~320 B together).
const vmasPerSlabPage = 12

// mmapBaseVPN is where anonymous mappings start (0x7f00_0000_0000 >> 12),
// far from the Memento region.
const mmapBaseVPN = 0x7f0000000

// AllocHook intercepts physical frame allocations for fault injection (see
// internal/faultinject for ready-made triggers): the kernel's buddy
// allocations and the Memento page allocator's pool pops
// (core.PageAllocator.SetAllocHook).
type AllocHook interface {
	// FailFrameAlloc is consulted before the nth (1-based, cumulative over
	// the allocator's lifetime) allocation with the current free-frame (or
	// pool-depth) count; returning true makes the allocation fail exactly
	// as if memory were exhausted.
	FailFrameAlloc(n uint64, free uint64) bool
}

// Kernel is the simulated OS memory manager shared by all address spaces on
// a machine.
type Kernel struct {
	cfg   config.Machine
	mem   pagetable.Mem
	buddy *Buddy
	stats Stats
	// forcePopulate applies MAP_POPULATE to every mmap (the Section 6.6
	// sensitivity study).
	forcePopulate bool
	// probe, when non-nil, observes syscalls and page faults. probed caches
	// the attachment state so hot paths test one byte, not an interface.
	probe  telemetry.Probe
	probed bool
	// allocHook, when non-nil, may veto frame allocations (fault
	// injection); frameAllocs counts allocation attempts for its trigger.
	allocHook   AllocHook
	frameAllocs uint64
	// base is the machine-wide snapshot handle reused while nothing changes
	// (see snapshot.go).
	base *Snapshot
	// rep is mem's hit-replay fast path, nil when mem lacks it (test fakes).
	rep pagetable.HitRepeater
	// nodes recycles the private nodes of every page table on the machine:
	// the kernel's and the Memento allocator's.
	nodes pagetable.FreeList
	// munmapPageCycles and buddyFreeCycles are the per-page instruction
	// costs of unmapping, fixed by the configuration.
	munmapPageCycles, buddyFreeCycles uint64
	// unmapStart and unmapN are Munmap's pending run of consecutive
	// unmapped frames, not yet returned to the buddy allocator.
	unmapStart, unmapN uint64
}

// SetProbe attaches a telemetry probe (nil detaches).
func (k *Kernel) SetProbe(p telemetry.Probe) {
	k.probe = p
	k.probed = p != nil
}

// SetForcePopulate toggles eager population of all mappings (§6.6).
func (k *Kernel) SetForcePopulate(v bool) { k.forcePopulate = v }

// SetAllocHook attaches a fault-injection hook to the frame allocator (nil
// detaches). The hook sees every frame allocation: address-space metadata,
// page-table pages, data pages, and Memento pool refills.
func (k *Kernel) SetAllocHook(h AllocHook) { k.allocHook = h }

// allocFrame is the single gateway to the buddy allocator: it counts the
// attempt, consults the fault-injection hook, and returns a typed error on
// exhaustion (real or injected).
func (k *Kernel) allocFrame(order int) (uint64, error) {
	k.frameAllocs++
	if k.allocHook != nil && k.allocHook.FailFrameAlloc(k.frameAllocs, k.buddy.FreeFrames()) {
		return 0, fmt.Errorf("kernel: frame allocation %d vetoed: %w (%w)",
			k.frameAllocs, simerr.ErrOutOfMemory, simerr.ErrFaultInjected)
	}
	frame, ok := k.buddy.Alloc(order)
	if !ok {
		return 0, fmt.Errorf("kernel: no free 2^%d-frame block (%d frames free): %w",
			order, k.buddy.FreeFrames(), simerr.ErrOutOfMemory)
	}
	return frame, nil
}

// New creates a kernel managing the machine's physical memory. To keep the
// buddy metadata proportionate to simulated footprints, the managed range is
// capped at 4 GiB of frames; the workloads use tens of MiB.
func New(cfg config.Machine, mem pagetable.Mem) *Kernel {
	frames := cfg.DRAM.SizeBytes >> config.PageShift
	if max := uint64(4 << 30 >> config.PageShift); frames > max {
		frames = max
	}
	rep, _ := mem.(pagetable.HitRepeater)
	return &Kernel{
		cfg:   cfg,
		mem:   mem,
		buddy: NewBuddy(firstUsableFrame, frames-firstUsableFrame),
		rep:   rep,

		munmapPageCycles: cfg.InstrCycles(cfg.Cost.MunmapPerPageInstrs),
		buddyFreeCycles:  cfg.InstrCycles(cfg.Cost.BuddyFreeInstrs),
	}
}

// Stats returns a copy of the counters.
func (k *Kernel) Stats() Stats { return k.stats }

// KernelMMCycles returns Stats().KernelMMCycles() without copying Stats.
func (k *Kernel) KernelMMCycles() uint64 { return k.stats.KernelMMCycles() }

// FreeFrames exposes remaining physical memory.
func (k *Kernel) FreeFrames() uint64 { return k.buddy.FreeFrames() }

// NewAddressSpace creates a process address space. One metadata frame is
// charged to the kernel for VMA bookkeeping. On an exhausted machine the
// error wraps simerr.ErrOutOfMemory.
func (k *Kernel) NewAddressSpace() (*AddressSpace, error) {
	frame, err := k.allocFrame(0)
	if err != nil {
		return nil, simerr.Wrap(err, "new-address-space")
	}
	k.stats.KernelPagesAllocated++
	return &AddressSpace{
		k:         k,
		pt:        pagetable.New(&k.nodes, nil),
		cursor:    mmapBaseVPN,
		metaFrame: frame,
	}, nil
}

// DestroyAddressSpace tears down an address space without charging cycles:
// every mapped data page is returned to the buddy allocator, page-table
// pages are reaped, and the VMA metadata frame is freed. It is the
// error-path and end-of-run counterpart to ReleaseAll — safe on partially
// built or already-released address spaces, and idempotent. TLB entries are
// NOT invalidated here (no shootdown cost model applies off the simulated
// path); the machine flushes its TLBs after destroying an address space.
func (k *Kernel) DestroyAddressSpace(as *AddressSpace) error {
	if as == nil {
		return nil
	}
	as.mutated = true
	var firstErr error
	for _, v := range as.vmas {
		for vpn := v.startVPN; vpn < v.endVPN; vpn++ {
			pfn, _, present := as.pt.Clear(vpn, nopMem{})
			if !present {
				continue
			}
			if err := k.buddy.Free(pfn); err != nil && firstErr == nil {
				firstErr = err
			}
			as.residentPages--
		}
	}
	as.vmas = as.vmas[:0]
	k.reapEmpty(&as.pt)
	if as.metaFrame != 0 {
		if err := k.buddy.Free(as.metaFrame); err != nil && firstErr == nil {
			firstErr = err
		}
		as.metaFrame = 0
	}
	return firstErr
}

// vmaAccess charges the memory traffic of touching the VMA structures
// (interval-tree node reads/writes), n accesses wide.
func (as *AddressSpace) vmaAccess(n int, write bool) uint64 {
	var cycles uint64
	base := as.metaFrame << config.PageShift
	for i := 0; i < n; i++ {
		cycles += as.k.mem.Access(base+uint64(i%64)*config.LineSize, write)
	}
	return cycles
}

// findVMA returns the VMA covering vpn, if any.
func (as *AddressSpace) findVMA(vpn uint64) (int, bool) {
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].endVPN > vpn })
	if i < len(as.vmas) && as.vmas[i].startVPN <= vpn {
		return i, true
	}
	return i, false
}

// Mmap creates an anonymous private mapping of length bytes and returns its
// virtual address and the syscall's cycle cost. With populate set
// (MAP_POPULATE, Section 6.6) all pages are backed eagerly.
func (k *Kernel) Mmap(as *AddressSpace, length uint64, populate bool) (va uint64, cycles uint64, err error) {
	if length == 0 {
		return 0, 0, errors.New("kernel: mmap of zero length")
	}
	populate = populate || k.forcePopulate
	pages := (length + config.PageSize - 1) >> config.PageShift
	cycles = k.cfg.Cost.SyscallEntryExitCycles
	cycles += k.cfg.InstrCycles(k.cfg.Cost.MmapBaseInstrs)
	cycles += as.vmaAccess(6, true)

	as.mutated = true
	start := as.cursor
	as.cursor += pages
	// The cursor only grows, so appending keeps the list sorted.
	as.vmas = append(as.vmas, vma{startVPN: start, endVPN: start + pages, populate: populate})
	k.stats.Mmaps++
	// VMA metadata (vm_area_struct, anon_vma, rmap) comes from kernel
	// slabs; charge one kernel page per vmasPerSlabPage mappings created.
	as.vmasCreated++
	if as.vmasCreated%vmasPerSlabPage == 1 {
		k.stats.KernelPagesAllocated++
	}

	if populate {
		for vpn := start; vpn < start+pages; vpn++ {
			c, err := k.populatePage(as, vpn)
			if err != nil {
				// Record the work performed before the failure so an
				// exhausted run still reports the syscall activity that
				// caused it. The partially populated mapping stays in the
				// address space; DestroyAddressSpace reclaims it.
				k.stats.SyscallCycles += cycles
				return 0, cycles, simerr.WrapVA(err, "mmap-populate", vpn<<config.PageShift)
			}
			// Populating still pays per-page charging work (memcg, rmap)
			// that the fault handler would otherwise do; only the trap is
			// saved.
			cycles += c + k.cfg.InstrCycles(1800)
		}
	}
	k.stats.SyscallCycles += cycles
	if k.probed {
		k.probe.Count(telemetry.CtrMmap, 1, cycles)
	}
	return start << config.PageShift, cycles, nil
}

// populatePage allocates, zeroes, and maps one page (no trap cost). The
// error wraps simerr.ErrOutOfMemory when either the data frame or a
// page-table frame cannot be allocated.
func (k *Kernel) populatePage(as *AddressSpace, vpn uint64) (cycles uint64, err error) {
	as.mutated = true
	frame, err := k.allocFrame(0)
	if err != nil {
		return 0, err
	}
	cycles += k.cfg.InstrCycles(k.cfg.Cost.BuddyAllocInstrs)
	cycles += k.zeroPage(frame)
	k.stats.ZeroedPages++
	c, err := as.pt.Install(vpn, frame, k.mem, k.newPTNode)
	cycles += c
	if err != nil {
		// The data frame was never mapped; hand it straight back.
		if ferr := k.buddy.Free(frame); ferr != nil {
			return cycles, errors.Join(err, ferr)
		}
		return cycles, err
	}
	k.stats.UserPagesAllocated++
	as.residentPages++
	if as.residentPages > as.peakResident {
		as.peakResident = as.residentPages
	}
	return cycles, nil
}

// Munmap removes the mapping at va (which must be a mapping start) and
// returns the syscall's cycle cost: VMA teardown, per-page PTE clears,
// physical frees, page-table reaping, and TLB shootdowns.
func (k *Kernel) Munmap(as *AddressSpace, va, length uint64) (cycles uint64, err error) {
	startVPN := va >> config.PageShift
	pages := (length + config.PageSize - 1) >> config.PageShift
	i, ok := as.findVMA(startVPN)
	if !ok {
		return 0, fmt.Errorf("kernel: munmap of unmapped address %#x", va)
	}
	v := as.vmas[i]
	if v.startVPN != startVPN || v.endVPN != startVPN+pages {
		return 0, fmt.Errorf("kernel: partial munmap unsupported: vma [%#x,%#x) request [%#x,%#x)",
			v.startVPN, v.endVPN, startVPN, startVPN+pages)
	}

	as.mutated = true
	cycles = k.cfg.Cost.SyscallEntryExitCycles
	cycles += k.cfg.InstrCycles(k.cfg.Cost.MunmapBaseInstrs)
	cycles += as.vmaAccess(6, true)

	// Clear the range in runs (DESIGN.md §15), fast-forwarding each run's
	// repeated accesses as L1 hits when the hierarchy can.
	c, err := as.pt.ClearRange(startVPN, startVPN+pages, k.mem, k.rep,
		func(vpn, pfn uint64) (uint64, error) { return k.unmapPage(as, vpn, pfn) })
	cycles += c
	if ferr := k.flushUnmapped(); err == nil {
		err = ferr
	}
	if err != nil {
		return cycles, err
	}
	cycles += k.reapEmpty(&as.pt)

	as.vmas = append(as.vmas[:i], as.vmas[i+1:]...)
	k.stats.Munmaps++
	k.stats.SyscallCycles += cycles
	if k.probed {
		k.probe.Count(telemetry.CtrMunmap, 1, cycles)
	}
	return cycles, nil
}

// unmapPage returns a cleared PTE's frame to the buddy allocator and shoots
// down its translation, returning the per-page instruction cycles. Frames
// that are allocated order-0 blocks (every data page) collect into a run of
// consecutive PFNs that is freed at once when it breaks (FreeRun): nothing
// else touches the buddy allocator until Munmap flushes it. Any other frame
// flushes the run and goes through Free, which reports the error.
func (k *Kernel) unmapPage(as *AddressSpace, vpn, pfn uint64) (uint64, error) {
	if k.unmapN > 0 && pfn == k.unmapStart+k.unmapN && k.buddy.allocatedSingles(pfn, 1) {
		k.unmapN++
	} else {
		// The run breaks. Free it first, so pfn is checked against the
		// buddy state per-frame frees would have left.
		if err := k.flushUnmapped(); err != nil {
			return k.munmapPageCycles, err
		}
		if k.buddy.allocatedSingles(pfn, 1) {
			k.unmapStart, k.unmapN = pfn, 1
		} else if err := k.buddy.Free(pfn); err != nil {
			return k.munmapPageCycles, err
		}
	}
	as.residentPages--
	// Count only dispatched shootdowns, keeping this counter equal to the
	// TLB system's receive-side Stats().Shootdowns.
	if as.Shootdown != nil {
		as.Shootdown(vpn)
		k.stats.Shootdowns++
	}
	return k.munmapPageCycles + k.buddyFreeCycles, nil
}

// flushUnmapped frees the pending run of unmapped frames.
func (k *Kernel) flushUnmapped() error {
	if k.unmapN == 0 {
		return nil
	}
	n := k.unmapN
	k.unmapN = 0
	return k.buddy.FreeRun(k.unmapStart, n)
}

// ReleaseAll tears down every mapping in the address space — the OS
// batch-free at function exit the paper identifies for long-lived
// allocations. Returns the total cycle cost.
func (k *Kernel) ReleaseAll(as *AddressSpace) (cycles uint64, err error) {
	for len(as.vmas) > 0 {
		v := as.vmas[0]
		c, err := k.Munmap(as, v.startVPN<<config.PageShift, (v.endVPN-v.startVPN)<<config.PageShift)
		cycles += c
		if err != nil {
			return cycles, err
		}
	}
	return cycles, nil
}

// Walk implements tlb.Walker for the address space: a hardware page walk
// that, on a non-present PTE inside a valid VMA, takes a page fault and
// runs the kernel handler (trap, VMA lookup, allocation, zeroing, install).
// The error distinguishes a genuine segfault (no VMA covers the address,
// wraps simerr.ErrSegfault) from an allocation failure inside the fault
// handler (wraps simerr.ErrOutOfMemory).
func (as *AddressSpace) Walk(vpn uint64) (pfn uint64, cycles uint64, err error) {
	k := as.k
	pfn, walkCycles, present := as.pt.Walk(vpn, k.mem)
	cycles = walkCycles
	if present {
		return pfn, cycles, nil
	}
	// Page fault path.
	if _, covered := as.findVMA(vpn); !covered {
		return 0, cycles, simerr.WrapVA(simerr.ErrSegfault, "page-walk", vpn<<config.PageShift)
	}
	faultCycles := k.cfg.Cost.PageFaultTrapCycles
	faultCycles += k.cfg.InstrCycles(k.cfg.Cost.PageFaultHandlerInstrs)
	faultCycles += as.vmaAccess(4, false)
	c, perr := k.populatePage(as, vpn)
	faultCycles += c
	// The fault happened and its handler ran whether or not the allocation
	// succeeded: count it either way, so exhausted runs report the fault
	// activity that drove them out of memory.
	k.stats.PageFaults++
	k.stats.FaultCycles += faultCycles
	cycles += faultCycles
	if k.probed {
		k.probe.Count(telemetry.CtrPageFault, 1, faultCycles)
	}
	if perr != nil {
		return 0, cycles, simerr.WrapVA(perr, "page-fault", vpn<<config.PageShift)
	}
	// Re-walk is folded into the install cost (the handler returns the PFN).
	pfn, _, _ = as.pt.Walk(vpn, nopMem{})
	return pfn, cycles, nil
}

// ResidentPages returns the current number of mapped data pages.
func (as *AddressSpace) ResidentPages() uint64 { return as.residentPages }

// PeakResidentPages returns the high-water mark of mapped data pages.
func (as *AddressSpace) PeakResidentPages() uint64 { return as.peakResident }

// MappedVPN reports whether vpn currently has a present translation,
// without charging any cycles. Used by tests and the allocators' assertions.
func (as *AddressSpace) MappedVPN(vpn uint64) bool {
	_, _, ok := as.pt.Walk(vpn, nopMem{})
	return ok
}

// CoveredVPN reports whether a VMA covers vpn (mapped or not yet faulted).
func (as *AddressSpace) CoveredVPN(vpn uint64) bool {
	_, ok := as.findVMA(vpn)
	return ok
}

// AllocPoolPages appends n physical frames to the Memento hardware page
// allocator's pool (Section 3.2: "a simple physical page pool consisting of
// free physical pages replenished by the OS on-demand") and returns it. The
// replenishment happens off the function's critical path, so only the
// frames and a small bookkeeping cost are returned. On exhaustion the
// frames allocated so far are still appended, alongside an error wrapping
// simerr.ErrOutOfMemory — the caller owns them.
func (k *Kernel) AllocPoolPages(frames []uint64, n int) ([]uint64, uint64, error) {
	var cycles uint64
	for i := 0; i < n; i++ {
		f, aerr := k.allocFrame(0)
		if aerr != nil {
			return frames, cycles, simerr.Wrap(aerr, "pool-refill")
		}
		frames = append(frames, f)
		cycles += k.cfg.InstrCycles(k.cfg.Cost.BuddyAllocInstrs)
	}
	return frames, cycles, nil
}

// FreePoolPages returns frames from the Memento pool to the buddy, in list
// order; runs of consecutive ascending PFNs are freed at once (FreeRun).
func (k *Kernel) FreePoolPages(frames []uint64) error {
	for i := 0; i < len(frames); {
		j := i + 1
		for j < len(frames) && frames[j] == frames[j-1]+1 {
			j++
		}
		if err := k.buddy.FreeRun(frames[i], uint64(j-i)); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// PageTableNodes returns the machine's page-table node free list, which the
// Memento page allocator's table shares with the kernel's.
func (k *Kernel) PageTableNodes() *pagetable.FreeList { return &k.nodes }

// CountUserPage lets the Memento page allocator record data pages it backs,
// keeping Fig 11's user-page accounting comparable across stacks.
func (k *Kernel) CountUserPage(n uint64) { k.stats.UserPagesAllocated += n }

// CountKernelPage records metadata pages consumed outside the kernel proper
// (the Memento page-table pages built by the hardware), so Fig 11's
// kernel-memory accounting stays comparable across stacks.
func (k *Kernel) CountKernelPage(n uint64) { k.stats.KernelPagesAllocated += n }

// nopMem satisfies pagetable.Mem without charging cycles, for cycle-free
// re-walks.
type nopMem struct{}

func (nopMem) Access(pa uint64, write bool) uint64 { return 0 }
