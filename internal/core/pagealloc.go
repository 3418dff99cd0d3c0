package core

import (
	"fmt"

	"memento/internal/config"
	"memento/internal/kernel"
	"memento/internal/pagetable"
	"memento/internal/simerr"
)

// ErrRegionExhausted is returned when a size-class stripe runs out of
// virtual addresses. It wraps simerr.ErrRegionExhausted.
var ErrRegionExhausted = fmt.Errorf("core: memento region stripe exhausted: %w", simerr.ErrRegionExhausted)

// ErrPoolEmpty is returned when the physical page pool cannot be
// replenished. It wraps simerr.ErrOutOfMemory: an empty pool means the OS
// had no frames left to hand over.
var ErrPoolEmpty = fmt.Errorf("core: physical page pool exhausted: %w", simerr.ErrOutOfMemory)

// PageAllocStats counts hardware page allocator activity.
type PageAllocStats struct {
	// ArenaRequests counts arenas handed to the object allocator.
	ArenaRequests uint64
	// ArenaFrees counts arenas reclaimed after their last object died.
	ArenaFrees uint64
	// PagesBacked counts physical pages assigned to arena VAs.
	PagesBacked uint64
	// PagesReclaimed counts pages returned to the pool by arena frees.
	PagesReclaimed uint64
	// PeakResidentPages is the high-water mark of simultaneously backed
	// arena pages (the pricing model's memory term, §6.5).
	PeakResidentPages uint64
	// Walks counts flagged page walks serviced at the memory controller.
	Walks uint64
	// WalkBackings counts walks that allocated a page (first touch).
	WalkBackings uint64
	// WalkCycles accumulates the critical-path cycles of all flagged walks.
	WalkCycles uint64
	// BackingCycles accumulates the cycles of walks that backed a page —
	// the hardware replacement for kernel page-fault handling, attributed
	// to Fig 9's page-mgmt category.
	BackingCycles uint64
	// PoolRefills counts OS replenishments of the page pool.
	PoolRefills uint64
	// BackgroundCycles is OS work performed off the critical path
	// (pool replenishment).
	BackgroundCycles uint64
	// AACHits and AACMisses track the Arena Allocation Cache.
	AACHits, AACMisses uint64
	// TablePages is the current number of Memento page-table pages.
	TablePages uint64
	// Shootdowns counts TLB shootdowns issued on arena frees.
	Shootdowns uint64
}

// PageAllocator is Memento's hardware page allocator (Section 3.2). It
// lives at the memory controller and (i) allocates arena virtual addresses
// by bumping per-size-class pointers cached in the AAC, and (ii) backs
// arena pages with physical memory from a small pool the OS replenishes,
// building the Memento page table (rooted at the MPTR register) during
// flagged page walks.
type PageAllocator struct {
	cfg    config.Machine
	layout *Layout
	// mem is the physically-addressed memory (the cache hierarchy) the
	// allocator's page-table traffic goes through: it sits on the memory
	// controller.
	mem pagetable.Mem
	k   *kernel.Kernel

	// pool is the free physical page pool.
	pool []uint64
	// bump[c] is the next arena VA for class c (the per-size-class pointer;
	// the AAC caches the hot entries).
	bump []uint64
	// aacResident[c] marks classes whose bump pointer is AAC-resident; the
	// AAC is direct-mapped with one slot per recently used class, and with
	// 32 entries for 64 classes two classes alias per slot.
	aacSlots []int
	// pt is the MPTR-rooted Memento page table for the process. Its table
	// pages come from the pool; its nodes recycle through the kernel's
	// free list.
	pt pagetable.Table
	// shootdownVec tracks which cores have walked this address space
	// (Section 3.2's per-process hardware bit vector).
	shootdownVec uint64
	// Shootdown is invoked per reclaimed VPN so the owner invalidates TLBs.
	Shootdown func(vpn uint64)

	stats PageAllocStats
	// residentPages tracks currently backed arena pages for the peak stat.
	residentPages uint64
	// allocHook, when non-nil, may veto pool pops (fault injection);
	// poolPops counts pop attempts for its trigger. Pool refills already
	// pass through the kernel's hook; this one covers the pops that service
	// arena requests and flagged walks from an already-filled pool.
	allocHook kernel.AllocHook
	poolPops  uint64
	// Delta-snapshot state: base is the snapshot this allocator was last
	// captured to or restored from; mutated is set by every state-changing
	// entry point so an unchanged re-Snapshot is an O(1) handle reuse.
	base    *PageAllocSnapshot
	mutated bool
	// rep is mem's hit-replay fast path, nil when mem lacks it (test
	// fakes).
	rep pagetable.HitRepeater
}

// SetAllocHook attaches a fault-injection hook to the pool (nil detaches).
// It is consulted with the pool depth as the free count.
func (p *PageAllocator) SetAllocHook(h kernel.AllocHook) { p.allocHook = h }

// noteBacked updates the resident-page high-water mark.
func (p *PageAllocator) noteBacked(n uint64) {
	p.residentPages += n
	if p.residentPages > p.stats.PeakResidentPages {
		p.stats.PeakResidentPages = p.residentPages
	}
}

// NewPageAllocator builds the page allocator and fills its pool.
func NewPageAllocator(cfg config.Machine, layout *Layout, mem pagetable.Mem, k *kernel.Kernel) (*PageAllocator, error) {
	p := &PageAllocator{
		cfg:      cfg,
		layout:   layout,
		mem:      mem,
		k:        k,
		pt:       pagetable.New(k.PageTableNodes(), nil),
		bump:     make([]uint64, layout.Classes()),
		aacSlots: make([]int, cfg.Memento.AAC.Entries),
	}
	p.rep, _ = mem.(pagetable.HitRepeater)
	for c := range p.bump {
		p.bump[c] = layout.StripeStart(c)
	}
	for i := range p.aacSlots {
		p.aacSlots[i] = -1
	}
	if err := p.refillPool(cfg.Memento.PagePoolPages); err != nil {
		// The partial refill handed us frames; give them back so a failed
		// construction leaves the kernel's free-frame count untouched.
		if rerr := p.Release(); rerr != nil {
			return nil, fmt.Errorf("%w (releasing partial pool: %v)", err, rerr)
		}
		return nil, err
	}
	return p, nil
}

// refillPool asks the OS for more physical pages. This happens off the
// function's critical path (the OS replenishes on demand), so the cycles are
// recorded as background work. On failure any frames the OS did hand over
// before running dry are still added to the pool; the error wraps
// simerr.ErrOutOfMemory (and simerr.ErrFaultInjected when a kernel-side
// hook vetoed the refill).
func (p *PageAllocator) refillPool(n int) error {
	p.mutated = true
	pool, cycles, err := p.k.AllocPoolPages(p.pool, n)
	p.pool = pool
	p.stats.BackgroundCycles += cycles
	p.stats.PoolRefills++
	if err != nil {
		return fmt.Errorf("core: pool refill: %w", err)
	}
	return nil
}

// popPage takes one page from the pool, refilling when low. The error wraps
// simerr.ErrOutOfMemory.
func (p *PageAllocator) popPage() (uint64, error) {
	p.poolPops++
	if p.allocHook != nil && p.allocHook.FailFrameAlloc(p.poolPops, uint64(len(p.pool))) {
		return 0, fmt.Errorf("core: pool pop %d vetoed: %w (%w)",
			p.poolPops, simerr.ErrOutOfMemory, simerr.ErrFaultInjected)
	}
	if len(p.pool) < p.cfg.Memento.PagePoolRefillPages/4 {
		if err := p.refillPool(p.cfg.Memento.PagePoolRefillPages); err != nil && len(p.pool) == 0 {
			return 0, err
		}
	}
	if len(p.pool) == 0 {
		return 0, ErrPoolEmpty
	}
	f := p.pool[len(p.pool)-1]
	p.pool = p.pool[:len(p.pool)-1]
	return f, nil
}

// aacLookup charges the AAC access for class c and returns its latency,
// tracking hit/miss. A miss costs an extra memory access to the reserved
// per-class pointer block.
func (p *PageAllocator) aacLookup(c int) uint64 {
	slot := c % len(p.aacSlots)
	cycles := p.cfg.Memento.AAC.LatencyCycles
	if p.aacSlots[slot] == c {
		p.stats.AACHits++
		return cycles
	}
	p.stats.AACMisses++
	p.aacSlots[slot] = c
	// Fetch the pointer from the reserved memory block at the controller.
	cycles += p.mem.Access(p.pointerBlockPA(c), false)
	return cycles
}

// pointerBlockPA is the reserved memory block holding per-class bump
// pointers (Section 3.2: "the page allocator maintains per-size-class
// pointers for each core in a reserved memory block").
func (p *PageAllocator) pointerBlockPA(c int) uint64 {
	return uint64(1)<<config.PageShift + uint64(c)*8 // reserved low frame 1
}

// AllocArena hands a new arena of class c to the object allocator: bump the
// class's VA pointer, eagerly back the first page (which holds the header),
// and return the arena image. Returns the critical-path cycle cost.
func (p *PageAllocator) AllocArena(c int) (Arena, uint64, error) {
	p.mutated = true
	cycles := p.cfg.Cost.MementoArenaRequestCycles // object alloc -> controller round trip
	cycles += p.aacLookup(c)

	size := p.layout.ArenaBytes(c)
	va := p.bump[c]
	if va+size > p.layout.StripeStart(c)+p.layout.stripeBytes {
		return Arena{}, cycles, simerr.WrapVA(ErrRegionExhausted, "arena-alloc", va)
	}
	p.bump[c] = va + size

	frame, err := p.popPage()
	if err != nil {
		// Nothing was mapped: un-reserve the VA so a failed request leaves
		// the stripe exactly as it found it.
		p.bump[c] = va
		return Arena{}, cycles, simerr.WrapVA(err, "arena-alloc", va)
	}
	vpn := va >> config.PageShift
	instCycles, err := p.pt.Install(vpn, frame, p.mem, p.newTablePage)
	cycles += instCycles
	if err != nil {
		p.bump[c] = va
		p.pool = append(p.pool, frame)
		return Arena{}, cycles, simerr.WrapVA(err, "arena-alloc", va)
	}
	p.stats.PagesBacked++
	p.noteBacked(1)
	p.k.CountUserPage(1)

	a := Arena{
		BaseVA:   va,
		Class:    c,
		HeaderPA: frame << config.PageShift,
	}
	p.stats.ArenaRequests++
	return a, cycles, nil
}

// newTablePage backs a new Memento table page, the frame source of every
// install: a pool pop plus the service constant. (Each level an install
// touches also costs one memory access.)
func (p *PageAllocator) newTablePage() (frame, cycles uint64, err error) {
	frame, err = p.popPage()
	if err != nil {
		return 0, 0, err
	}
	p.stats.TablePages++
	p.k.CountKernelPage(1)
	return frame, p.cfg.Cost.MementoPageWalkServiceCycles, nil
}

// Walk services a flagged page walk for a Memento-region VPN (Section 3.2):
// valid entries are returned; invalid leaf entries trigger on-demand
// physical backing from the pool; invalid interior entries grow the table.
// It implements tlb.Walker for the machine's MMU: the error wraps
// simerr.ErrSegfault for addresses outside any handed-out arena and
// simerr.ErrOutOfMemory when first-touch backing found the pool and the OS
// both dry.
func (p *PageAllocator) Walk(vpn uint64) (pfn uint64, cycles uint64, err error) {
	va := vpn << config.PageShift
	if !p.layout.Contains(va) {
		return 0, 0, simerr.WrapVA(simerr.ErrSegfault, "memento-walk", va)
	}
	p.mutated = true
	p.stats.Walks++
	p.shootdownVec |= 1 // single-core default: core 0 has walked
	// The walk must stay within allocated arena VAs: addresses beyond the
	// bump pointer were never handed out.
	c := int((va - p.layout.MRS) / p.layout.stripeBytes)
	if va >= p.bump[c] {
		return 0, 0, simerr.WrapVA(simerr.ErrSegfault, "memento-walk", va)
	}
	pfn, walkCycles, mapped := p.pt.Walk(vpn, p.mem)
	cycles += walkCycles
	if mapped {
		p.stats.WalkCycles += cycles
		return pfn, cycles, nil
	}
	// First touch: back the page from the pool.
	frame, perr := p.popPage()
	if perr != nil {
		p.stats.WalkCycles += cycles
		return 0, cycles, simerr.WrapVA(perr, "memento-walk", va)
	}
	cycles += p.cfg.Cost.MementoPageWalkServiceCycles
	instCycles, perr := p.pt.Install(vpn, frame, p.mem, p.newTablePage)
	cycles += instCycles
	if perr != nil {
		p.pool = append(p.pool, frame)
		p.stats.WalkCycles += cycles
		return 0, cycles, simerr.WrapVA(perr, "memento-walk", va)
	}
	p.stats.PagesBacked++
	p.stats.WalkBackings++
	p.stats.WalkCycles += cycles
	p.stats.BackingCycles += cycles
	p.noteBacked(1)
	p.k.CountUserPage(1)
	return frame, cycles, nil
}

// FreeArena reclaims an arena whose last object died: walk the Memento
// table, return backing pages to the pool, invalidate PTEs, and issue TLB
// shootdowns to cores recorded in the shootdown vector.
func (p *PageAllocator) FreeArena(a Arena) uint64 {
	p.mutated = true
	startVPN := a.BaseVA >> config.PageShift
	// The same run walk as the kernel's munmap (DESIGN.md §15); reclaim
	// never fails.
	cycles, _ := p.pt.ClearRange(startVPN, startVPN+p.layout.ArenaPages(a.Class), p.mem, p.rep, p.reclaim)
	p.stats.ArenaFrees++
	return cycles
}

// reclaim returns a cleared PTE's frame to the pool and shoots down its
// translation on the cores that walked this table. It is FreeArena's
// per-page step: the pool sits at the controller, so reclaiming costs no
// cycles beyond the PTE clear, and it cannot fail.
func (p *PageAllocator) reclaim(vpn, frame uint64) (uint64, error) {
	p.pool = append(p.pool, frame)
	p.stats.PagesReclaimed++
	p.residentPages--
	if p.Shootdown != nil && p.shootdownVec != 0 {
		p.Shootdown(vpn)
		p.stats.Shootdowns++
	}
	return 0, nil
}

// Release returns the whole pool and all table pages to the OS (process
// teardown). The caller must have freed or abandoned all arenas first.
func (p *PageAllocator) Release() error {
	p.mutated = true
	// The pool, then the table's still-mapped data pages and table pages;
	// its private nodes go back to the kernel's free list.
	frames := p.pt.Drop(p.pool)
	err := p.k.FreePoolPages(frames)
	p.pool = frames[:0]
	return err
}

// Stats returns a copy of the counters.
func (p *PageAllocator) Stats() PageAllocStats { return p.stats }

// BackingCycles returns Stats().BackingCycles without copying the stats.
func (p *PageAllocator) BackingCycles() uint64 { return p.stats.BackingCycles }

// PoolSize returns the current free-pool depth.
func (p *PageAllocator) PoolSize() int { return len(p.pool) }
