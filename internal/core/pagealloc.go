package core

import (
	"fmt"
	"sync"

	"memento/internal/config"
	"memento/internal/kernel"
	"memento/internal/simerr"
)

// Mem is physically-addressed memory (the cache hierarchy); the page
// allocator sits on the memory controller and its page-table traffic goes
// through it.
type Mem interface {
	Access(pa uint64, write bool) uint64
}

// hitRepeater is the cache hierarchy's fast path for repeating an access
// tuple whose lines are all L1-resident (cache.Hierarchy.RepeatHits).
type hitRepeater interface {
	RepeatHits(pas []uint64, writes, rounds uint64) (uint64, bool)
}

// ErrRegionExhausted is returned when a size-class stripe runs out of
// virtual addresses. It wraps simerr.ErrRegionExhausted.
var ErrRegionExhausted = fmt.Errorf("core: memento region stripe exhausted: %w", simerr.ErrRegionExhausted)

// ErrPoolEmpty is returned when the physical page pool cannot be
// replenished. It wraps simerr.ErrOutOfMemory: an empty pool means the OS
// had no frames left to hand over.
var ErrPoolEmpty = fmt.Errorf("core: physical page pool exhausted: %w", simerr.ErrOutOfMemory)

// AllocHook intercepts page-pool pops for fault injection, mirroring
// kernel.AllocHook on the hardware side (see internal/faultinject). Pool
// refills already pass through the kernel's frame-allocation hook; this one
// additionally covers the pops that service arena requests and flagged
// walks from an already-filled pool.
type AllocHook interface {
	// FailFrameAlloc is consulted before the nth (1-based) pool pop with the
	// current pool depth; returning true fails the pop as if the pool and
	// the OS were both exhausted.
	FailFrameAlloc(n uint64, free uint64) bool
}

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

// mptNode is one node of the hardware-built Memento page table. The table
// pages come from the physical page pool, so walks touch real simulated
// addresses.
//
// shared marks a node captured into a PageAllocSnapshot: it is frozen and
// may be aliased by any number of snapshots and live allocators. Mutators
// clone a shared node (and the path above it) before writing —
// copy-on-write path copying. A shared node's descendants are always shared
// (the capture walk marks whole subtrees, and a mutator never links a
// private child under a shared parent), so one flag check per level
// suffices.
type mptNode struct {
	pfn      uint64
	children []*mptNode
	pte      []uint64 // leaf: pfn+1, 0 = invalid
	shared   bool
}

const mptLevels = 4
const mptFanout = 512

// mptLeaves and mptDirs recycle private Memento table nodes, so a warm
// invocation's table churn reuses 4 KiB entry arrays instead of allocating
// them. Release hands back the private nodes of a torn-down table; a
// private node has one parent and no snapshot holds it, so once the table
// is dropped nothing can reach it. Snapshot-frozen (shared) nodes are never
// recycled, since other snapshots and machines may still read them. A
// PageAllocator lives for one process, so the pools are per package.
var (
	mptLeaves = sync.Pool{New: func() any { return &mptNode{pte: make([]uint64, mptFanout)} }}
	mptDirs   = sync.Pool{New: func() any { return &mptNode{children: make([]*mptNode, mptFanout)} }}
)

// getMPT returns a private node of the given kind; its entries are stale.
func getMPT(leaf bool) *mptNode {
	if leaf {
		return mptLeaves.Get().(*mptNode)
	}
	return mptDirs.Get().(*mptNode)
}

// putMPT recycles n unless it is shared.
func putMPT(n *mptNode) {
	switch {
	case n.shared:
	case n.pte != nil:
		mptLeaves.Put(n)
	default:
		mptDirs.Put(n)
	}
}

// freshMPT returns an empty private node backed by frame pfn.
func freshMPT(pfn uint64, leaf bool) *mptNode {
	n := getMPT(leaf)
	n.pfn = pfn
	clear(n.pte)
	clear(n.children)
	return n
}

// cloneMPTShallow returns a private copy of n: same pfn and entries, child
// pointers still aliasing the (shared) originals.
func cloneMPTShallow(n *mptNode) *mptNode {
	c := getMPT(n.pte != nil)
	c.pfn = n.pfn
	copy(c.pte, n.pte)
	copy(c.children, n.children)
	return c
}

// markSharedMPT freezes a subtree for snapshot aliasing, pruning at
// already-shared (immutable) nodes.
func markSharedMPT(n *mptNode) {
	if n == nil || n.shared {
		return
	}
	n.shared = true
	for _, c := range n.children {
		markSharedMPT(c)
	}
}

// countMPTBytes returns the simulated size of a subtree: one page per node.
func countMPTBytes(n *mptNode) uint64 {
	if n == nil {
		return 0
	}
	b := uint64(config.PageSize)
	for _, c := range n.children {
		b += countMPTBytes(c)
	}
	return b
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
	mem    Mem
	k      *kernel.Kernel

	// pool is the free physical page pool.
	pool []uint64
	// bump[c] is the next arena VA for class c (the per-size-class pointer;
	// the AAC caches the hot entries).
	bump []uint64
	// aacResident[c] marks classes whose bump pointer is AAC-resident; the
	// AAC is direct-mapped with one slot per recently used class, and with
	// 32 entries for 64 classes two classes alias per slot.
	aacSlots []int
	// root is the MPTR-rooted Memento page table for the process.
	root *mptNode
	// shootdownVec tracks which cores have walked this address space
	// (Section 3.2's per-process hardware bit vector).
	shootdownVec uint64
	// Shootdown is invoked per reclaimed VPN so the owner invalidates TLBs.
	Shootdown func(vpn uint64)

	stats PageAllocStats
	// residentPages tracks currently backed arena pages for the peak stat.
	residentPages uint64
	// allocHook, when non-nil, may veto pool pops (fault injection);
	// poolPops counts pop attempts for its trigger.
	allocHook AllocHook
	poolPops  uint64
	// Delta-snapshot state: base is the snapshot this allocator was last
	// captured to or restored from; mutated is set by every state-changing
	// entry point so an unchanged re-Snapshot is an O(1) handle reuse.
	base    *PageAllocSnapshot
	mutated bool
	// rep is mem's hit-replay fast path, nil when mem lacks it (test
	// fakes); acc holds the access tuple of the teardown run in flight.
	rep hitRepeater
	acc [mptLevels]uint64
}

// SetAllocHook attaches a fault-injection hook to the pool (nil detaches).
func (p *PageAllocator) SetAllocHook(h AllocHook) { p.allocHook = h }

// noteBacked updates the resident-page high-water mark.
func (p *PageAllocator) noteBacked(n uint64) {
	p.residentPages += n
	if p.residentPages > p.stats.PeakResidentPages {
		p.stats.PeakResidentPages = p.residentPages
	}
}

// NewPageAllocator builds the page allocator and fills its pool.
func NewPageAllocator(cfg config.Machine, layout *Layout, mem Mem, k *kernel.Kernel) (*PageAllocator, error) {
	p := &PageAllocator{
		cfg:      cfg,
		layout:   layout,
		mem:      mem,
		k:        k,
		bump:     make([]uint64, layout.Classes()),
		aacSlots: make([]int, cfg.Memento.AAC.Entries),
	}
	p.rep, _ = mem.(hitRepeater)
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
	frames, cycles, err := p.k.AllocPoolPages(n)
	p.pool = append(p.pool, frames...)
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
func (p *PageAllocator) AllocArena(c int) (*Arena, uint64, error) {
	p.mutated = true
	cycles := p.cfg.Cost.MementoArenaRequestCycles // object alloc -> controller round trip
	cycles += p.aacLookup(c)

	size := p.layout.ArenaBytes(c)
	va := p.bump[c]
	if va+size > p.layout.StripeStart(c)+p.layout.stripeBytes {
		return nil, cycles, simerr.WrapVA(ErrRegionExhausted, "arena-alloc", va)
	}
	p.bump[c] = va + size

	frame, err := p.popPage()
	if err != nil {
		// Nothing was mapped: un-reserve the VA so a failed request leaves
		// the stripe exactly as it found it.
		p.bump[c] = va
		return nil, cycles, simerr.WrapVA(err, "arena-alloc", va)
	}
	vpn := va >> config.PageShift
	instCycles, err := p.installMapping(vpn, frame)
	cycles += instCycles
	if err != nil {
		p.bump[c] = va
		p.pool = append(p.pool, frame)
		return nil, cycles, simerr.WrapVA(err, "arena-alloc", va)
	}
	p.stats.PagesBacked++
	p.noteBacked(1)
	p.k.CountUserPage(1)

	a := &Arena{
		BaseVA:   va,
		Class:    c,
		HeaderPA: frame << config.PageShift,
	}
	p.stats.ArenaRequests++
	return a, cycles, nil
}

// installMapping adds vpn -> frame to the Memento page table, creating
// levels from the pool as needed. Each level touched costs one memory
// access; new table pages cost a pool pop plus the service constant.
func (p *PageAllocator) installMapping(vpn, frame uint64) (uint64, error) {
	var cycles uint64
	newNode := func(leaf bool) (*mptNode, error) {
		f, err := p.popPage()
		if err != nil {
			return nil, err
		}
		cycles += p.cfg.Cost.MementoPageWalkServiceCycles
		p.stats.TablePages++
		p.k.CountKernelPage(1)
		return freshMPT(f, leaf), nil
	}
	if p.root == nil {
		n, err := newNode(false)
		if err != nil {
			return cycles, err
		}
		p.root = n
	} else if p.root.shared {
		p.root = cloneMPTShallow(p.root)
	}
	node := p.root
	for level := mptLevels - 1; level >= 1; level-- {
		idx := (vpn >> uint(9*level)) & (mptFanout - 1)
		cycles += p.mem.Access(node.pfn<<config.PageShift+idx*8, false)
		if node.children[idx] == nil {
			n, err := newNode(level == 1)
			if err != nil {
				return cycles, err
			}
			cycles += p.mem.Access(node.pfn<<config.PageShift+idx*8, true)
			node.children[idx] = n
		} else if node.children[idx].shared {
			// Copy-on-write: privatize the path before the PTE write below.
			// Host-side bookkeeping only — the simulated frame is unchanged,
			// so no cycles are charged.
			node.children[idx] = cloneMPTShallow(node.children[idx])
		}
		node = node.children[idx]
	}
	idx := vpn & (mptFanout - 1)
	cycles += p.mem.Access(node.pfn<<config.PageShift+idx*8, true)
	node.pte[idx] = frame + 1
	return cycles, nil
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
	pfn, walkCycles, mapped := p.lookup(vpn)
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
	instCycles, perr := p.installMapping(vpn, frame)
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

// lookup walks the Memento table read-only.
func (p *PageAllocator) lookup(vpn uint64) (pfn uint64, cycles uint64, ok bool) {
	node := p.root
	if node == nil {
		return 0, 0, false
	}
	for level := mptLevels - 1; level >= 1; level-- {
		idx := (vpn >> uint(9*level)) & (mptFanout - 1)
		cycles += p.mem.Access(node.pfn<<config.PageShift+idx*8, false)
		node = node.children[idx]
		if node == nil {
			return 0, cycles, false
		}
	}
	idx := vpn & (mptFanout - 1)
	cycles += p.mem.Access(node.pfn<<config.PageShift+idx*8, false)
	if node.pte[idx] == 0 {
		return 0, cycles, false
	}
	return node.pte[idx] - 1, cycles, true
}

// FreeArena reclaims an arena whose last object died: walk the Memento
// table, return backing pages to the pool, invalidate PTEs, and issue TLB
// shootdowns to cores recorded in the shootdown vector.
func (p *PageAllocator) FreeArena(a *Arena) uint64 {
	p.mutated = true
	var cycles uint64
	startVPN := a.BaseVA >> config.PageShift
	endVPN := startVPN + p.layout.ArenaPages(a.Class)
	// The same run walk as the kernel's munmap (DESIGN.md §15): a run's
	// first VPN is cleared through mem, the rest fast-forward as L1 hits
	// when the hierarchy can, else they are cleared one by one.
	for vpn := startVPN; vpn < endVPN; {
		n, m, leaf := p.nextRun(vpn, endVPN)
		next := vpn + n
		cycles += p.clearOne(vpn)
		vpn++
		if vpn < next && p.rep != nil {
			var writes uint64
			if leaf != nil {
				writes = 1 << (m - 1)
			}
			if c, ok := p.rep.RepeatHits(p.acc[:m], writes, next-vpn); ok {
				cycles += c
				if leaf != nil && leaf.shared {
					// The first clear privatized the path.
					leaf = p.ownPath(vpn)
				}
				for ; leaf != nil && vpn < next; vpn++ {
					e := &leaf.pte[vpn&(mptFanout-1)]
					frame := *e - 1
					*e = 0
					p.reclaim(vpn, frame)
				}
				vpn = next
			}
		}
		for ; vpn < next; vpn++ {
			cycles += p.clearOne(vpn)
		}
	}
	p.stats.ArenaFrees++
	return cycles
}

// clearOne is the per-VPN reference for FreeArena: the PTE clear through
// mem, then the page's reclamation. It returns the cycles.
func (p *PageAllocator) clearOne(vpn uint64) uint64 {
	frame, c, mapped := p.clear(vpn)
	if mapped {
		p.reclaim(vpn, frame)
	}
	return c
}

// reclaim returns a cleared PTE's frame to the pool and shoots down its
// translation on the cores that walked this table.
func (p *PageAllocator) reclaim(vpn, frame uint64) {
	p.pool = append(p.pool, frame)
	p.stats.PagesReclaimed++
	p.residentPages--
	if p.Shootdown != nil && p.shootdownVec != 0 {
		p.Shootdown(vpn)
		p.stats.Shootdowns++
	}
}

// mptPTEsPerLine is the number of PTEs in one 64-byte cache line.
const mptPTEsPerLine = config.LineSize / 8

// nextRun measures the FreeArena run at vpn (< end), as the kernel's page
// table does: the n consecutive VPNs whose clear issues the same accesses
// with the same outcome, written to p.acc[:m], and the run's leaf when its
// PTEs are present. Host bookkeeping only.
func (p *PageAllocator) nextRun(vpn, end uint64) (n uint64, m int, leaf *mptNode) {
	node := p.root
	if node == nil {
		return end - vpn, 0, nil
	}
	for level := mptLevels - 1; level >= 1; level-- {
		idx := (vpn >> uint(9*level)) & (mptFanout - 1)
		p.acc[m] = node.pfn<<config.PageShift + idx*8
		m++
		if node = node.children[idx]; node == nil {
			shift := uint(9 * level)
			return min(end, (vpn>>shift+1)<<shift) - vpn, m, nil
		}
	}
	idx := vpn & (mptFanout - 1)
	lim := min(end-vpn, mptFanout-idx)
	present := node.pte[idx] != 0
	if present {
		p.acc[m] = node.pfn<<config.PageShift + idx*8
		m++
		lim = min(lim, mptPTEsPerLine-idx%mptPTEsPerLine)
		leaf = node
	}
	n = 1
	for n < lim && (node.pte[idx+n] != 0) == present {
		n++
	}
	return n, m, leaf
}

// clear invalidates the PTE for vpn, returning the frame it held.
func (p *PageAllocator) clear(vpn uint64) (frame uint64, cycles uint64, ok bool) {
	node := p.root
	if node == nil {
		return 0, 0, false
	}
	for level := mptLevels - 1; level >= 1; level-- {
		idx := (vpn >> uint(9*level)) & (mptFanout - 1)
		cycles += p.mem.Access(node.pfn<<config.PageShift+idx*8, false)
		node = node.children[idx]
		if node == nil {
			return 0, cycles, false
		}
	}
	idx := vpn & (mptFanout - 1)
	if node.pte[idx] == 0 {
		return 0, cycles, false
	}
	frame = node.pte[idx] - 1
	if node.shared {
		// Copy-on-write: a shared leaf implies a shared path (a private node
		// is never linked under a shared parent), so privatize the whole
		// path before the PTE write. Host bookkeeping only, no cycles.
		node = p.ownPath(vpn)
	}
	node.pte[idx] = 0
	cycles += p.mem.Access(node.pfn<<config.PageShift+idx*8, true)
	return frame, cycles, true
}

// ownPath privatizes every node on vpn's walk path, cloning shared nodes,
// and returns the (now private) leaf. Callers must know the path exists.
func (p *PageAllocator) ownPath(vpn uint64) *mptNode {
	if p.root.shared {
		p.root = cloneMPTShallow(p.root)
	}
	node := p.root
	for level := mptLevels - 1; level >= 1; level-- {
		idx := (vpn >> uint(9*level)) & (mptFanout - 1)
		if node.children[idx].shared {
			node.children[idx] = cloneMPTShallow(node.children[idx])
		}
		node = node.children[idx]
	}
	return node
}

// Release returns the whole pool and all table pages to the OS (process
// teardown). The caller must have freed or abandoned all arenas first.
func (p *PageAllocator) Release() error {
	p.mutated = true
	frames := p.pool
	p.pool = nil
	var collect func(n *mptNode)
	collect = func(n *mptNode) {
		if n == nil {
			return
		}
		for _, c := range n.children {
			collect(c)
		}
		for _, e := range n.pte {
			if e != 0 {
				frames = append(frames, e-1) // still-mapped data pages
			}
		}
		frames = append(frames, n.pfn)
		putMPT(n)
	}
	collect(p.root)
	p.root = nil
	return p.k.FreePoolPages(frames)
}

// Stats returns a copy of the counters.
func (p *PageAllocator) Stats() PageAllocStats { return p.stats }

// BackingCycles returns Stats().BackingCycles without copying the stats.
func (p *PageAllocator) BackingCycles() uint64 { return p.stats.BackingCycles }

// PoolSize returns the current free-pool depth.
func (p *PageAllocator) PoolSize() int { return len(p.pool) }
