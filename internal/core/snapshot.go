package core

import (
	"memento/internal/config"
	"memento/internal/kernel"
	"memento/internal/pagetable"
)

// Snapshots of the Memento hardware split along mutability lines. The
// MPTR-rooted page table is the same radix tree as the kernel's
// (internal/pagetable), so capture freezes it in place and both the
// snapshot and any live allocator restored from it alias the nodes until a
// mutation clones the affected path — copy-on-write. The arena graph, by
// contrast, is a doubly-linked structure the object allocator rewires
// constantly, so it stays deep-copied on capture and on every restore.
// Attachment state (Shootdown callbacks, fault-injection hooks) is never
// captured; the caller re-wires it.

// paScalarBytes covers shootdownVec, residentPages, and poolPops.
const paScalarBytes = 3 * 8

// paStatsBytes is the wire size of PageAllocStats (15 counters).
const paStatsBytes = 15 * 8

// PageAllocSnapshot is an immutable capture of the hardware page allocator's
// state: the free pool, the per-class bump pointers, the AAC residency
// slots, the Memento page table (aliased, copy-on-write), and the counters.
type PageAllocSnapshot struct {
	pool          []uint64
	bump          []uint64
	aacSlots      []int
	root          *pagetable.Node
	shootdownVec  uint64
	stats         PageAllocStats
	residentPages uint64
	poolPops      uint64

	// treeBytes is the simulated size of the aliased Memento page table,
	// counted once at capture.
	treeBytes uint64
}

// Bytes returns the full size of the captured state — what a deep-copy
// restore would cost.
func (s *PageAllocSnapshot) Bytes() uint64 {
	return s.treeBytes + s.CopiedBytes()
}

// CopiedBytes returns the bytes a restore actually copies: the pool, the
// bump pointers, the AAC slots, and the scalars.
func (s *PageAllocSnapshot) CopiedBytes() uint64 {
	return uint64(len(s.pool))*8 + uint64(len(s.bump))*8 +
		uint64(len(s.aacSlots))*8 + paScalarBytes + paStatsBytes
}

// SharedBytes returns the bytes a restore aliases instead of copying (the
// frozen Memento page table).
func (s *PageAllocSnapshot) SharedBytes() uint64 { return s.treeBytes }

// ResidentPages returns the captured hardware-backed arena page count —
// part of the post-setup image warm-started instances share copy-on-write.
func (s *PageAllocSnapshot) ResidentPages() uint64 { return s.residentPages }

// Snapshot captures the page allocator. The returned value is immutable and
// may be restored any number of times. The Memento page table is frozen and
// aliased rather than cloned; an unchanged re-Snapshot is an O(1) handle
// reuse.
func (p *PageAllocator) Snapshot() *PageAllocSnapshot {
	if !p.mutated && p.base != nil {
		return p.base
	}
	root, treeBytes := p.pt.Freeze()
	s := &PageAllocSnapshot{
		pool:          append([]uint64(nil), p.pool...),
		bump:          append([]uint64(nil), p.bump...),
		aacSlots:      append([]int(nil), p.aacSlots...),
		root:          root,
		shootdownVec:  p.shootdownVec,
		stats:         p.stats,
		residentPages: p.residentPages,
		poolPops:      p.poolPops,
		treeBytes:     treeBytes,
	}
	p.base = s
	p.mutated = false
	return s
}

// Restore replaces the allocator's state with that of s, returning the bytes
// copied. The page table is aliased (copy-on-write); the pool, pointers, and
// counters are copied. Restoring the base snapshot of an unmutated allocator
// is free. The Shootdown callback and alloc hook are left as-is (the caller
// owns that wiring).
func (p *PageAllocator) Restore(s *PageAllocSnapshot) uint64 {
	if s == p.base && !p.mutated {
		return 0
	}
	p.pool = append(p.pool[:0], s.pool...)
	p.bump = append(p.bump[:0], s.bump...)
	p.aacSlots = append(p.aacSlots[:0], s.aacSlots...)
	p.pt = pagetable.New(p.k.PageTableNodes(), s.root)
	p.shootdownVec = s.shootdownVec
	p.stats = s.stats
	p.residentPages = s.residentPages
	p.poolPops = s.poolPops
	p.base = s
	p.mutated = false
	return s.CopiedBytes()
}

// RestorePageAllocator materializes a page allocator directly from a
// snapshot, without refilling the pool or charging any simulated work: the
// snapshot's frames are already accounted as allocated in the kernel
// snapshot taken alongside it. The page table is aliased (copy-on-write).
// The caller wires Shootdown and any alloc hook afterwards.
func RestorePageAllocator(cfg config.Machine, layout *Layout, mem pagetable.Mem, k *kernel.Kernel, s *PageAllocSnapshot) *PageAllocator {
	p := &PageAllocator{cfg: cfg, layout: layout, mem: mem, k: k}
	p.rep, _ = mem.(pagetable.HitRepeater)
	p.Restore(s)
	return p
}

// cloneArenaGraph deep-copies every arena in the index, preserving the
// prev/next list links and membership flags. Links are remapped via the
// base-VA index, which covers every linked arena (list members and cached
// HOT arenas are always live and indexed).
func cloneArenaGraph(src map[uint64]*Arena) map[uint64]*Arena {
	out := make(map[uint64]*Arena, len(src))
	for base, a := range src {
		out[base] = &Arena{
			BaseVA:     a.BaseVA,
			Class:      a.Class,
			HeaderPA:   a.HeaderPA,
			bitmap:     a.bitmap,
			live:       a.live,
			BypassCtr:  a.BypassCtr,
			onFullList: a.onFullList,
			linked:     a.linked,
		}
	}
	for _, a := range src {
		c := out[a.BaseVA]
		if a.prev != nil {
			c.prev = out[a.prev.BaseVA]
		}
		if a.next != nil {
			c.next = out[a.next.BaseVA]
		}
	}
	return out
}

// hotSnap records one HOT entry by arena base VA: the cached arena and the
// available/full list heads and lengths. Pointers are resolved against the
// cloned arena graph on restore.
type hotSnap struct {
	arenaBase uint64
	hasArena  bool
	availHead uint64
	hasAvail  bool
	fullHead  uint64
	hasFull   bool
	availN    int
	fullN     int
}

// arenaSnapBytes is the captured size of one arena: base VA, class, header
// PA, the object bitmap, live count, bypass counter, two list links, and the
// two membership flags.
const arenaSnapBytes = 8 + 8 + 8 + bitmapWords*8 + 8 + 2 + 16 + 2

// hotSnapBytes is the wire size of one hotSnap record.
const hotSnapBytes = 3*8 + 2*8 + 3

// unitStatsBytes is the wire size of the Stats struct (15 counters).
const unitStatsBytes = 15 * 8

// UnitSnapshot is a deep copy of the object allocator's state: the arena
// graph, the HOT entries, the cross-thread free buffer, and the counters.
// Unlike the page-table snapshots it is copied in full on every restore —
// the arena graph's intrusive links make aliasing unsafe.
type UnitSnapshot struct {
	arenas       map[uint64]*Arena
	hot          []hotSnap
	crossFreeBuf []uint64
	stats        Stats
}

// Bytes returns the full size of the captured state; a restore copies all
// of it (UnitSnapshot has no shared portion).
func (s *UnitSnapshot) Bytes() uint64 {
	return uint64(len(s.arenas))*arenaSnapBytes + uint64(len(s.hot))*hotSnapBytes +
		uint64(len(s.crossFreeBuf))*8 + unitStatsBytes
}

// Snapshot captures the unit. The returned value is immutable and may be
// restored any number of times.
func (u *Unit) Snapshot() *UnitSnapshot {
	s := &UnitSnapshot{
		arenas:       cloneArenaGraph(u.arenaByBase),
		hot:          make([]hotSnap, len(u.hot)),
		crossFreeBuf: append([]uint64(nil), u.crossFreeBuf...),
		stats:        u.stats,
	}
	for i := range u.hot {
		e := &u.hot[i]
		hs := &s.hot[i]
		if e.arena != nil {
			hs.arenaBase, hs.hasArena = e.arena.BaseVA, true
		}
		if h := e.avail.head; h != nil {
			hs.availHead, hs.hasAvail = h.BaseVA, true
		}
		if h := e.full.head; h != nil {
			hs.fullHead, hs.hasFull = h.BaseVA, true
		}
		hs.availN, hs.fullN = e.avail.n, e.full.n
	}
	return s
}

// Restore replaces the unit's state with a copy of s, returning the bytes
// copied (always s.Bytes(): the arena graph cannot be aliased). The unit
// must have been built by NewUnit from the same configuration and layout;
// the list identity flags it preset are kept.
func (u *Unit) Restore(s *UnitSnapshot) uint64 {
	u.arenaByBase = cloneArenaGraph(s.arenas)
	for i := range u.hot {
		e := &u.hot[i]
		hs := &s.hot[i]
		e.arena = nil
		if hs.hasArena {
			e.arena = u.arenaByBase[hs.arenaBase]
		}
		e.avail.head = nil
		if hs.hasAvail {
			e.avail.head = u.arenaByBase[hs.availHead]
		}
		e.full.head = nil
		if hs.hasFull {
			e.full.head = u.arenaByBase[hs.fullHead]
		}
		e.avail.n = hs.availN
		e.full.n = hs.fullN
	}
	u.crossFreeBuf = append(u.crossFreeBuf[:0], s.crossFreeBuf...)
	u.stats = s.stats
	return s.Bytes()
}
