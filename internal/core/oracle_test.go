package core

// The pointer-linked, map-indexed object allocator the arena slab
// replaced, kept as a test-only oracle: TestUnitMatchesOracle and
// FuzzUnitMatchesOracle drive both through the same operations and require
// the same addresses, cycles, errors, counters, snapshot sizes and
// simulated accesses. Apart from the renames, and the page allocator's
// arenas now being values, this is the code as it stood before the slab.

import (
	"fmt"
	"math/bits"
	"sort"

	"memento/internal/config"
	"memento/internal/pagetable"
	"memento/internal/simerr"
)

// oArena is the simulation-side image of one Memento arena header (Fig 5a):
// the VA field, the allocation bitmap, the bypass counter, and the
// prev/next links of the per-size-class available/full lists. The arena
// body (the object array) is pure address space; only its timing effects
// are simulated.
type oArena struct {
	// BaseVA is the header's (and arena's) base virtual address.
	BaseVA uint64
	// Class is the size class the arena serves for its whole lifetime.
	Class int
	// HeaderPA is the physical address of the header, set when the page
	// allocator eagerly backs the arena's first page.
	HeaderPA uint64
	// bitmap has bit i set when object i is allocated.
	bitmap [bitmapWords]uint64
	// live is the popcount of bitmap, kept for O(1) checks.
	live int
	// BypassCtr is the 11-bit bypass counter: body lines with index >=
	// BypassCtr have never been accessed and may bypass DRAM.
	BypassCtr uint16
	// prev/next link same-class arenas into the available or full list.
	prev, next *oArena
	// onFullList marks which list the arena is on when linked.
	onFullList bool
	// linked is true while the arena is a member of either list.
	linked bool
}

// FindFree returns the index of a clear bitmap bit, or false if full.
func (a *oArena) FindFree() (int, bool) {
	for w := 0; w < bitmapWords; w++ {
		if a.bitmap[w] != ^uint64(0) {
			return w*64 + bits.TrailingZeros64(^a.bitmap[w]), true
		}
	}
	return 0, false
}

// Set marks object idx allocated. It panics on double allocation, which
// would be a simulator bug.
func (a *oArena) Set(idx int) {
	w, b := idx/64, uint(idx%64)
	if a.bitmap[w]&(1<<b) != 0 {
		panic(fmt.Sprintf("core: double allocation of object %d in arena %#x", idx, a.BaseVA))
	}
	a.bitmap[w] |= 1 << b
	a.live++
}

// Clear marks object idx free, reporting false if it was not allocated
// (the double-free case Memento raises an exception for, Section 4).
func (a *oArena) Clear(idx int) bool {
	if idx < 0 || idx >= nObjs {
		return false
	}
	w, b := idx/64, uint(idx%64)
	if a.bitmap[w]&(1<<b) == 0 {
		return false
	}
	a.bitmap[w] &^= 1 << b
	a.live--
	return true
}

// IsSet reports whether object idx is allocated.
func (a *oArena) IsSet(idx int) bool {
	if idx < 0 || idx >= nObjs {
		return false
	}
	return a.bitmap[idx/64]&(1<<uint(idx%64)) != 0
}

// Live returns the number of allocated objects.
func (a *oArena) Live() int { return a.live }

// Full reports whether no free objects remain.
func (a *oArena) Full() bool { return a.live == nObjs }

// Empty reports whether the arena holds no live objects.
func (a *oArena) Empty() bool { return a.live == 0 }

// oArenaList is a doubly-linked list of arenas whose head pointer lives in
// the HOT entry (Fig 5b: available list head / full list head).
type oArenaList struct {
	head *oArena
	n    int
	full bool // identifies which list, for assertions
}

// Push inserts a at the head.
func (lst *oArenaList) Push(a *oArena) {
	if a.linked {
		panic(fmt.Sprintf("core: arena %#x already on a list", a.BaseVA))
	}
	a.prev = nil
	a.next = lst.head
	if lst.head != nil {
		lst.head.prev = a
	}
	lst.head = a
	a.linked = true
	a.onFullList = lst.full
	lst.n++
}

// Pop removes and returns the head arena, or nil.
func (lst *oArenaList) Pop() *oArena {
	a := lst.head
	if a == nil {
		return nil
	}
	lst.Remove(a)
	return a
}

// Remove unlinks a from the list.
func (lst *oArenaList) Remove(a *oArena) {
	if !a.linked || a.onFullList != lst.full {
		panic(fmt.Sprintf("core: removing arena %#x from wrong list", a.BaseVA))
	}
	if a.prev != nil {
		a.prev.next = a.next
	} else {
		lst.head = a.next
	}
	if a.next != nil {
		a.next.prev = a.prev
	}
	a.prev, a.next = nil, nil
	a.linked = false
	lst.n--
}

// Len returns the list length.
func (lst *oArenaList) Len() int { return lst.n }

// Head returns the head without removing it.
func (lst *oArenaList) Head() *oArena { return lst.head }

// oHotEntry is one Hardware Object Table entry (Fig 5b): the cached arena
// header for the size class, the PA field (carried inside oArena.HeaderPA),
// and the available/full list head pointers.
type oHotEntry struct {
	// arena is the cached header; nil means the entry is invalid.
	arena *oArena
	// avail tracks arenas with at least one free object; full tracks
	// arenas without any (Section 3.1, "Memento Arenas").
	avail oArenaList
	full  oArenaList
}

// listPush links a onto lst, charging the header writes the hardware
// performs (the moved arena's prev/next and the old head's prev).
func (u *oracleUnit) listPush(lst *oArenaList, a *oArena) uint64 {
	var cycles uint64
	cycles += u.mem.Access(a.HeaderPA, true)
	if h := lst.Head(); h != nil {
		cycles += u.mem.Access(h.HeaderPA, true)
	}
	lst.Push(a)
	return cycles
}

// listPop unlinks the head of lst, charging the header reads/writes.
func (u *oracleUnit) listPop(lst *oArenaList) (*oArena, uint64) {
	a := lst.Head()
	if a == nil {
		return nil, 0
	}
	var cycles uint64
	cycles += u.mem.Access(a.HeaderPA, true)
	if a.next != nil {
		cycles += u.mem.Access(a.next.HeaderPA, true)
	}
	lst.Remove(a)
	return a, cycles
}

// listRemove unlinks a specific arena, charging neighbour header updates.
func (u *oracleUnit) listRemove(lst *oArenaList, a *oArena) uint64 {
	var cycles uint64
	cycles += u.mem.Access(a.HeaderPA, true)
	if a.prev != nil {
		cycles += u.mem.Access(a.prev.HeaderPA, true)
	}
	if a.next != nil {
		cycles += u.mem.Access(a.next.HeaderPA, true)
	}
	lst.Remove(a)
	return cycles
}

// oracleUnit is one core's Memento hardware: the object allocator with its HOT,
// wired to the shared page allocator, the cache hierarchy, and the MMU.
// It exposes the ISA extensions obj-alloc and obj-free.
type oracleUnit struct {
	cfg    config.Machine
	layout *Layout
	// hot is direct-mapped by size class (Section 3.1: "the HOT entry is
	// located swiftly using the size class as an index without any
	// associative search").
	hot []oHotEntry
	// pa is the hardware page allocator at the memory controller.
	pa *PageAllocator
	// mem is the physically-addressed cache hierarchy.
	mem pagetable.Mem
	// translator is the MMU path for VA resolution.
	translator Translator
	// arenaByBase is the simulation's index of live arenas; hardware
	// derives the same information from the header residing at the arena
	// base address.
	arenaByBase map[uint64]*oArena
	// crossFreeBuf is the thread-local buffer batching non-local frees for
	// the software-assisted design of Section 4.
	crossFreeBuf []uint64
	stats        Stats
}

// newOracleUnit builds the Memento hardware for one core/process. The error wraps
// simerr.ErrInvalidConfig when the configured arena geometry does not match
// the fixed 256-bit header bitmap.
func newOracleUnit(cfg config.Machine, layout *Layout, pa *PageAllocator, mem pagetable.Mem, tr Translator) (*oracleUnit, error) {
	if cfg.Memento.ObjectsPerArena != nObjs {
		return nil, fmt.Errorf("core: configured %d objects per arena; bitmap supports %d: %w",
			cfg.Memento.ObjectsPerArena, nObjs, simerr.ErrInvalidConfig)
	}
	u := &oracleUnit{
		cfg:         cfg,
		layout:      layout,
		hot:         make([]oHotEntry, layout.Classes()),
		pa:          pa,
		mem:         mem,
		translator:  tr,
		arenaByBase: make(map[uint64]*oArena),
	}
	for i := range u.hot {
		u.hot[i].full.full = true
	}
	return u, nil
}

// ObjAlloc executes the obj-alloc instruction (Fig 6, steps 5-9): locate
// the HOT entry by size class, scan the cached bitmap, and on a full or
// invalid entry replace it from the available list or a fresh arena.
// Returns the object VA and the critical-path cycle cost.
func (u *oracleUnit) ObjAlloc(size uint64) (va uint64, cycles uint64, err error) {
	class, ok := u.layout.ClassOf(size)
	if !ok {
		return 0, 0, ErrTooLarge
	}
	u.stats.Allocs++
	cycles = u.cfg.Memento.HOT.LatencyCycles
	e := &u.hot[class]

	hit := e.arena != nil
	if e.arena == nil || !e.arena.hasFree() {
		c, err := u.replaceEntry(e, class)
		cycles += c
		if err != nil {
			return 0, cycles, err
		}
		hit = false
	}
	idx, found := e.arena.FindFree()
	if !found {
		panic("core: replaceEntry must leave a free slot")
	}
	e.arena.Set(idx)
	va = u.layout.ObjectVA(class, e.arena.BaseVA, idx)
	if hit {
		u.stats.AllocHits++
	} else {
		u.stats.AllocMisses++
	}

	// Eager optimization (Section 3.1): when the last free object is
	// consumed, load the next arena now so the next request still hits.
	// The load overlaps execution, so it costs no critical-path cycles;
	// the memory traffic it generates is still charged.
	if u.cfg.Memento.EagerArenaPrefetch && e.arena.Full() {
		if _, err := u.replaceEntry(e, class); err == nil {
			u.stats.EagerPrefetches++
		}
	}
	return va, cycles, nil
}

// hasFree reports whether the arena has at least one clear bitmap bit.
func (a *oArena) hasFree() bool { return !a.Full() }

// replaceEntry implements the HOT-miss path: write back the current
// header, then load the next available arena or request a new one from the
// page allocator. The displaced full arena goes to the head of the full
// list.
func (u *oracleUnit) replaceEntry(e *oHotEntry, class int) (cycles uint64, err error) {
	old := e.arena
	if old != nil {
		// Write the cached header back to its memory location (PA field).
		cycles += u.mem.Access(old.HeaderPA, true)
	}
	listOp := false
	if next := e.avail.Head(); next != nil {
		// Load the next available arena and unlink it from the list head.
		a, c := u.listPop(&e.avail)
		cycles += c
		cycles += u.mem.Access(a.HeaderPA, false)
		e.arena = a
		listOp = true
	} else {
		// No valid arenas: allocate and initialize a fresh one (Fig 6
		// step 9, and steps 1-4 on initialization).
		v, c, aerr := u.pa.AllocArena(class)
		cycles += c
		if aerr != nil {
			e.arena = old
			return cycles, aerr
		}
		a := &oArena{BaseVA: v.BaseVA, Class: v.Class, HeaderPA: v.HeaderPA}
		// Prepare the header (clear bitmap, links, VA field) and load it
		// into the HOT entry: one header write.
		cycles += u.mem.Access(a.HeaderPA, true)
		u.arenaByBase[a.BaseVA] = a
		e.arena = a
	}
	if old != nil {
		cycles += u.listPush(&e.full, old)
		listOp = true
	}
	// Fig 13's metric is the percentage of allocations that *include* list
	// operations, so a turnover counts once however many pushes and pops
	// it performs.
	if listOp {
		u.stats.AllocListOps++
	}
	return cycles, nil
}

// ObjFree executes the obj-free instruction (Fig 6, steps 10-13): derive
// the size class and arena base with bit math, compare against the HOT
// entry's VA field, and clear the bitmap bit — in the HOT on a hit, or in
// the in-memory header on a miss. Free misses run off the critical path,
// so the returned cycles are only the issue cost; the memory work is
// accounted in Stats.OffCriticalCycles.
func (u *oracleUnit) ObjFree(va uint64) (cycles uint64, err error) {
	if !u.layout.Contains(va) {
		return 0, ErrNotMemento
	}
	class, arenaBase, idx, ok := u.layout.Decompose(va)
	if !ok {
		return u.cfg.Memento.HOT.LatencyCycles, ErrBadAddress
	}
	u.stats.Frees++
	cycles = u.cfg.Memento.HOT.LatencyCycles
	e := &u.hot[class]

	if e.arena != nil && e.arena.BaseVA == arenaBase {
		// HOT hit (Fig 6 step 12).
		if !e.arena.Clear(idx) {
			u.stats.DoubleFrees++
			return cycles, ErrDoubleFree
		}
		u.decrementBypass(e.arena, class, va)
		u.stats.FreeHits++
		return cycles, nil
	}

	// HOT miss (Fig 6 step 13): translate the arena base, fetch the header,
	// clear the bit, write back — off the critical path.
	a, found := u.arenaByBase[arenaBase]
	if !found {
		u.stats.DoubleFrees++
		return cycles, ErrDoubleFree // arena already reclaimed
	}
	var off uint64
	_, tc, terr := u.translator.Translate(arenaBase)
	off += tc
	if terr != nil {
		u.stats.OffCriticalCycles += off
		return cycles, terr
	}
	off += u.mem.Access(a.HeaderPA, false)
	if !a.Clear(idx) {
		u.stats.DoubleFrees++
		u.stats.OffCriticalCycles += off
		return cycles, ErrDoubleFree
	}
	off += u.mem.Access(a.HeaderPA, true)
	u.stats.FreeMisses++

	wasFull := a.live+1 == nObjs
	if wasFull && a.linked && a.onFullList {
		// Move from the full list to the head of the available list.
		off += u.listRemove(&e.full, a)
		off += u.listPush(&e.avail, a)
		u.stats.FreeListOps++
	}
	if a.Empty() {
		// Last live object died: reclaim the arena (Section 3.2).
		if a.linked {
			if a.onFullList {
				off += u.listRemove(&e.full, a)
			} else {
				off += u.listRemove(&e.avail, a)
			}
			u.stats.FreeListOps++
		}
		off += u.pa.FreeArena(a.value())
		delete(u.arenaByBase, arenaBase)
	}
	u.stats.OffCriticalCycles += off
	return cycles, nil
}

// decrementBypass applies the Section 3.3 rule: "the counter is
// decremented on a free if the index matches the counter", shrinking the
// fresh-line frontier when the topmost allocation dies.
func (u *oracleUnit) decrementBypass(a *oArena, class int, va uint64) {
	size := u.layout.ClassSize(class)
	endLine := u.layout.BodyLineIndex(a.BaseVA, va+size-1)
	if int(a.BypassCtr) == endLine+1 {
		start := u.layout.BodyLineIndex(a.BaseVA, va)
		a.BypassCtr = uint16(start)
	}
}

// AccessData performs an application load/store to a Memento-region
// address: translate (first touches are backed by the page allocator's
// flagged walk), then either instantiate the line zeroed in the LLC (main
// memory bypass, Section 3.3) or perform a regular access. The error
// follows the Translator taxonomy.
func (u *oracleUnit) AccessData(va uint64, write bool) (cycles uint64, err error) {
	pa, tc, err := u.translator.Translate(va)
	if err != nil {
		return tc, err
	}
	cycles = tc
	class, arenaBase, _, _ := u.layout.Decompose(va)
	a, found := u.arenaByBase[arenaBase]
	if !found {
		// Not a live arena (e.g. header space): plain access.
		return cycles + u.mem.Access(pa, write), nil
	}
	line := u.layout.BodyLineIndex(arenaBase, va)
	if u.cfg.Memento.BypassEnabled && u.hotResident(class, a) && line >= int(a.BypassCtr) {
		cycles += u.installZero(pa, write)
		u.stats.BypassedLines++
		ctr := line + 1
		max := (1 << u.cfg.Memento.BypassCounterBits) - 1
		if ctr > max {
			ctr = max
		}
		a.BypassCtr = uint16(ctr)
		return cycles, nil
	}
	if line >= int(a.BypassCtr) {
		// Track the access frontier even when bypass cannot apply.
		max := (1 << u.cfg.Memento.BypassCounterBits) - 1
		ctr := line + 1
		if ctr > max {
			ctr = max
		}
		a.BypassCtr = uint16(ctr)
	}
	return cycles + u.mem.Access(pa, write), nil
}

// hotResident reports whether the arena is the HOT-cached one for its
// class — the condition under which the HOT can identify bypass requests
// on an L1 miss (Section 3.3).
func (u *oracleUnit) hotResident(class int, a *oArena) bool {
	return u.hot[class].arena == a
}

// installZero uses the hierarchy's zero-fill path when available, else a
// regular access (keeps the oracleUnit testable with simple Mem fakes).
func (u *oracleUnit) installZero(pa uint64, write bool) uint64 {
	if zi, ok := u.mem.(zeroInstaller); ok {
		return zi.InstallZero(pa, write)
	}
	return u.mem.Access(pa, write)
}

// FlushHOT writes back and invalidates every valid HOT entry (context
// switch, Section 4 "Multi-core Support"). Returns the cycle cost.
func (u *oracleUnit) FlushHOT() uint64 {
	var cycles uint64
	u.stats.HOTFlushes++
	for class := range u.hot {
		e := &u.hot[class]
		if e.arena == nil {
			continue
		}
		cycles += u.cfg.Cost.HOTFlushPerEntryCycles
		cycles += u.mem.Access(e.arena.HeaderPA, true)
		// The displaced arena keeps serving its class from memory: park it
		// on the appropriate list so a later reload finds it.
		if e.arena.Full() {
			cycles += u.listPush(&e.full, e.arena)
		} else {
			cycles += u.listPush(&e.avail, e.arena)
		}
		e.arena = nil
		u.stats.FlushedEntries++
	}
	return cycles
}

// Teardown reclaims every live arena (process exit). With Memento the
// batch teardown is hardware page-table walking plus pool pushes — the
// cheap exit path that replaces the kernel's munmap storm.
func (u *oracleUnit) Teardown() uint64 {
	var cycles uint64
	for class := range u.hot {
		e := &u.hot[class]
		e.arena = nil
		for e.avail.Len() > 0 {
			e.avail.Pop()
		}
		for e.full.Len() > 0 {
			e.full.Pop()
		}
	}
	// Free arenas in address order: the walk order affects simulated cache
	// and row-buffer state, and runs must be deterministic.
	bases := make([]uint64, 0, len(u.arenaByBase))
	for base := range u.arenaByBase {
		bases = append(bases, base)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	for _, base := range bases {
		cycles += u.pa.FreeArena(u.arenaByBase[base].value())
		delete(u.arenaByBase, base)
	}
	return cycles
}

// LiveArenas returns the number of live arenas (for fragmentation stats).
func (u *oracleUnit) LiveArenas() int { return len(u.arenaByBase) }

// Fragmentation returns the fraction of arena object slots that are not
// live (the §6.6 fragmentation metric: "the percentage of slots in the
// arena headers [that] are not active"). Arenas that have never held an
// object (eagerly prefetched spares) are free memory, not fragmentation,
// and are excluded — mirroring how the software allocators' unassigned
// pools are excluded from their occupancy.
func (u *oracleUnit) Fragmentation() float64 {
	var slots, live int
	for _, a := range u.arenaByBase {
		if a.Empty() {
			continue
		}
		slots += nObjs
		live += a.Live()
	}
	if slots == 0 {
		return 0
	}
	return 1 - float64(live)/float64(slots)
}

// SizeOf returns the allocated (class) size of a live object.
func (u *oracleUnit) SizeOf(va uint64) (uint64, bool) {
	class, arenaBase, idx, ok := u.layout.Decompose(va)
	if !ok {
		return 0, false
	}
	a, found := u.arenaByBase[arenaBase]
	if !found || !a.IsSet(idx) {
		return 0, false
	}
	return u.layout.ClassSize(class), true
}

// oCloneArenaGraph deep-copies every arena in the index, preserving the
// prev/next list links and membership flags. Links are remapped via the
// base-VA index, which covers every linked arena (list members and cached
// HOT arenas are always live and indexed).
func oCloneArenaGraph(src map[uint64]*oArena) map[uint64]*oArena {
	out := make(map[uint64]*oArena, len(src))
	for base, a := range src {
		out[base] = &oArena{
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

// oHotSnap records one HOT entry by arena base VA: the cached arena and the
// available/full list heads and lengths. Pointers are resolved against the
// cloned arena graph on restore.
type oHotSnap struct {
	arenaBase uint64
	hasArena  bool
	availHead uint64
	hasAvail  bool
	fullHead  uint64
	hasFull   bool
	availN    int
	fullN     int
}

// oUnitSnapshot is a deep copy of the object allocator's state: the arena
// graph, the HOT entries, the cross-thread free buffer, and the counters.
// Unlike the page-table snapshots it is copied in full on every restore —
// the arena graph's intrusive links make aliasing unsafe.
type oUnitSnapshot struct {
	arenas       map[uint64]*oArena
	hot          []oHotSnap
	crossFreeBuf []uint64
	stats        Stats
}

// Bytes returns the full size of the captured state; a restore copies all
// of it (oUnitSnapshot has no shared portion).
func (s *oUnitSnapshot) Bytes() uint64 {
	return uint64(len(s.arenas))*arenaSnapBytes + uint64(len(s.hot))*hotSnapBytes +
		uint64(len(s.crossFreeBuf))*8 + unitStatsBytes
}

// Snapshot captures the unit. The returned value is immutable and may be
// restored any number of times.
func (u *oracleUnit) Snapshot() *oUnitSnapshot {
	s := &oUnitSnapshot{
		arenas:       oCloneArenaGraph(u.arenaByBase),
		hot:          make([]oHotSnap, len(u.hot)),
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
// must have been built by newOracleUnit from the same configuration and layout;
// the list identity flags it preset are kept.
func (u *oracleUnit) Restore(s *oUnitSnapshot) uint64 {
	u.arenaByBase = oCloneArenaGraph(s.arenas)
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

// value returns the arena as the page allocator takes it.
func (a *oArena) value() Arena { return Arena{BaseVA: a.BaseVA, Class: a.Class, HeaderPA: a.HeaderPA} }
