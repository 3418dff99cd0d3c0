package core

import (
	"fmt"
	"sort"

	"memento/internal/config"
	"memento/internal/pagetable"
	"memento/internal/simerr"
)

// Translator resolves virtual addresses for the object allocator's
// free-miss path and for data accesses. The machine implements it with the
// TLB system, dispatching to the Memento page allocator's walker for
// region addresses (the MPTR-rooted walk) and to the kernel otherwise. The
// error follows the tlb.Walker taxonomy: simerr.ErrSegfault for unmapped
// addresses, simerr.ErrOutOfMemory for backing failures.
type Translator interface {
	Translate(va uint64) (pa uint64, cycles uint64, err error)
}

// Unit is one core's Memento hardware: the object allocator with its HOT,
// wired to the shared page allocator, the cache hierarchy, and the MMU.
// It exposes the ISA extensions obj-alloc and obj-free.
type Unit struct {
	cfg    config.Machine
	layout *Layout
	// hot is direct-mapped by size class (Section 3.1: "the HOT entry is
	// located swiftly using the size class as an index without any
	// associative search").
	hot []hotEntry
	// pa is the hardware page allocator at the memory controller.
	pa *PageAllocator
	// mem is the physically-addressed cache hierarchy.
	mem pagetable.Mem
	// translator is the MMU path for VA resolution.
	translator Translator
	// arenaByBase is the simulation's index of live arenas; hardware
	// derives the same information from the header residing at the arena
	// base address.
	arenaByBase map[uint64]*Arena
	// crossFreeBuf is the thread-local buffer batching non-local frees for
	// the software-assisted design of Section 4.
	crossFreeBuf []uint64
	stats        Stats
}

// crossFreeBufCap is the batch size of the non-local free buffer.
const crossFreeBufCap = 64

// NewUnit builds the Memento hardware for one core/process. The error wraps
// simerr.ErrInvalidConfig when the configured arena geometry does not match
// the fixed 256-bit header bitmap.
func NewUnit(cfg config.Machine, layout *Layout, pa *PageAllocator, mem pagetable.Mem, tr Translator) (*Unit, error) {
	if cfg.Memento.ObjectsPerArena != nObjs {
		return nil, fmt.Errorf("core: configured %d objects per arena; bitmap supports %d: %w",
			cfg.Memento.ObjectsPerArena, nObjs, simerr.ErrInvalidConfig)
	}
	u := &Unit{
		cfg:         cfg,
		layout:      layout,
		hot:         make([]hotEntry, layout.Classes()),
		pa:          pa,
		mem:         mem,
		translator:  tr,
		arenaByBase: make(map[uint64]*Arena),
	}
	for i := range u.hot {
		u.hot[i].full.full = true
	}
	return u, nil
}

// Layout exposes the region geometry.
func (u *Unit) Layout() *Layout { return u.layout }

// PageAllocator exposes the shared page allocator.
func (u *Unit) PageAllocator() *PageAllocator { return u.pa }

// Stats returns a copy of the object-allocator counters.
func (u *Unit) Stats() Stats { return u.stats }

// Owns reports whether va lies in this unit's Memento region.
func (u *Unit) Owns(va uint64) bool { return u.layout.Contains(va) }

// ObjAlloc executes the obj-alloc instruction (Fig 6, steps 5-9): locate
// the HOT entry by size class, scan the cached bitmap, and on a full or
// invalid entry replace it from the available list or a fresh arena.
// Returns the object VA and the critical-path cycle cost.
func (u *Unit) ObjAlloc(size uint64) (va uint64, cycles uint64, err error) {
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
func (a *Arena) hasFree() bool { return !a.Full() }

// replaceEntry implements the HOT-miss path: write back the current
// header, then load the next available arena or request a new one from the
// page allocator. The displaced full arena goes to the head of the full
// list.
func (u *Unit) replaceEntry(e *hotEntry, class int) (cycles uint64, err error) {
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
		a, c, aerr := u.pa.AllocArena(class)
		cycles += c
		if aerr != nil {
			e.arena = old
			return cycles, aerr
		}
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
func (u *Unit) ObjFree(va uint64) (cycles uint64, err error) {
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
		off += u.pa.FreeArena(a)
		delete(u.arenaByBase, arenaBase)
	}
	u.stats.OffCriticalCycles += off
	return cycles, nil
}

// decrementBypass applies the Section 3.3 rule: "the counter is
// decremented on a free if the index matches the counter", shrinking the
// fresh-line frontier when the topmost allocation dies.
func (u *Unit) decrementBypass(a *Arena, class int, va uint64) {
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
func (u *Unit) AccessData(va uint64, write bool) (cycles uint64, err error) {
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
func (u *Unit) hotResident(class int, a *Arena) bool {
	return u.hot[class].arena == a
}

// zeroInstaller is the optional interface the hierarchy provides for the
// bypass mechanism.
type zeroInstaller interface {
	InstallZero(pa uint64, write bool) uint64
}

// installZero uses the hierarchy's zero-fill path when available, else a
// regular access (keeps the Unit testable with simple Mem fakes).
func (u *Unit) installZero(pa uint64, write bool) uint64 {
	if zi, ok := u.mem.(zeroInstaller); ok {
		return zi.InstallZero(pa, write)
	}
	return u.mem.Access(pa, write)
}

// FlushHOT writes back and invalidates every valid HOT entry (context
// switch, Section 4 "Multi-core Support"). Returns the cycle cost.
func (u *Unit) FlushHOT() uint64 {
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
func (u *Unit) Teardown() uint64 {
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
		cycles += u.pa.FreeArena(u.arenaByBase[base])
		delete(u.arenaByBase, base)
	}
	return cycles
}

// NonLocalFree handles a free of an object allocated by another thread
// (Section 4): the address falls outside this thread's arena ranges, so it
// is batched in a thread-local buffer; when the buffer fills, the batch is
// drained through the owning unit. Returns the critical-path cycles.
func (u *Unit) NonLocalFree(va uint64, owner *Unit) (cycles uint64, err error) {
	u.stats.CrossThreadFrees++
	cycles = u.cfg.Memento.HOT.LatencyCycles // detect non-local by range check
	u.crossFreeBuf = append(u.crossFreeBuf, va)
	if len(u.crossFreeBuf) < crossFreeBufCap {
		return cycles, nil
	}
	c, err := u.DrainCrossFrees(owner)
	return cycles + c, err
}

// DrainCrossFrees flushes the non-local free buffer through the owning
// unit, modeling the hardware-only path: a BusRdX acquires the header
// exclusively (LLC round trip), then the RMW proceeds as a regular free.
func (u *Unit) DrainCrossFrees(owner *Unit) (cycles uint64, err error) {
	for _, va := range u.crossFreeBuf {
		cycles += u.cfg.LLC.LatencyCycles // BusRdX ownership acquisition
		c, ferr := owner.ObjFree(va)
		cycles += c
		if ferr != nil && err == nil {
			err = ferr
		}
	}
	u.crossFreeBuf = u.crossFreeBuf[:0]
	return cycles, err
}

// PendingCrossFrees returns the depth of the non-local free buffer.
func (u *Unit) PendingCrossFrees() int { return len(u.crossFreeBuf) }

// LiveArenas returns the number of live arenas (for fragmentation stats).
func (u *Unit) LiveArenas() int { return len(u.arenaByBase) }

// Fragmentation returns the fraction of arena object slots that are not
// live (the §6.6 fragmentation metric: "the percentage of slots in the
// arena headers [that] are not active"). Arenas that have never held an
// object (eagerly prefetched spares) are free memory, not fragmentation,
// and are excluded — mirroring how the software allocators' unassigned
// pools are excluded from their occupancy.
func (u *Unit) Fragmentation() float64 {
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
func (u *Unit) SizeOf(va uint64) (uint64, bool) {
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

// ReleasePool returns all physical pages to the OS at process teardown.
func (u *Unit) ReleasePool() error { return u.pa.Release() }

// compile-time interface checks
var _ Translator = (nopTranslator{})

// nopTranslator is a zero-cost identity translator for tests.
type nopTranslator struct{}

func (nopTranslator) Translate(va uint64) (uint64, uint64, error) { return va, 0, nil }

// NopTranslator returns a zero-cost identity translator, useful for tests
// and microbenchmarks that do not model an MMU.
func NopTranslator() Translator { return nopTranslator{} }
