package core

import (
	"fmt"

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
	// arenas is the slab of arena headers, by value; vacant slots have
	// BaseVA 0 and are listed in vacant for reuse. stripe[c][i] refers to
	// the live arena at index i of class c's stripe (Layout.StripeIndex),
	// 0 when there is none: the simulation's index of live arenas, where
	// hardware derives the same from the header at the arena base address.
	arenas []Arena
	vacant []arenaRef
	stripe [][]arenaRef
	nlive  int
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
	u := new(Unit)
	if err := u.Attach(cfg, layout, pa, mem, tr); err != nil {
		return nil, err
	}
	return u, nil
}

// Attach wires the unit to a configuration, layout, page allocator,
// memory and MMU, and empties it as NewUnit leaves it, keeping the
// capacity of its slabs: a pooled unit restored after Attach allocates
// nothing once its slabs have grown to the working set.
func (u *Unit) Attach(cfg config.Machine, layout *Layout, pa *PageAllocator, mem pagetable.Mem, tr Translator) error {
	if cfg.Memento.ObjectsPerArena != nObjs {
		return fmt.Errorf("core: configured %d objects per arena; bitmap supports %d: %w",
			cfg.Memento.ObjectsPerArena, nObjs, simerr.ErrInvalidConfig)
	}
	u.cfg, u.layout, u.pa, u.mem, u.translator = cfg, layout, pa, mem, tr
	n := layout.Classes()
	u.hot = resize(u.hot, n)
	clear(u.hot)
	for i := range u.hot {
		u.hot[i].full.full = true
	}
	u.stripe = resize(u.stripe, n)
	u.empty()
	u.crossFreeBuf = u.crossFreeBuf[:0]
	u.stats = Stats{}
	return nil
}

// Detach drops the unit's references to the machine it served, keeping
// its slabs for a later Attach, which empties them.
func (u *Unit) Detach() { u.pa, u.mem, u.translator = nil, nil, nil }

// resize returns s with length n, reusing its capacity when it suffices.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// empty drops every arena from the slab and the stripe index.
func (u *Unit) empty() {
	u.arenas, u.vacant, u.nlive = u.arenas[:0], u.vacant[:0], 0
	for c := range u.stripe {
		u.stripe[c] = u.stripe[c][:0]
	}
}

// at returns the slab arena r refers to.
func (u *Unit) at(r arenaRef) *Arena { return at(u.arenas, r) }

// lookup returns the live arena of class c based at arenaBase, or 0.
func (u *Unit) lookup(c int, arenaBase uint64) arenaRef {
	if i, ok := u.layout.StripeIndex(c, arenaBase); ok && i < len(u.stripe[c]) {
		return u.stripe[c][i]
	}
	return 0
}

// insert places a fresh arena in the slab and the stripe index.
func (u *Unit) insert(a Arena) arenaRef {
	var r arenaRef
	if n := len(u.vacant); n > 0 {
		r = u.vacant[n-1]
		u.vacant = u.vacant[:n-1]
		u.arenas[r-1] = a
	} else {
		u.arenas = append(u.arenas, a)
		r = arenaRef(len(u.arenas))
	}
	i, _ := u.layout.StripeIndex(a.Class, a.BaseVA)
	for len(u.stripe[a.Class]) <= i {
		u.stripe[a.Class] = append(u.stripe[a.Class], 0)
	}
	u.stripe[a.Class][i] = r
	u.nlive++
	return r
}

// remove vacates r's slab slot and stripe entry.
func (u *Unit) remove(r arenaRef) {
	a := u.at(r)
	i, _ := u.layout.StripeIndex(a.Class, a.BaseVA)
	u.stripe[a.Class][i] = 0
	*a = Arena{}
	u.vacant = append(u.vacant, r)
	u.nlive--
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

	hit := e.arena != 0
	if e.arena == 0 || u.at(e.arena).Full() {
		c, err := u.replaceEntry(e, class)
		cycles += c
		if err != nil {
			return 0, cycles, err
		}
		hit = false
	}
	a := u.at(e.arena)
	idx, found := a.FindFree()
	if !found {
		panic("core: replaceEntry must leave a free slot")
	}
	a.Set(idx)
	va = u.layout.ObjectVA(class, a.BaseVA, idx)
	if hit {
		u.stats.AllocHits++
	} else {
		u.stats.AllocMisses++
	}

	// Eager optimization (Section 3.1): when the last free object is
	// consumed, load the next arena now so the next request still hits.
	// The load overlaps execution, so it costs no critical-path cycles;
	// the memory traffic it generates is still charged.
	if u.cfg.Memento.EagerArenaPrefetch && a.Full() {
		if _, err := u.replaceEntry(e, class); err == nil {
			u.stats.EagerPrefetches++
		}
	}
	return va, cycles, nil
}

// replaceEntry implements the HOT-miss path: write back the current
// header, then load the next available arena or request a new one from the
// page allocator. The displaced full arena goes to the head of the full
// list.
func (u *Unit) replaceEntry(e *hotEntry, class int) (cycles uint64, err error) {
	old := e.arena
	if old != 0 {
		// Write the cached header back to its memory location (PA field).
		cycles += u.mem.Access(u.at(old).HeaderPA, true)
	}
	listOp := false
	if e.avail.head != 0 {
		// Load the next available arena and unlink it from the list head.
		r, c := u.listPop(&e.avail)
		cycles += c
		cycles += u.mem.Access(u.at(r).HeaderPA, false)
		e.arena = r
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
		e.arena = u.insert(a)
	}
	if old != 0 {
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

	if e.arena != 0 && u.at(e.arena).BaseVA == arenaBase {
		// HOT hit (Fig 6 step 12).
		a := u.at(e.arena)
		if !a.Clear(idx) {
			u.stats.DoubleFrees++
			return cycles, ErrDoubleFree
		}
		u.decrementBypass(a, class, va)
		u.stats.FreeHits++
		return cycles, nil
	}

	// HOT miss (Fig 6 step 13): translate the arena base, fetch the header,
	// clear the bit, write back — off the critical path.
	r := u.lookup(class, arenaBase)
	if r == 0 {
		u.stats.DoubleFrees++
		return cycles, ErrDoubleFree // arena already reclaimed
	}
	a := u.at(r)
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
		off += u.listRemove(&e.full, r)
		off += u.listPush(&e.avail, r)
		u.stats.FreeListOps++
	}
	if a.Empty() {
		// Last live object died: reclaim the arena (Section 3.2).
		if a.linked {
			if a.onFullList {
				off += u.listRemove(&e.full, r)
			} else {
				off += u.listRemove(&e.avail, r)
			}
			u.stats.FreeListOps++
		}
		off += u.pa.FreeArena(*a)
		u.remove(r)
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
	r := u.lookup(class, arenaBase)
	if r == 0 {
		// Not a live arena (e.g. header space): plain access.
		return cycles + u.mem.Access(pa, write), nil
	}
	a := u.at(r)
	line := u.layout.BodyLineIndex(arenaBase, va)
	if u.cfg.Memento.BypassEnabled && u.hot[class].arena == r && line >= int(a.BypassCtr) {
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
		if e.arena == 0 {
			continue
		}
		a := u.at(e.arena)
		cycles += u.cfg.Cost.HOTFlushPerEntryCycles
		cycles += u.mem.Access(a.HeaderPA, true)
		// The displaced arena keeps serving its class from memory: park it
		// on the appropriate list so a later reload finds it.
		if a.Full() {
			cycles += u.listPush(&e.full, e.arena)
		} else {
			cycles += u.listPush(&e.avail, e.arena)
		}
		e.arena = 0
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
		e.arena = 0
		for e.avail.pop(u.arenas) != 0 {
		}
		for e.full.pop(u.arenas) != 0 {
		}
	}
	// Free arenas in address order — class stripes ascend, and so do the
	// arenas within one: the walk order affects simulated cache and
	// row-buffer state, and runs must be deterministic.
	for _, refs := range u.stripe {
		for _, r := range refs {
			if r != 0 {
				cycles += u.pa.FreeArena(*u.at(r))
			}
		}
	}
	u.empty()
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
func (u *Unit) LiveArenas() int { return u.nlive }

// Fragmentation returns the fraction of arena object slots that are not
// live (the §6.6 fragmentation metric: "the percentage of slots in the
// arena headers [that] are not active"). Arenas that have never held an
// object (eagerly prefetched spares) are free memory, not fragmentation,
// and are excluded — mirroring how the software allocators' unassigned
// pools are excluded from their occupancy.
func (u *Unit) Fragmentation() float64 {
	var slots, live int
	for i := range u.arenas {
		a := &u.arenas[i]
		if a.BaseVA == 0 || a.Empty() {
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
	r := u.lookup(class, arenaBase)
	if r == 0 || !u.at(r).IsSet(idx) {
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
