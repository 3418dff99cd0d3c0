package core

import (
	"fmt"

	"memento/internal/simerr"
)

// hotEntry is one Hardware Object Table entry (Fig 5b): the cached arena
// header for the size class, the PA field (carried inside Arena.HeaderPA),
// and the available/full list head pointers.
type hotEntry struct {
	// arena is the cached header; 0 means the entry is invalid.
	arena arenaRef
	// avail tracks arenas with at least one free object; full tracks
	// arenas without any (Section 3.1, "Memento Arenas").
	avail arenaList
	full  arenaList
}

// Errors surfaced to software as exceptions (Section 4: double frees and
// similar application bugs "are handled graciously by raising an exception
// to software"). Each wraps its simerr taxonomy sentinel, so callers can
// match with errors.Is against either the package variable or the
// re-exported sentinel.
var (
	// ErrTooLarge means the request exceeds the 512-byte hardware maximum
	// and must be served by the software allocator.
	ErrTooLarge = fmt.Errorf("core: %w", simerr.ErrTooLarge)
	// ErrNotMemento means the freed address is outside the Memento region.
	ErrNotMemento = fmt.Errorf("core: address outside memento region: %w", simerr.ErrBadFree)
	// ErrDoubleFree is the double-free exception.
	ErrDoubleFree = fmt.Errorf("core: %w", simerr.ErrDoubleFree)
	// ErrBadAddress is raised for frees of addresses that are not object
	// starts.
	ErrBadAddress = fmt.Errorf("core: not an allocated object address: %w", simerr.ErrBadFree)
)

// Stats counts object-allocator activity; these are the counters behind
// Figs 12 (HOT hit rates) and 13 (arena list operation frequency).
type Stats struct {
	Allocs uint64
	Frees  uint64
	// AllocHits: request satisfied by the cached header bitmap.
	AllocHits   uint64
	AllocMisses uint64
	// FreeHits: cached header fulfilled the free without memory operations.
	FreeHits   uint64
	FreeMisses uint64
	// AllocListOps / FreeListOps count operations that had to touch the
	// available/full linked lists (Fig 13).
	AllocListOps uint64
	FreeListOps  uint64
	// EagerPrefetches counts arena loads hidden by the Section 3.1
	// optimization.
	EagerPrefetches uint64
	// DoubleFrees counts raised double-free exceptions.
	DoubleFrees uint64
	// HOTFlushes counts context-switch flushes; FlushedEntries the entries
	// written back.
	HOTFlushes     uint64
	FlushedEntries uint64
	// OffCriticalCycles is free-miss work performed off the execution
	// critical path (Section 6.4: Python's long-lived frees miss the HOT
	// but Memento still "performs the free operation out of the execution
	// critical path").
	OffCriticalCycles uint64
	// CrossThreadFrees counts non-local frees (Section 4).
	CrossThreadFrees uint64
	// BypassedLines counts lines instantiated in cache instead of DRAM.
	BypassedLines uint64
}

// AllocHitRate returns the obj-alloc HOT hit rate.
func (s Stats) AllocHitRate() float64 {
	t := s.AllocHits + s.AllocMisses
	if t == 0 {
		return 0
	}
	return float64(s.AllocHits) / float64(t)
}

// FreeHitRate returns the obj-free HOT hit rate.
func (s Stats) FreeHitRate() float64 {
	t := s.FreeHits + s.FreeMisses
	if t == 0 {
		return 0
	}
	return float64(s.FreeHits) / float64(t)
}

// listPush links r onto lst, charging the header writes the hardware
// performs (the moved arena's prev/next and the old head's prev).
func (u *Unit) listPush(lst *arenaList, r arenaRef) uint64 {
	var cycles uint64
	cycles += u.mem.Access(u.at(r).HeaderPA, true)
	if h := lst.head; h != 0 {
		cycles += u.mem.Access(u.at(h).HeaderPA, true)
	}
	lst.push(u.arenas, r)
	return cycles
}

// listPop unlinks the head of lst, charging the header reads/writes.
func (u *Unit) listPop(lst *arenaList) (arenaRef, uint64) {
	r := lst.head
	if r == 0 {
		return 0, 0
	}
	var cycles uint64
	a := u.at(r)
	cycles += u.mem.Access(a.HeaderPA, true)
	if a.next != 0 {
		cycles += u.mem.Access(u.at(a.next).HeaderPA, true)
	}
	lst.remove(u.arenas, r)
	return r, cycles
}

// listRemove unlinks a specific arena, charging neighbour header updates.
func (u *Unit) listRemove(lst *arenaList, r arenaRef) uint64 {
	var cycles uint64
	a := u.at(r)
	cycles += u.mem.Access(a.HeaderPA, true)
	if a.prev != 0 {
		cycles += u.mem.Access(u.at(a.prev).HeaderPA, true)
	}
	if a.next != 0 {
		cycles += u.mem.Access(u.at(a.next).HeaderPA, true)
	}
	lst.remove(u.arenas, r)
	return cycles
}
