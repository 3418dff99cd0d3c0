package core

import (
	"fmt"
	"math/bits"
)

// bitmapWords is the word count of the 256-bit allocation bitmap (Fig 5a).
const bitmapWords = 4

// Arena is the simulation-side image of one Memento arena header (Fig 5a):
// the VA field, the allocation bitmap, the bypass counter, and the
// prev/next links of the per-size-class available/full lists. The arena
// body (the object array) is pure address space; only its timing effects
// are simulated. A Unit keeps its arenas by value in one slab, and the
// links are slab references (see arenaRef).
type Arena struct {
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
	prev, next arenaRef
	// onFullList marks which list the arena is on when linked.
	onFullList bool
	// linked is true while the arena is a member of either list.
	linked bool
}

// arenaRef names an arena by its slab slot plus one; the zero value is no
// arena, so zeroed links, list heads and HOT entries are empty.
type arenaRef int32

// nObjs is the fixed object capacity (256 objects -> 256-bit bitmap).
const nObjs = bitmapWords * 64

// FindFree returns the index of a clear bitmap bit, or false if full.
func (a *Arena) FindFree() (int, bool) {
	for w := 0; w < bitmapWords; w++ {
		if a.bitmap[w] != ^uint64(0) {
			return w*64 + bits.TrailingZeros64(^a.bitmap[w]), true
		}
	}
	return 0, false
}

// Set marks object idx allocated. It panics on double allocation, which
// would be a simulator bug.
func (a *Arena) Set(idx int) {
	w, b := idx/64, uint(idx%64)
	if a.bitmap[w]&(1<<b) != 0 {
		panic(fmt.Sprintf("core: double allocation of object %d in arena %#x", idx, a.BaseVA))
	}
	a.bitmap[w] |= 1 << b
	a.live++
}

// Clear marks object idx free, reporting false if it was not allocated
// (the double-free case Memento raises an exception for, Section 4).
func (a *Arena) Clear(idx int) bool {
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
func (a *Arena) IsSet(idx int) bool {
	if idx < 0 || idx >= nObjs {
		return false
	}
	return a.bitmap[idx/64]&(1<<uint(idx%64)) != 0
}

// Live returns the number of allocated objects.
func (a *Arena) Live() int { return a.live }

// Full reports whether no free objects remain.
func (a *Arena) Full() bool { return a.live == nObjs }

// Empty reports whether the arena holds no live objects.
func (a *Arena) Empty() bool { return a.live == 0 }

// arenaList is a doubly-linked list of slab arenas whose head lives in
// the HOT entry (Fig 5b: available list head / full list head).
type arenaList struct {
	head arenaRef
	n    int
	full bool // identifies which list, for assertions
}

// at returns the arena r refers to in slab s.
func at(s []Arena, r arenaRef) *Arena { return &s[r-1] }

// push inserts r at the head.
func (lst *arenaList) push(s []Arena, r arenaRef) {
	a := at(s, r)
	if a.linked {
		panic(fmt.Sprintf("core: arena %#x already on a list", a.BaseVA))
	}
	a.prev = 0
	a.next = lst.head
	if lst.head != 0 {
		at(s, lst.head).prev = r
	}
	lst.head = r
	a.linked = true
	a.onFullList = lst.full
	lst.n++
}

// pop removes and returns the head arena, or 0.
func (lst *arenaList) pop(s []Arena) arenaRef {
	r := lst.head
	if r != 0 {
		lst.remove(s, r)
	}
	return r
}

// remove unlinks r from the list.
func (lst *arenaList) remove(s []Arena, r arenaRef) {
	a := at(s, r)
	if !a.linked || a.onFullList != lst.full {
		panic(fmt.Sprintf("core: removing arena %#x from wrong list", a.BaseVA))
	}
	if a.prev != 0 {
		at(s, a.prev).next = a.next
	} else {
		lst.head = a.next
	}
	if a.next != 0 {
		at(s, a.next).prev = a.prev
	}
	a.prev, a.next = 0, 0
	a.linked = false
	lst.n--
}

// Len returns the list length.
func (lst *arenaList) Len() int { return lst.n }
