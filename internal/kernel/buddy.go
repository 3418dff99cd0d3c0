// Package kernel implements the simulated operating-system memory-management
// substrate the paper's baseline measures: a buddy physical page allocator,
// 4-level page tables, VMA tracking, the mmap/munmap system calls, and the
// page-fault handler (Section 2.1, "Kernel Space Operations"). All metadata
// operations generate memory traffic through the simulated cache hierarchy
// and instruction costs from the config cost model, so kernel memory-
// management cycles are measurable exactly the way Table 2 reports them.
package kernel

import (
	"fmt"
)

// MaxOrder is the largest buddy block: 2^10 pages = 4 MiB, matching Linux.
const MaxOrder = 10

const noFrame = int32(-1)

// Buddy is a binary-buddy physical page allocator over frames
// [base, base+nframes). Frame numbers are absolute PFNs.
//
// The allocator is fully deterministic: free blocks live on per-order LIFO
// lists (intrusive doubly-linked, indexed by frame offset), and untouched
// high frames form a pristine watermark region that is carved lazily, so the
// same call sequence always returns the same frames. Determinism matters —
// frame numbers decide DRAM row/bank locality, so a randomized pick (the old
// map-iteration implementation) made end-to-end results wobble run to run.
type Buddy struct {
	base    uint64
	nframes uint64
	// watermark is the first pristine frame offset: frames in
	// [watermark, nframes) have never been handed out and are implicitly
	// free. Blocks are carved from here only when the free lists cannot
	// serve a request; freed blocks never merge back into the region.
	watermark uint64
	// head[o] is the frame offset of the first free block of order o, or
	// noFrame. prev/next thread the lists; they are meaningful only at
	// offsets that are free block heads.
	head [MaxOrder + 1]int32
	prev []int32
	next []int32
	// state[off] is 0 for untracked offsets, freeTag+o for a free block head
	// of order o, allocTag+o for an allocated block head of order o.
	state      []uint8
	freeFrames uint64
	// Delta-snapshot state: snapBase is the snapshot this allocator was last
	// captured to or restored from, dirty is a bitmap with one bit per
	// dirtyBlockFrames-frame window of the tracking arrays mutated since
	// then, and clean reports no mutation at all. The scalars (watermark,
	// freeFrames, head) are always re-copied on a delta restore; only the
	// per-frame arrays are delta-tracked. See snapshot.go.
	snapBase *buddySnapshot
	clean    bool
	dirty    []uint64
}

// dirtyBlockShift sets the dirty-tracking granularity: one bitmap bit covers
// 2^8 = 256 consecutive frame offsets (2304 bytes of tracking arrays).
const dirtyBlockShift = 8

// markDirty records that offset off's tracking window diverged from base.
func (b *Buddy) markDirty(off uint64) {
	blk := off >> dirtyBlockShift
	b.dirty[blk>>6] |= 1 << (blk & 63)
	b.clean = false
}

const (
	freeTag  = 1
	allocTag = freeTag + MaxOrder + 1
)

// NewBuddy creates an allocator over nframes frames starting at PFN base.
func NewBuddy(base, nframes uint64) *Buddy {
	blocks := (nframes + (1 << dirtyBlockShift) - 1) >> dirtyBlockShift
	b := &Buddy{
		base:       base,
		nframes:    nframes,
		freeFrames: nframes,
		dirty:      make([]uint64, (blocks+63)/64),
	}
	for o := range b.head {
		b.head[o] = noFrame
	}
	return b
}

// FreeFrames returns the number of currently free frames.
func (b *Buddy) FreeFrames() uint64 { return b.freeFrames }

// TotalFrames returns the managed frame count.
func (b *Buddy) TotalFrames() uint64 { return b.nframes }

// grow extends the tracking arrays to cover offsets [0, n), doubling the
// allocation so repeated watermark advances amortize to O(1) per frame.
func (b *Buddy) grow(n uint64) {
	if uint64(len(b.state)) >= n {
		return
	}
	c := uint64(1024)
	for c < n {
		c *= 2
	}
	if c > b.nframes {
		c = b.nframes
	}
	ns := make([]uint8, c)
	copy(ns, b.state)
	np := make([]int32, c)
	copy(np, b.prev)
	nn := make([]int32, c)
	copy(nn, b.next)
	b.state, b.prev, b.next = ns, np, nn
}

// push makes offset off the head of order o's free list.
func (b *Buddy) push(off uint64, o int) {
	h := b.head[o]
	b.prev[off] = noFrame
	b.next[off] = h
	if h != noFrame {
		b.prev[h] = int32(off)
		b.markDirty(uint64(h))
	}
	b.head[o] = int32(off)
	b.state[off] = freeTag + uint8(o)
	b.markDirty(off)
}

// unlink removes free block head off from order o's list.
func (b *Buddy) unlink(off uint64, o int) {
	p, n := b.prev[off], b.next[off]
	if p != noFrame {
		b.next[p] = n
		b.markDirty(uint64(p))
	} else {
		b.head[o] = n
	}
	if n != noFrame {
		b.prev[n] = p
		b.markDirty(uint64(n))
	}
	b.state[off] = 0
	b.markDirty(off)
}

// Alloc returns the first frame of a free 2^order block, splitting larger
// blocks as needed. ok is false when memory is exhausted.
func (b *Buddy) Alloc(order int) (frame uint64, ok bool) {
	if order < 0 || order > MaxOrder {
		return 0, false
	}
	o := order
	for o <= MaxOrder && b.head[o] == noFrame {
		o++
	}
	var off uint64
	if o <= MaxOrder {
		off = uint64(b.head[o])
		b.unlink(off, o)
		// Split down to the requested order, freeing the upper halves.
		for o > order {
			o--
			b.push(off+(1<<o), o)
		}
	} else {
		// Carve an aligned block from the pristine region, pushing the
		// alignment gap onto the free lists as maximal aligned blocks.
		size := uint64(1) << order
		aligned := (b.watermark + size - 1) &^ (size - 1)
		if aligned+size > b.nframes {
			return 0, false
		}
		b.grow(aligned + size)
		for w := b.watermark; w < aligned; {
			g := 0
			for g < MaxOrder && w%(2<<g) == 0 && w+(2<<g) <= aligned {
				g++
			}
			b.push(w, g)
			w += 1 << g
		}
		b.watermark = aligned + size
		off = aligned
	}
	b.state[off] = allocTag + uint8(order)
	b.markDirty(off)
	b.freeFrames -= 1 << order
	return b.base + off, true
}

// Free returns a block to the allocator, merging with its buddy as long as
// the buddy is also a free block of the same order.
func (b *Buddy) Free(frame uint64) error {
	off := frame - b.base
	if off >= uint64(len(b.state)) || b.state[off] < allocTag {
		return fmt.Errorf("kernel: buddy free of unallocated frame %#x", frame)
	}
	order := int(b.state[off] - allocTag)
	b.state[off] = 0
	b.markDirty(off)
	b.freeFrames += uint64(1) << order
	b.merge(off, order)
	return nil
}

// merge pushes the free block of the given order at off, first merging it
// with its buddy for as long as the buddy is a free block of the same order.
func (b *Buddy) merge(off uint64, order int) {
	for order < MaxOrder {
		buddy := off ^ (1 << order)
		// A pristine-region buddy is free but not mergeable: carving never
		// re-forms the watermark, so stop at the boundary.
		if buddy >= uint64(len(b.state)) || b.state[buddy] != freeTag+uint8(order) {
			break
		}
		b.unlink(buddy, order)
		if buddy < off {
			off = buddy
		}
		order++
	}
	b.push(off, order)
}

// FreeRun frees the n frames [frame, frame+n) with exactly the effect of n
// ascending Free calls: the same states, list order, free count, dirty
// windows and first error. The run is split into maximal aligned blocks. A
// block of order k >= 1 whose frames are all allocated order-0 blocks is
// freed at once: frame by frame, each order j < k would see one transient
// sub-block pushed and unlinked again, always at the head of list j, which
// leaves the lists as they were except that their old heads are written
// (and so dirtied); then the last free merges on from order k. Any other
// block goes through Free frame by frame.
func (b *Buddy) FreeRun(frame, n uint64) error {
	off, end := frame-b.base, frame-b.base+n
	if frame < b.base || end < off {
		// Out of range: let Free report it.
		for i := uint64(0); i < n; i++ {
			if err := b.Free(frame + i); err != nil {
				return err
			}
		}
		return nil
	}
	for off < end {
		k := 0
		for k < MaxOrder && off&(2<<k-1) == 0 && off+2<<k <= end {
			k++
		}
		size := uint64(1) << k
		if k == 0 || !b.allocatedSingles(b.base+off, size) {
			for f := off; f < off+size; f++ {
				if err := b.Free(b.base + f); err != nil {
					return err
				}
			}
			off += size
			continue
		}
		for j := 0; j < k; j++ {
			if h := b.head[j]; h != noFrame {
				b.markDirty(uint64(h))
			}
		}
		for f := off; f < off+size; f++ {
			b.state[f] = 0
		}
		for w := off >> dirtyBlockShift; w <= (off+size-1)>>dirtyBlockShift; w++ {
			b.markDirty(w << dirtyBlockShift)
		}
		b.freeFrames += size
		b.merge(off, k)
		off += size
	}
	return nil
}

// allocatedSingles reports whether every frame in [frame, frame+n) is an
// allocated order-0 block.
func (b *Buddy) allocatedSingles(frame, n uint64) bool {
	off := frame - b.base
	if frame < b.base || off+n > uint64(len(b.state)) {
		return false
	}
	for _, s := range b.state[off : off+n] {
		if s != allocTag {
			return false
		}
	}
	return true
}

// blocksAtOrder returns the number of free blocks on order o's list.
func (b *Buddy) blocksAtOrder(o int) int {
	n := 0
	for f := b.head[o]; f != noFrame; f = b.next[f] {
		n++
	}
	return n
}

// checkIntegrity validates that free blocks do not overlap and, together
// with the pristine region, cover exactly freeFrames frames. Used by tests.
func (b *Buddy) checkIntegrity() error {
	seen := make(map[uint64]struct{})
	count := b.nframes - b.watermark
	for o := 0; o <= MaxOrder; o++ {
		for f := b.head[o]; f != noFrame; f = b.next[f] {
			off := uint64(f)
			if b.state[off] != freeTag+uint8(o) {
				return fmt.Errorf("kernel: free block %#x has state %d, want order %d", off, b.state[off], o)
			}
			if off+(1<<o) > b.watermark {
				return fmt.Errorf("kernel: free block %#x order %d crosses watermark %#x", off, o, b.watermark)
			}
			for i := uint64(0); i < 1<<o; i++ {
				if _, dup := seen[off+i]; dup {
					return fmt.Errorf("kernel: frame %#x in two free blocks", off+i)
				}
				seen[off+i] = struct{}{}
			}
			count += 1 << o
		}
	}
	if count != b.freeFrames {
		return fmt.Errorf("kernel: free blocks hold %d frames, counter says %d", count, b.freeFrames)
	}
	return nil
}
