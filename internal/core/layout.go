// Package core implements Memento, the paper's primary contribution: the
// arena-based hardware object allocator with its Hardware Object Table
// (Section 3.1), the hardware page allocator with the Arena Allocation
// Cache and the hardware-managed Memento page table (Section 3.2), and the
// main-memory bypass mechanism (Section 3.3). The ISA surface (obj-alloc /
// obj-free) is exposed by Unit.
package core

import (
	"fmt"

	"memento/internal/config"
)

// Default Memento region placement: the OS reserves a contiguous virtual
// range and exposes it via the MRS/MRE region control registers.
const (
	// DefaultRegionStart is the default MRS value.
	DefaultRegionStart uint64 = 0x6000_0000_0000
	// DefaultRegionBytes is the default region size (4 GiB -> 64 MiB
	// stripe per size class: ample for serverless footprints while keeping
	// the classes' page-table leaves within a few upper-level nodes).
	DefaultRegionBytes uint64 = 4 << 30
)

// headerReserve is the space reserved at the start of each arena for the
// header (VA field, 256-bit bitmap, bypass counter, prev/next): one cache
// line.
const headerReserve = config.LineSize

// Layout captures the region geometry: MRS, MRE, and the per-size-class
// stripes that make size-class and arena-base computation pure bit math
// (Section 3.2, "Managing Arena Virtual Addresses").
type Layout struct {
	// MRS and MRE are the Memento Region Start/End register values.
	MRS, MRE uint64
	// classes is the number of size classes the region is divided into.
	classes int
	// stripeBytes is the per-class share of the region.
	stripeBytes uint64
	// step is the size-class granularity in bytes.
	step uint64
	// objsPerArena is the fixed object count per arena.
	objsPerArena uint64
	// arenaBytes[c] is the (power-of-two) arena footprint for class c.
	arenaBytes []uint64
}

// NewLayout builds the region layout from the machine configuration.
func NewLayout(mc config.MementoConfig, mrs, regionBytes uint64) (*Layout, error) {
	classes := mc.NumSizeClasses()
	if classes <= 0 {
		return nil, fmt.Errorf("core: no size classes")
	}
	if regionBytes%uint64(classes) != 0 {
		return nil, fmt.Errorf("core: region %d not divisible into %d stripes", regionBytes, classes)
	}
	stripe := regionBytes / uint64(classes)
	if stripe&(stripe-1) != 0 {
		return nil, fmt.Errorf("core: stripe size %d not a power of two", stripe)
	}
	l := &Layout{
		MRS:          mrs,
		MRE:          mrs + regionBytes,
		classes:      classes,
		stripeBytes:  stripe,
		step:         uint64(mc.SizeClassStep),
		objsPerArena: uint64(mc.ObjectsPerArena),
		arenaBytes:   make([]uint64, classes),
	}
	for c := 0; c < classes; c++ {
		raw := headerReserve + l.ClassSize(c)*l.objsPerArena
		l.arenaBytes[c] = ceilPow2(ceilPages(raw))
	}
	return l, nil
}

// ceilPages rounds n up to a whole number of bytes covering full pages.
func ceilPages(n uint64) uint64 {
	return (n + config.PageSize - 1) &^ uint64(config.PageSize-1)
}

// ceilPow2 rounds n up to the next power of two.
func ceilPow2(n uint64) uint64 {
	if n == 0 {
		return 1
	}
	p := uint64(1)
	for p < n {
		p <<= 1
	}
	return p
}

// Classes returns the number of size classes.
func (l *Layout) Classes() int { return l.classes }

// ClassSize returns the object size of class c (c is zero-based: class 0
// serves 1..8 bytes).
func (l *Layout) ClassSize(c int) uint64 { return uint64(c+1) * l.step }

// ClassOf returns the size class for a request, or false if the request is
// larger than the hardware maximum and must go to software.
func (l *Layout) ClassOf(size uint64) (int, bool) {
	if size == 0 {
		size = 1
	}
	c := int((size + l.step - 1) / l.step)
	if c > l.classes {
		return 0, false
	}
	return c - 1, true
}

// ArenaBytes returns the virtual footprint of one arena of class c.
func (l *Layout) ArenaBytes(c int) uint64 { return l.arenaBytes[c] }

// ArenaPages returns the page count of one arena of class c.
func (l *Layout) ArenaPages(c int) uint64 { return l.arenaBytes[c] >> config.PageShift }

// ObjectsPerArena returns the fixed per-arena object count.
func (l *Layout) ObjectsPerArena() int { return int(l.objsPerArena) }

// Contains reports whether va lies in the Memento region (the MMU's
// MRS/MRE comparison).
func (l *Layout) Contains(va uint64) bool { return va >= l.MRS && va < l.MRE }

// StripeStart returns the first VA of class c's stripe.
func (l *Layout) StripeStart(c int) uint64 { return l.MRS + uint64(c)*l.stripeBytes }

// Decompose performs the hardware's bit-math decode of an object address:
// size class, arena base VA, and object index within the arena body.
// ok is false when the address is outside the region or not a valid object
// start for its class.
func (l *Layout) Decompose(va uint64) (class int, arenaBase uint64, objIdx int, ok bool) {
	if !l.Contains(va) {
		return 0, 0, 0, false
	}
	off := va - l.MRS
	class = int(off / l.stripeBytes)
	aoff := off % l.stripeBytes
	ab := l.arenaBytes[class]
	arenaBase = l.StripeStart(class) + (aoff/ab)*ab
	body := arenaBase + headerReserve
	if va < body {
		return class, arenaBase, 0, false // points into the header
	}
	size := l.ClassSize(class)
	rel := va - body
	if rel%size != 0 {
		return class, arenaBase, 0, false // not an object start
	}
	objIdx = int(rel / size)
	if objIdx >= int(l.objsPerArena) {
		return class, arenaBase, 0, false // inside arena padding
	}
	return class, arenaBase, objIdx, true
}

// StripeIndex returns the index of the arena based at arenaBase within
// class c's stripe; ok is false outside the stripe.
func (l *Layout) StripeIndex(c int, arenaBase uint64) (int, bool) {
	start := l.StripeStart(c)
	if arenaBase < start || arenaBase-start >= l.stripeBytes {
		return 0, false
	}
	return int((arenaBase - start) / l.arenaBytes[c]), true
}

// ObjectVA returns the address of object idx in the arena at arenaBase of
// the given class.
func (l *Layout) ObjectVA(class int, arenaBase uint64, idx int) uint64 {
	return arenaBase + headerReserve + uint64(idx)*l.ClassSize(class)
}

// BodyLineIndex returns the cache-line index of va within the arena body,
// the quantity the 11-bit bypass counter tracks (Section 3.3).
func (l *Layout) BodyLineIndex(arenaBase, va uint64) int {
	return int((va - arenaBase - headerReserve) / config.LineSize)
}
