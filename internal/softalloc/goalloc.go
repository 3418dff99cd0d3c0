package softalloc

import (
	"fmt"
	"math/bits"
	"sort"

	"memento/internal/config"
	"memento/internal/kernel"
)

// GoAlloc parameters, modeled on the go-1.13 runtime the paper instruments:
// the heap reserves large arenas from the OS (64 MiB on linux/amd64) and
// carves them into 8 KiB spans; a per-P mcache serves size classes without
// locks; garbage is collected by concurrent mark-sweep. For short serverless
// functions the collector never runs (Fig 3's Golang lifetimes), so all
// memory is batch-freed by the OS at exit; the long-running platform
// operations do collect (Section 2.2).
const (
	goArenaBytes = 64 << 20
	goSpanBytes  = 8 << 10
	goMaxSmall   = 512 // Memento-relevant small classes; larger goes large path
	goClassStep  = 8
	goNumClasses = goMaxSmall / goClassStep
)

// goSpan is an 8 KiB span serving one size class.
type goSpan struct {
	base     uint64
	class    int
	objSize  uint64
	capacity int // 0 for a span lost to a failed metadata write
	used     int
	// free[fl:fl+nfree] holds the span's free object indices in the
	// GoAlloc's shared slab, and bits[bm:] its owned bitmap (live objects).
	fl, bm int32
	nfree  int
}

// goArena is one 64 MiB reservation carved into spans on demand.
type goArena struct {
	base     uint64
	nextSpan uint64
	// span0 is the slab index of the arena's first span: spans are carved
	// from the last arena only, so each arena's spans are consecutive.
	span0 int32
}

// GoAlloc is the Go-runtime-style span allocator with mark-sweep GC. Its
// spans live by value in one slab, found from an object address through
// its arena and the span offset within it.
type GoAlloc struct {
	env
	arenas []goArena
	// mcache: spans with free slots per class (head is the active span).
	mcache  [goNumClasses][]int32
	spans   []goSpan
	free    []uint16
	bits    []uint64
	large   LargeAlloc
	stats   Stats
	liveObj uint64
}

// NewGoAlloc creates the allocator.
func NewGoAlloc(cfg config.Machine, k *kernel.Kernel, as *kernel.AddressSpace, mem VMem) *GoAlloc {
	g := new(GoAlloc)
	g.Attach(cfg, k, as, mem)
	return g
}

// Attach wires the allocator to a machine's configuration, kernel,
// address space and memory, whatever it served before. Its state is kept
// for a Restore to replace, which then reuses the slabs it holds.
func (g *GoAlloc) Attach(cfg config.Machine, k *kernel.Kernel, as *kernel.AddressSpace, mem VMem) {
	g.env = env{cfg: cfg, k: k, as: as, mem: mem}
	g.large.Attach(cfg, k, as, mem)
}

// Name implements Allocator.
func (g *GoAlloc) Name() string { return "goalloc" }

// Init reserves the first heap arena: a very large lazy mapping, which is
// why MAP_POPULATE inflates Golang footprints 8.6x in §6.6.
func (g *GoAlloc) Init() (uint64, error) {
	cycles, err := g.grow()
	if err != nil {
		return cycles, err
	}
	cycles += g.instr(2000) // runtime mheap init
	return cycles, nil
}

// grow maps one more 64 MiB arena.
func (g *GoAlloc) grow() (uint64, error) {
	va, cycles, err := g.k.Mmap(g.as, goArenaBytes, false)
	if err != nil {
		return cycles, fmt.Errorf("goalloc: heap arena: %w", err)
	}
	g.stats.ArenaMmaps++
	g.arenas = append(g.arenas, goArena{base: va})
	return cycles, nil
}

// Stats implements Allocator.
func (g *GoAlloc) Stats() Stats { return g.stats }

// LiveObjects returns the number of live small objects (GC mark set size).
func (g *GoAlloc) LiveObjects() uint64 { return g.liveObj }

// spanOf returns the span holding va and the object index va names, if va
// is an object start in a carved span.
func (g *GoAlloc) spanOf(va uint64) (sp int32, idx uint64, ok bool) {
	// The last arena based at or below va.
	i := sort.Search(len(g.arenas), func(i int) bool { return g.arenas[i].base > va })
	if i == 0 {
		return 0, 0, false
	}
	a := &g.arenas[i-1]
	off := va - a.base
	if off >= a.nextSpan {
		return 0, 0, false
	}
	sp = a.span0 + int32(off/goSpanBytes)
	span := &g.spans[sp]
	rel := va - span.base
	if span.capacity == 0 || rel%span.objSize != 0 || rel/span.objSize >= uint64(span.capacity) {
		return 0, 0, false
	}
	return sp, rel / span.objSize, true
}

// owned returns the word and mask of object idx in span sp's bitmap.
func (g *GoAlloc) owned(sp int32, idx uint64) (*uint64, uint64) {
	return &g.bits[g.spans[sp].bm+int32(idx/64)], 1 << (idx % 64)
}

// Alloc implements Allocator: mcache span pop, plus object zeroing
// (mallocgc zeroes memory, so a fresh object's lines are written here).
func (g *GoAlloc) Alloc(size uint64) (uint64, uint64, error) {
	g.stats.Allocs++
	if size > goMaxSmall {
		g.stats.LargeAllocs++
		return g.large.Alloc(size)
	}
	cls, clsSize := sizeClassOf(size, goClassStep, goMaxSmall)
	cycles := g.instr(24) // mallocgc fast path
	sp, c, err := g.spanFor(cls)
	cycles += c
	if err != nil {
		return 0, cycles, err
	}
	span := &g.spans[sp]
	span.nfree--
	idx := uint64(g.free[int(span.fl)+span.nfree])
	span.used++
	va := span.base + idx*span.objSize
	w, m := g.owned(sp, idx)
	*w |= m
	g.liveObj++
	// Zero the object (mallocgc needzero): overlapped stores, so the
	// serialized per-line latencies are divided by the store MLP.
	var zero uint64
	lines := uint64(0)
	for off := uint64(0); off < clsSize; off += config.LineSize {
		zc, zerr := g.mem.AccessVA(va+off, true)
		zero += zc
		if zerr != nil {
			g.stats.UserMMCycles += cycles + zero
			return 0, cycles + zero, zerr
		}
		lines++
	}
	mlp := lines
	if mlp > 4 {
		mlp = 4
	}
	cycles += zero / mlp
	if span.nfree == 0 {
		g.popSpan(sp)
	}
	g.stats.FastPathHits++
	g.stats.UserMMCycles += cycles
	return va, cycles, nil
}

// spanFor returns a span with a free slot, carving one from an arena on
// demand (mcentral/mheap refill).
func (g *GoAlloc) spanFor(cls int) (int32, uint64, error) {
	if ss := g.mcache[cls]; len(ss) > 0 {
		return ss[len(ss)-1], 0, nil
	}
	g.stats.SlowPathRuns++
	var cycles uint64
	cycles += g.instr(g.cfg.Cost.UserSlowPathInstrs)
	arena := &g.arenas[len(g.arenas)-1]
	if arena.nextSpan+goSpanBytes > goArenaBytes {
		c, err := g.grow()
		cycles += c
		if err != nil {
			return 0, cycles, err
		}
		arena = &g.arenas[len(g.arenas)-1]
	}
	if arena.nextSpan == 0 {
		arena.span0 = int32(len(g.spans))
	}
	base := arena.base + arena.nextSpan
	arena.nextSpan += goSpanBytes
	sp := int32(len(g.spans))
	g.spans = append(g.spans, goSpan{base: base, class: cls, objSize: uint64(cls+1) * goClassStep})
	// Span metadata init. A span whose write fails is lost: its slot stays
	// in the slab with no capacity.
	if err := g.access(&cycles, base, true); err != nil {
		return 0, cycles, err
	}
	span := &g.spans[sp]
	span.capacity = int(uint64(goSpanBytes) / span.objSize)
	span.fl, span.nfree = int32(len(g.free)), span.capacity
	g.free = grow(g.free, span.capacity)
	for i := range g.free[span.fl:] {
		g.free[int(span.fl)+i] = uint16(span.capacity - 1 - i)
	}
	span.bm = int32(len(g.bits))
	g.bits = grow(g.bits, (span.capacity+63)/64)
	clear(g.bits[span.bm:])
	g.mcache[cls] = append(g.mcache[cls], sp)
	return sp, cycles, nil
}

func (g *GoAlloc) popSpan(sp int32) {
	cls := g.spans[sp].class
	ss := g.mcache[cls]
	for i, s := range ss {
		if s == sp {
			g.mcache[cls] = append(ss[:i], ss[i+1:]...)
			return
		}
	}
}

// Free implements Allocator. In the Go runtime individual objects are only
// freed by the GC sweep, so this is the (cheap) sweep path; the mark cost is
// charged separately via MarkCost at collection events.
func (g *GoAlloc) Free(va uint64) (uint64, error) {
	if g.large.Owns(va) {
		g.stats.Frees++
		return g.large.Free(va)
	}
	sp, idx, ok := g.spanOf(va)
	if !ok {
		return 0, ErrBadFree
	}
	w, m := g.owned(sp, idx)
	if *w&m == 0 {
		return 0, ErrBadFree
	}
	g.stats.Frees++
	span := &g.spans[sp]
	wasFull := span.nfree == 0
	g.free[int(span.fl)+span.nfree] = uint16(idx)
	span.nfree++
	span.used--
	*w &^= m
	g.liveObj--
	cycles := g.instr(9) // sweep clears the mark bit
	if err := g.access(&cycles, span.base, true); err != nil {
		g.stats.UserMMCycles += cycles
		g.stats.GCCycles += cycles
		return cycles, err
	}
	if wasFull {
		g.mcache[span.class] = append(g.mcache[span.class], sp)
	}
	g.stats.UserMMCycles += cycles
	g.stats.GCCycles += cycles
	return cycles, nil
}

// MarkCost charges one GC mark phase over the current live set: scanning
// object graphs costs instructions plus a header access per live object.
func (g *GoAlloc) MarkCost() (uint64, error) {
	var cycles uint64
	cycles += g.instr(5000) // GC start/stop, root scan
	perObj := g.instr(30)
	cycles += perObj * g.liveObj
	// Touch a sample of live object headers through the hierarchy (cap the
	// modeled traffic at 4096 accesses; marking is memory-bound but the
	// trace-driven model only needs its magnitude). Spans sit in the slab
	// in address order, so walking their owned bitmaps visits the live
	// objects in address order and runs stay deterministic.
	sampled := 0
spans:
	for sp := range g.spans {
		span := &g.spans[sp]
		for wi, word := range g.bits[span.bm:][:(span.capacity+63)/64] {
			for ; word != 0; word &= word - 1 {
				if sampled == 4096 {
					break spans
				}
				sampled++
				idx := uint64(wi*64 + bits.TrailingZeros64(word))
				if err := g.access(&cycles, span.base+idx*span.objSize, false); err != nil {
					g.stats.GCCycles += cycles
					g.stats.GCCollections++
					g.stats.UserMMCycles += cycles
					return cycles, err
				}
			}
		}
	}
	g.stats.GCCycles += cycles
	g.stats.GCCollections++
	g.stats.UserMMCycles += cycles
	return cycles, nil
}

// SizeOf implements Allocator.
func (g *GoAlloc) SizeOf(va uint64) (uint64, bool) {
	if g.large.Owns(va) {
		return g.large.SizeOf(va)
	}
	sp, idx, ok := g.spanOf(va)
	if !ok {
		return 0, false
	}
	if w, m := g.owned(sp, idx); *w&m == 0 {
		return 0, false
	}
	return g.spans[sp].objSize, true
}

// Occupancy implements Allocator: live objects over carved span slots.
// Every carved span is in the mcache or full of live objects, so the slots
// are the slab's whole capacity.
func (g *GoAlloc) Occupancy() float64 {
	var cap int
	for i := range g.spans {
		cap += g.spans[i].capacity
	}
	if cap == 0 {
		return 0
	}
	return float64(g.liveObj) / float64(cap)
}
