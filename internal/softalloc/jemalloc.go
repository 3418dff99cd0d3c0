package softalloc

import (
	"fmt"
	"sort"

	"memento/internal/config"
	"memento/internal/kernel"
)

// JEMalloc parameters. The C++ workloads in the paper link an instrumented
// jemalloc; its two behaviours that drive the results are (i) a thread cache
// that makes the fast path extremely short — hence the 96 % userspace MM
// share of Table 2 — and (ii) an eagerly pre-mapped, pre-faulted pool that
// keeps kernel costs away but wastes memory (Sections 6.1 and 6.3).
const (
	jeDefaultChunkBytes = 256 << 10
	jeRunPages          = 4
	jeRunBytes          = jeRunPages * config.PageSize
	jeMaxSmall          = 512
	jeClassStep         = 8
	jeNumClasses        = jeMaxSmall / jeClassStep
	jeDefaultTcache     = 16
	jeDefaultPrealloc   = 4
)

// JEMallocOpts tunes the allocator (the §6.6 "tuning software allocators"
// sensitivity study sweeps ChunkBytes).
type JEMallocOpts struct {
	// ChunkBytes is the arena chunk size mapped from the OS.
	ChunkBytes uint64
	// PreallocChunks are mapped and pre-faulted at Init.
	PreallocChunks int
	// TcacheSize bounds the per-class thread cache.
	TcacheSize int
}

// DefaultJEMallocOpts returns the paper-calibrated defaults.
func DefaultJEMallocOpts() JEMallocOpts {
	return JEMallocOpts{ChunkBytes: jeDefaultChunkBytes, PreallocChunks: jeDefaultPrealloc, TcacheSize: jeDefaultTcache}
}

// jeRun is a 16 KiB slab serving one size class.
type jeRun struct {
	base     uint64
	class    int
	objSize  uint64
	capacity int // 0 for a run lost to a failed header write
	used     int
	// free[fl:fl+nfree] holds the run's free object indices in the
	// JEMalloc's shared slab, and bits[bm:bm+2*words] its two per-object
	// bitmaps: owned (handed out by the run and not flushed back, the
	// objects a Free may name) then cached (parked in the thread cache).
	fl, bm int32
	nfree  int
}

// words returns the length of each of the run's bitmaps.
func (r *jeRun) words() int32 { return int32(r.capacity+63) / 64 }

// jeChunk is one mapped arena chunk carved into runs.
type jeChunk struct {
	base uint64
	// nextRun is the bump offset of the next uncarved run.
	nextRun uint64
	size    uint64
	// run0 is the slab index of the chunk's first run: runs are carved
	// from the first chunk with room and chunks never shrink, so each
	// chunk's runs are consecutive in the slab.
	run0 int32
}

// JEMalloc is the jemalloc-style slab allocator with a thread cache. Its
// runs live by value in one slab, found from an object address through
// its chunk and the run offset within it.
type JEMalloc struct {
	env
	opts   JEMallocOpts
	chunks []jeChunk
	tcache [jeNumClasses][]uint64
	runs   [jeNumClasses][]int32 // runs with free slots per class
	slab   []jeRun
	free   []uint16
	bits   []uint64
	large  LargeAlloc
	stats  Stats
	// initDone is set once Init has pre-mapped the pool.
	initDone bool
}

// NewJEMalloc creates the allocator.
func NewJEMalloc(cfg config.Machine, k *kernel.Kernel, as *kernel.AddressSpace, mem VMem, opts JEMallocOpts) *JEMalloc {
	if opts.ChunkBytes == 0 {
		opts = DefaultJEMallocOpts()
	}
	j := &JEMalloc{opts: opts}
	j.Attach(cfg, k, as, mem)
	return j
}

// Attach wires the allocator to a machine's configuration, kernel,
// address space and memory, whatever it served before. Its state is kept
// for a Restore to replace (options included), which then reuses the
// slabs it holds.
func (j *JEMalloc) Attach(cfg config.Machine, k *kernel.Kernel, as *kernel.AddressSpace, mem VMem) {
	j.env = env{cfg: cfg, k: k, as: as, mem: mem}
	j.large.Attach(cfg, k, as, mem)
}

// Name implements Allocator.
func (j *JEMalloc) Name() string { return "jemalloc" }

// Init pre-maps and pre-faults the chunk pool, the library-initialization
// behaviour §6.1 describes.
func (j *JEMalloc) Init() (uint64, error) {
	var cycles uint64
	for i := 0; i < j.opts.PreallocChunks; i++ {
		va, c, err := j.k.Mmap(j.as, j.opts.ChunkBytes, true /* pre-fault */)
		cycles += c
		if err != nil {
			return cycles, fmt.Errorf("jemalloc: prealloc chunk: %w", err)
		}
		j.stats.ArenaMmaps++
		j.chunks = append(j.chunks, jeChunk{base: va, size: j.opts.ChunkBytes})
	}
	cycles += j.instr(3000) // jemalloc bootstrap
	j.initDone = true
	return cycles, nil
}

// Stats implements Allocator.
func (j *JEMalloc) Stats() Stats { return j.stats }

// runOf returns the run holding va and the object index va names, if va
// is an object start in a carved run.
func (j *JEMalloc) runOf(va uint64) (r int32, idx uint64, ok bool) {
	// The last chunk based at or below va.
	i := sort.Search(len(j.chunks), func(i int) bool { return j.chunks[i].base > va })
	if i == 0 {
		return 0, 0, false
	}
	c := &j.chunks[i-1]
	off := va - c.base
	if off >= c.nextRun {
		return 0, 0, false
	}
	r = c.run0 + int32(off/jeRunBytes)
	run := &j.slab[r]
	rel := va - run.base
	if run.capacity == 0 || rel%run.objSize != 0 || rel/run.objSize >= uint64(run.capacity) {
		return 0, 0, false
	}
	return r, rel / run.objSize, true
}

// bit returns the word and mask of object idx in bitmap which (0 owned, 1
// cached) of run r.
func (j *JEMalloc) bit(r int32, which int32, idx uint64) (*uint64, uint64) {
	run := &j.slab[r]
	return &j.bits[run.bm+which*run.words()+int32(idx/64)], 1 << (idx % 64)
}

// Alloc implements Allocator: tcache pop on the fast path, run refill on
// miss, new run carve / chunk mmap on the slow path.
func (j *JEMalloc) Alloc(size uint64) (uint64, uint64, error) {
	j.stats.Allocs++
	if size > jeMaxSmall {
		j.stats.LargeAllocs++
		return j.large.Alloc(size)
	}
	cls, _ := sizeClassOf(size, jeClassStep, jeMaxSmall)
	// Fast path: thread cache.
	if tc := j.tcache[cls]; len(tc) > 0 {
		va := tc[len(tc)-1]
		j.tcache[cls] = tc[:len(tc)-1]
		r, idx, _ := j.runOf(va)
		w, m := j.bit(r, 1, idx)
		*w &^= m
		cycles := j.instr(18)
		// Read the cached object link.
		if err := j.access(&cycles, va, false); err != nil {
			j.stats.UserMMCycles += cycles
			return 0, cycles, err
		}
		j.stats.FastPathHits++
		j.stats.UserMMCycles += cycles
		return va, cycles, nil
	}
	// Refill from a run.
	cycles := j.instr(55)
	r, c, err := j.runFor(cls)
	cycles += c
	if err != nil {
		return 0, cycles, err
	}
	run := &j.slab[r]
	run.nfree--
	idx := uint64(j.free[int(run.fl)+run.nfree])
	run.used++
	va := run.base + idx*run.objSize
	w, m := j.bit(r, 0, idx)
	*w |= m
	// Run header/bitmap update, then the object link read.
	if err := j.access(&cycles, run.base, true); err != nil {
		j.stats.UserMMCycles += cycles
		return 0, cycles, err
	}
	if err := j.access(&cycles, va, false); err != nil {
		j.stats.UserMMCycles += cycles
		return 0, cycles, err
	}
	if run.nfree == 0 {
		j.removeRun(r)
	}
	j.stats.UserMMCycles += cycles
	return va, cycles, nil
}

// runFor returns a run with space for cls, carving or mapping as needed.
func (j *JEMalloc) runFor(cls int) (int32, uint64, error) {
	if rs := j.runs[cls]; len(rs) > 0 {
		return rs[len(rs)-1], 0, nil
	}
	j.stats.SlowPathRuns++
	var cycles uint64
	cycles += j.instr(j.cfg.Cost.UserSlowPathInstrs)
	// Carve a run from a chunk with room.
	ci := -1
	for i := range j.chunks {
		if c := &j.chunks[i]; c.nextRun+jeRunBytes <= c.size {
			ci = i
			break
		}
	}
	if ci < 0 {
		va, c, err := j.k.Mmap(j.as, j.opts.ChunkBytes, false)
		cycles += c
		if err != nil {
			return 0, cycles, fmt.Errorf("jemalloc: new chunk: %w", err)
		}
		j.stats.ArenaMmaps++
		ci = len(j.chunks)
		j.chunks = append(j.chunks, jeChunk{base: va, size: j.opts.ChunkBytes})
	}
	chunk := &j.chunks[ci]
	if chunk.nextRun == 0 {
		chunk.run0 = int32(len(j.slab))
	}
	base := chunk.base + chunk.nextRun
	chunk.nextRun += jeRunBytes
	r := int32(len(j.slab))
	j.slab = append(j.slab, jeRun{base: base, class: cls, objSize: uint64(cls+1) * jeClassStep})
	// Initialize the run header. A run whose header write fails is lost:
	// its slot stays in the slab with no capacity.
	if err := j.access(&cycles, base, true); err != nil {
		return 0, cycles, err
	}
	run := &j.slab[r]
	run.capacity = int(uint64(jeRunBytes) / run.objSize)
	run.fl, run.nfree = int32(len(j.free)), run.capacity
	j.free = grow(j.free, run.capacity)
	for i := range j.free[run.fl:] {
		j.free[int(run.fl)+i] = uint16(run.capacity - 1 - i)
	}
	run.bm = int32(len(j.bits))
	j.bits = grow(j.bits, 2*int(run.words()))
	clear(j.bits[run.bm:])
	j.runs[cls] = append(j.runs[cls], r)
	return r, cycles, nil
}

func (j *JEMalloc) removeRun(r int32) {
	cls := j.slab[r].class
	rs := j.runs[cls]
	for i, q := range rs {
		if q == r {
			j.runs[cls] = append(rs[:i], rs[i+1:]...)
			return
		}
	}
}

// Free implements Allocator: push onto the thread cache; flush half the
// cache back to runs when it overflows.
func (j *JEMalloc) Free(va uint64) (uint64, error) {
	if j.large.Owns(va) {
		j.stats.Frees++
		return j.large.Free(va)
	}
	r, idx, ok := j.runOf(va)
	if !ok {
		return 0, ErrBadFree
	}
	if w, m := j.bit(r, 0, idx); *w&m == 0 {
		return 0, ErrBadFree
	}
	if w, m := j.bit(r, 1, idx); *w&m != 0 {
		return 0, ErrBadFree
	}
	j.stats.Frees++
	cls := j.slab[r].class
	cycles := j.instr(16)
	// Write the tcache link into the object.
	if err := j.access(&cycles, va, true); err != nil {
		j.stats.UserMMCycles += cycles
		return cycles, err
	}
	j.tcache[cls] = append(j.tcache[cls], va)
	w, m := j.bit(r, 1, idx)
	*w |= m
	if len(j.tcache[cls]) > j.opts.TcacheSize {
		c, err := j.flushTcache(cls)
		cycles += c
		if err != nil {
			j.stats.UserMMCycles += cycles
			return cycles, err
		}
	}
	j.stats.UserMMCycles += cycles
	return cycles, nil
}

// flushTcache returns the older half of the class's thread cache to runs.
func (j *JEMalloc) flushTcache(cls int) (uint64, error) {
	tc := j.tcache[cls]
	n := len(tc) / 2
	var cycles uint64
	cycles += j.instr(20) // flush loop setup
	for i, va := range tc[:n] {
		r, idx, _ := j.runOf(va)
		run := &j.slab[r]
		wasFull := run.nfree == 0
		j.free[int(run.fl)+run.nfree] = uint16(idx)
		run.nfree++
		run.used--
		for which := int32(0); which < 2; which++ {
			w, m := j.bit(r, which, idx)
			*w &^= m
		}
		cycles += j.instr(6)
		if wasFull {
			j.runs[cls] = append(j.runs[cls], r)
		}
		if err := j.access(&cycles, run.base, true); err != nil {
			// Keep the not-yet-flushed tail cached so no object is lost.
			j.tcache[cls] = append(j.tcache[cls][:0], tc[i+1:]...)
			return cycles, err
		}
		// jemalloc retains empty runs and chunks in its pool (no munmap),
		// trading memory for speed — the utilization cost Fig 11 shows.
	}
	j.tcache[cls] = append(j.tcache[cls][:0], tc[n:]...)
	return cycles, nil
}

// SizeOf implements Allocator. Objects parked in the thread cache are
// still owned by their run until flushed.
func (j *JEMalloc) SizeOf(va uint64) (uint64, bool) {
	if j.large.Owns(va) {
		return j.large.SizeOf(va)
	}
	r, idx, ok := j.runOf(va)
	if !ok {
		return 0, false
	}
	if w, m := j.bit(r, 0, idx); *w&m == 0 {
		return 0, false
	}
	return j.slab[r].objSize, true
}

// cached returns the number of objects parked in the thread cache.
func (j *JEMalloc) cached() int {
	n := 0
	for cls := range j.tcache {
		n += len(j.tcache[cls])
	}
	return n
}

// Occupancy implements Allocator: live objects (excluding thread-cached
// ones) over the slots of carved runs.
func (j *JEMalloc) Occupancy() float64 {
	var used, cap int
	for i := range j.slab {
		used += j.slab[i].used
		cap += j.slab[i].capacity
	}
	used -= j.cached()
	if cap == 0 {
		return 0
	}
	if used < 0 {
		used = 0
	}
	return float64(used) / float64(cap)
}
