package softalloc

// The pointer-and-map allocators the slab allocators replaced, kept as
// test-only oracles: FuzzAllocatorsMatchOracle drives both through the
// same operations and requires the same addresses, cycles, errors,
// counters, occupancy, snapshot sizes and simulated accesses. Apart from
// the renames this is the code as it stood before the slabs.

import (
	"fmt"
	"sort"

	"memento/internal/config"
	"memento/internal/kernel"
)

// ---- large.go ----

// oracleLarge models the glibc malloc path for requests above the
// small-object threshold (Section 2.1: requests "larger than 512 bytes by
// default are directly serviced by malloc in glibc, which eventually calls
// mmap as well"): a brk-like heap with power-of-two bins, falling back to
// per-request mmap above MmapThreshold.
type oracleLarge struct {
	env
	// bumpVA/endVA delimit unused heap space in the current chunk.
	bumpVA, endVA uint64
	// bins[o] holds free blocks of size 1<<o.
	bins map[uint]([]uint64)
	// blocks maps live VA -> rounded block size.
	blocks map[uint64]uint64
	// mmapped marks live direct-mmap blocks.
	mmapped map[uint64]bool
	stats   Stats
}

// newOracleLarge creates the large-object path.
func newOracleLarge(cfg config.Machine, k *kernel.Kernel, as *kernel.AddressSpace, mem VMem) *oracleLarge {
	return &oracleLarge{
		env:     env{cfg: cfg, k: k, as: as, mem: mem},
		bins:    make(map[uint][]uint64),
		blocks:  make(map[uint64]uint64),
		mmapped: make(map[uint64]bool),
	}
}

// Name implements Allocator.
func (l *oracleLarge) Name() string { return "glibc-large" }

// Init implements Allocator.
func (l *oracleLarge) Init() (uint64, error) { return 0, nil }

// Stats implements Allocator.
func (l *oracleLarge) Stats() Stats { return l.stats }

// Alloc implements Allocator.
func (l *oracleLarge) Alloc(size uint64) (uint64, uint64, error) {
	l.stats.Allocs++
	if size > MmapThreshold {
		// Direct mmap, like glibc above the threshold.
		length := (size + config.PageSize - 1) &^ uint64(config.PageSize-1)
		va, cycles, err := l.k.Mmap(l.as, length, false)
		if err != nil {
			return 0, cycles, fmt.Errorf("glibc-large: direct mmap: %w", err)
		}
		l.stats.ArenaMmaps++
		l.blocks[va] = length
		l.mmapped[va] = true
		cycles += l.instr(120)
		l.stats.UserMMCycles += cycles
		return va, cycles, nil
	}
	order, block := binOf(size)
	cycles := l.instr(70) // bin selection, chunk bookkeeping
	if free := l.bins[order]; len(free) > 0 {
		va := free[len(free)-1]
		l.bins[order] = free[:len(free)-1]
		l.blocks[va] = block
		// Chunk header write.
		if err := l.access(&cycles, va, true); err != nil {
			l.stats.UserMMCycles += cycles
			return 0, cycles, err
		}
		l.stats.FastPathHits++
		l.stats.UserMMCycles += cycles
		return va, cycles, nil
	}
	// Carve from the heap tail, extending it if needed.
	if l.bumpVA+block > l.endVA {
		chunk := uint64(largeChunkBytes)
		if block > chunk {
			chunk = (block + largeChunkBytes - 1) &^ uint64(largeChunkBytes-1)
		}
		va, mmapCycles, err := l.k.Mmap(l.as, chunk, false)
		cycles += mmapCycles
		if err != nil {
			return 0, cycles, fmt.Errorf("glibc-large: heap extension: %w", err)
		}
		l.stats.ArenaMmaps++
		l.bumpVA, l.endVA = va, va+chunk
	}
	va := l.bumpVA
	l.bumpVA += block
	l.blocks[va] = block
	// Write the chunk header.
	if err := l.access(&cycles, va, true); err != nil {
		l.stats.UserMMCycles += cycles
		return 0, cycles, err
	}
	l.stats.UserMMCycles += cycles
	return va, cycles, nil
}

// Free implements Allocator: heap blocks go back to their bin; direct-mmap
// blocks are unmapped.
func (l *oracleLarge) Free(va uint64) (uint64, error) {
	size, ok := l.blocks[va]
	if !ok {
		return 0, ErrBadFree
	}
	delete(l.blocks, va)
	l.stats.Frees++
	if l.mmapped[va] {
		delete(l.mmapped, va)
		cycles, err := l.k.Munmap(l.as, va, size)
		if err != nil {
			return cycles, err
		}
		l.stats.ArenaMunmaps++
		l.stats.UserMMCycles += cycles
		return cycles, nil
	}
	cycles := l.instr(55)
	// Read the chunk header.
	if err := l.access(&cycles, va, false); err != nil {
		l.stats.UserMMCycles += cycles
		return cycles, err
	}
	order, _ := binOf(size)
	l.bins[order] = append(l.bins[order], va)
	l.stats.UserMMCycles += cycles
	return cycles, nil
}

// Owns reports whether va is a live large block.
func (l *oracleLarge) Owns(va uint64) bool {
	_, ok := l.blocks[va]
	return ok
}

// SizeOf implements Allocator.
func (l *oracleLarge) SizeOf(va uint64) (uint64, bool) {
	size, ok := l.blocks[va]
	return size, ok
}

// Occupancy implements Allocator: live bytes over held heap bytes.
func (l *oracleLarge) Occupancy() float64 {
	var live, held uint64
	for _, size := range l.blocks {
		live += size
		held += size
	}
	for order, frees := range l.bins {
		held += uint64(len(frees)) << order
	}
	if held == 0 {
		return 0
	}
	return float64(live) / float64(held)
}

// ---- pymalloc.go ----

// oPyPool is one 4 KiB pool serving a single size class.
type oPyPool struct {
	base     uint64 // VA of the pool (header at base)
	arena    *oPyArena
	class    int
	objSize  uint64
	capacity int
	// freeList holds free object indices; the head lives in the pool header
	// and links thread through the free objects themselves, which is what
	// the modeled memory accesses touch.
	freeList []uint16
	// allocated tracks per-object state for double-free detection.
	allocated []bool
	// used counts live objects.
	used int
	// inUsedList marks membership of the per-class used-pool list.
	inUsedList bool
	// assigned is true once the pool has been bound to a size class.
	assigned bool
}

// oPyArena is a 256 KiB mmap'd region split into pools.
type oPyArena struct {
	base      uint64
	pools     []*oPyPool
	freePools int
}

// oraclePy is the CPython-style small-object allocator.
type oraclePy struct {
	env
	usedPools [pyNumClasses][]*oPyPool
	freePools []*oPyPool
	arenas    []*oPyArena
	poolByVA  map[uint64]*oPyPool
	large     *oracleLarge
	stats     Stats
}

// newOraclePy creates the allocator for one process.
func newOraclePy(cfg config.Machine, k *kernel.Kernel, as *kernel.AddressSpace, mem VMem) *oraclePy {
	return &oraclePy{
		env:      env{cfg: cfg, k: k, as: as, mem: mem},
		poolByVA: make(map[uint64]*oPyPool),
		large:    newOracleLarge(cfg, k, as, mem),
	}
}

// Name implements Allocator.
func (p *oraclePy) Name() string { return "pymalloc" }

// Init implements Allocator; pymalloc sets up lazily, so this only charges
// a token interpreter-startup allocator cost.
func (p *oraclePy) Init() (uint64, error) {
	return p.instr(200), nil
}

// Stats implements Allocator.
func (p *oraclePy) Stats() Stats { return p.stats }

// Alloc implements Allocator, following Fig 1: compute size class (1),
// check per-class used pools (2), else grab a free pool (3), else mmap a
// new arena (4).
func (p *oraclePy) Alloc(size uint64) (uint64, uint64, error) {
	p.stats.Allocs++
	if size > pyMaxSmall {
		p.stats.LargeAllocs++
		return p.large.Alloc(size)
	}
	cls, _ := sizeClassOf(size, pyClassStep, pyMaxSmall)
	cycles := p.instr(p.cfg.Cost.UserAllocFastPathInstrs)

	pool, c, err := p.poolFor(cls)
	cycles += c
	if err != nil {
		return 0, cycles, err
	}
	// Pop the free-list head: read the pool header, read the free object's
	// embedded next-link, write the header back.
	idx := pool.freeList[len(pool.freeList)-1]
	pool.freeList = pool.freeList[:len(pool.freeList)-1]
	pool.allocated[idx] = true
	pool.used++
	va := pool.objectVA(int(idx))
	for _, acc := range [...]struct {
		va    uint64
		write bool
	}{{pool.base, false}, {va, false}, {pool.base, true}} {
		if err := p.access(&cycles, acc.va, acc.write); err != nil {
			p.stats.UserMMCycles += cycles
			return 0, cycles, err
		}
	}
	if len(pool.freeList) == 0 {
		// Pool is now full: unlink from the used list.
		p.removeUsed(pool)
		cycles += p.instr(12)
	}
	p.stats.FastPathHits++
	p.stats.UserMMCycles += cycles
	return va, cycles, nil
}

// objectVA returns the VA of object idx in the pool.
func (pl *oPyPool) objectVA(idx int) uint64 {
	return pl.base + pyPoolHeader + uint64(idx)*pl.objSize
}

// poolFor returns a pool with at least one free object for the class,
// refilling from the free-pool list or a fresh arena as needed.
func (p *oraclePy) poolFor(cls int) (*oPyPool, uint64, error) {
	var cycles uint64
	if pools := p.usedPools[cls]; len(pools) > 0 {
		return pools[len(pools)-1], 0, nil
	}
	p.stats.SlowPathRuns++
	cycles += p.instr(p.cfg.Cost.UserSlowPathInstrs)
	if len(p.freePools) == 0 {
		c, err := p.newArena()
		cycles += c
		if err != nil {
			return nil, cycles, err
		}
	}
	pool := p.freePools[len(p.freePools)-1]
	p.freePools = p.freePools[:len(p.freePools)-1]
	pool.arena.freePools--
	// Initialize the pool header for this class; the header write faults in
	// the pool's first page on a fresh arena.
	objSize := uint64(cls+1) * pyClassStep
	pool.class = cls
	pool.objSize = objSize
	pool.capacity = (pyPoolBytes - pyPoolHeader) / int(objSize)
	pool.freeList = pool.freeList[:0]
	for i := pool.capacity - 1; i >= 0; i-- {
		pool.freeList = append(pool.freeList, uint16(i))
	}
	pool.allocated = make([]bool, pool.capacity)
	pool.used = 0
	pool.assigned = true
	if err := p.access(&cycles, pool.base, true); err != nil {
		return nil, cycles, err
	}
	p.usedPools[cls] = append(p.usedPools[cls], pool)
	pool.inUsedList = true
	return pool, cycles, nil
}

// newArena mmaps a fresh 256 KiB arena and splits it into free pools.
func (p *oraclePy) newArena() (uint64, error) {
	va, cycles, err := p.k.Mmap(p.as, pyArenaBytes, false)
	if err != nil {
		return cycles, fmt.Errorf("pymalloc: new arena: %w", err)
	}
	p.stats.ArenaMmaps++
	a := &oPyArena{base: va, freePools: pyPoolsPerAren}
	for i := 0; i < pyPoolsPerAren; i++ {
		pool := &oPyPool{base: va + uint64(i)*pyPoolBytes, arena: a}
		a.pools = append(a.pools, pool)
		p.poolByVA[pool.base] = pool
		p.freePools = append(p.freePools, pool)
	}
	p.arenas = append(p.arenas, a)
	cycles += p.instr(120) // arena bookkeeping
	return cycles, nil
}

// removeUsed unlinks a pool from its class's used list.
func (p *oraclePy) removeUsed(pool *oPyPool) {
	pools := p.usedPools[pool.class]
	for i, q := range pools {
		if q == pool {
			p.usedPools[pool.class] = append(pools[:i], pools[i+1:]...)
			break
		}
	}
	pool.inUsedList = false
}

// Free implements Allocator, following Fig 1 step 5: align down to the pool,
// push the object on the pool free list, return empty pools to the free
// list, and munmap fully-free arenas.
func (p *oraclePy) Free(va uint64) (uint64, error) {
	if p.large.Owns(va) {
		p.stats.Frees++
		return p.large.Free(va)
	}
	poolBase := va &^ uint64(pyPoolBytes-1)
	pool, ok := p.poolByVA[poolBase]
	if !ok || !pool.assigned {
		return 0, ErrBadFree
	}
	idx := (va - poolBase - pyPoolHeader) / pool.objSize
	if int(idx) >= pool.capacity || pool.objectVA(int(idx)) != va || !pool.allocated[idx] {
		return 0, ErrBadFree
	}
	pool.allocated[idx] = false
	p.stats.Frees++
	cycles := p.instr(p.cfg.Cost.UserFreeFastPathInstrs)
	// Link into the free list: write the object's next-link, update header.
	if err := p.access(&cycles, va, true); err != nil {
		return cycles, err
	}
	if err := p.access(&cycles, poolBase, true); err != nil {
		return cycles, err
	}

	wasFull := len(pool.freeList) == 0
	pool.freeList = append(pool.freeList, uint16(idx))
	pool.used--
	if wasFull {
		p.usedPools[pool.class] = append(p.usedPools[pool.class], pool)
		pool.inUsedList = true
		cycles += p.instr(12)
	}
	if pool.used == 0 {
		// Entirely free: return the pool to the free-pool list.
		p.removeUsed(pool)
		pool.assigned = false
		p.freePools = append(p.freePools, pool)
		pool.arena.freePools++
		cycles += p.instr(30)
		if pool.arena.freePools == pyPoolsPerAren {
			c, err := p.releaseArena(pool.arena)
			cycles += c
			if err != nil {
				return cycles, err
			}
		}
	}
	p.stats.UserMMCycles += cycles
	return cycles, nil
}

// releaseArena munmaps a fully-free arena (Fig 1: "if all pools in an arena
// become free, the allocator returns its memory by calling munmap").
func (p *oraclePy) releaseArena(a *oPyArena) (uint64, error) {
	cycles, err := p.k.Munmap(p.as, a.base, pyArenaBytes)
	if err != nil {
		return cycles, err
	}
	p.stats.ArenaMunmaps++
	for _, pool := range a.pools {
		delete(p.poolByVA, pool.base)
		// Drop from the free-pool list.
		for i, q := range p.freePools {
			if q == pool {
				p.freePools = append(p.freePools[:i], p.freePools[i+1:]...)
				break
			}
		}
	}
	for i, ar := range p.arenas {
		if ar == a {
			p.arenas = append(p.arenas[:i], p.arenas[i+1:]...)
			break
		}
	}
	return cycles, nil
}

// SizeOf implements Allocator.
func (p *oraclePy) SizeOf(va uint64) (uint64, bool) {
	if p.large.Owns(va) {
		return p.large.SizeOf(va)
	}
	poolBase := va &^ uint64(pyPoolBytes-1)
	pool, ok := p.poolByVA[poolBase]
	if !ok || !pool.assigned {
		return 0, false
	}
	return pool.objSize, true
}

// Occupancy implements Allocator: live objects over slots of assigned pools.
func (p *oraclePy) Occupancy() float64 {
	var used, cap int
	for _, pool := range p.poolByVA {
		if !pool.assigned {
			continue
		}
		used += pool.used
		cap += pool.capacity
	}
	if cap == 0 {
		return 0
	}
	return float64(used) / float64(cap)
}

// ---- jemalloc.go ----

// oJERun is a 16 KiB slab serving one size class.
type oJERun struct {
	base     uint64
	class    int
	objSize  uint64
	capacity int
	freeList []uint16
	used     int
}

// oJEChunk is one mapped arena chunk carved into runs.
type oJEChunk struct {
	base uint64
	// nextRun is the bump offset of the next uncarved run.
	nextRun uint64
	size    uint64
}

// oracleJE is the jemalloc-style slab allocator with a thread cache.
type oracleJE struct {
	env
	opts     JEMallocOpts
	chunks   []*oJEChunk
	tcache   [jeNumClasses][]uint64
	runs     [jeNumClasses][]*oJERun // runs with free slots per class
	runByVA  map[uint64]*oJERun      // run base -> run
	owner    map[uint64]*oJERun      // object VA -> run
	inTcache map[uint64]struct{}     // objects parked in the thread cache
	large    *oracleLarge
	stats    Stats
	initDone bool
}

// newOracleJE creates the allocator.
func newOracleJE(cfg config.Machine, k *kernel.Kernel, as *kernel.AddressSpace, mem VMem, opts JEMallocOpts) *oracleJE {
	if opts.ChunkBytes == 0 {
		opts = DefaultJEMallocOpts()
	}
	return &oracleJE{
		env:      env{cfg: cfg, k: k, as: as, mem: mem},
		opts:     opts,
		runByVA:  make(map[uint64]*oJERun),
		owner:    make(map[uint64]*oJERun),
		inTcache: make(map[uint64]struct{}),
		large:    newOracleLarge(cfg, k, as, mem),
	}
}

// Name implements Allocator.
func (j *oracleJE) Name() string { return "jemalloc" }

// Init pre-maps and pre-faults the chunk pool, the library-initialization
// behaviour §6.1 describes.
func (j *oracleJE) Init() (uint64, error) {
	var cycles uint64
	for i := 0; i < j.opts.PreallocChunks; i++ {
		va, c, err := j.k.Mmap(j.as, j.opts.ChunkBytes, true /* pre-fault */)
		cycles += c
		if err != nil {
			return cycles, fmt.Errorf("jemalloc: prealloc chunk: %w", err)
		}
		j.stats.ArenaMmaps++
		j.chunks = append(j.chunks, &oJEChunk{base: va, size: j.opts.ChunkBytes})
	}
	cycles += j.instr(3000) // jemalloc bootstrap
	j.initDone = true
	return cycles, nil
}

// Stats implements Allocator.
func (j *oracleJE) Stats() Stats { return j.stats }

// Alloc implements Allocator: tcache pop on the fast path, run refill on
// miss, new run carve / chunk mmap on the slow path.
func (j *oracleJE) Alloc(size uint64) (uint64, uint64, error) {
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
		delete(j.inTcache, va)
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
	run, c, err := j.runFor(cls)
	cycles += c
	if err != nil {
		return 0, cycles, err
	}
	idx := run.freeList[len(run.freeList)-1]
	run.freeList = run.freeList[:len(run.freeList)-1]
	run.used++
	va := run.base + uint64(idx)*run.objSize
	j.owner[va] = run
	// Run header/bitmap update, then the object link read.
	if err := j.access(&cycles, run.base, true); err != nil {
		j.stats.UserMMCycles += cycles
		return 0, cycles, err
	}
	if err := j.access(&cycles, va, false); err != nil {
		j.stats.UserMMCycles += cycles
		return 0, cycles, err
	}
	if len(run.freeList) == 0 {
		j.removeRun(run)
	}
	j.stats.UserMMCycles += cycles
	return va, cycles, nil
}

// runFor returns a run with space for cls, carving or mapping as needed.
func (j *oracleJE) runFor(cls int) (*oJERun, uint64, error) {
	if rs := j.runs[cls]; len(rs) > 0 {
		return rs[len(rs)-1], 0, nil
	}
	j.stats.SlowPathRuns++
	var cycles uint64
	cycles += j.instr(j.cfg.Cost.UserSlowPathInstrs)
	// Carve a run from a chunk with room.
	var chunk *oJEChunk
	for _, c := range j.chunks {
		if c.nextRun+jeRunBytes <= c.size {
			chunk = c
			break
		}
	}
	if chunk == nil {
		va, c, err := j.k.Mmap(j.as, j.opts.ChunkBytes, false)
		cycles += c
		if err != nil {
			return nil, cycles, fmt.Errorf("jemalloc: new chunk: %w", err)
		}
		j.stats.ArenaMmaps++
		chunk = &oJEChunk{base: va, size: j.opts.ChunkBytes}
		j.chunks = append(j.chunks, chunk)
	}
	base := chunk.base + chunk.nextRun
	chunk.nextRun += jeRunBytes
	objSize := uint64(cls+1) * jeClassStep
	run := &oJERun{
		base:     base,
		class:    cls,
		objSize:  objSize,
		capacity: int(uint64(jeRunBytes) / objSize),
	}
	for i := run.capacity - 1; i >= 0; i-- {
		run.freeList = append(run.freeList, uint16(i))
	}
	// Initialize the run header.
	if err := j.access(&cycles, base, true); err != nil {
		return nil, cycles, err
	}
	j.runByVA[base] = run
	j.runs[cls] = append(j.runs[cls], run)
	return run, cycles, nil
}

func (j *oracleJE) removeRun(run *oJERun) {
	rs := j.runs[run.class]
	for i, r := range rs {
		if r == run {
			j.runs[run.class] = append(rs[:i], rs[i+1:]...)
			return
		}
	}
}

// Free implements Allocator: push onto the thread cache; flush half the
// cache back to runs when it overflows.
func (j *oracleJE) Free(va uint64) (uint64, error) {
	if j.large.Owns(va) {
		j.stats.Frees++
		return j.large.Free(va)
	}
	run, ok := j.owner[va]
	if !ok {
		return 0, ErrBadFree
	}
	if _, dup := j.inTcache[va]; dup {
		return 0, ErrBadFree
	}
	j.stats.Frees++
	cls := run.class
	cycles := j.instr(16)
	// Write the tcache link into the object.
	if err := j.access(&cycles, va, true); err != nil {
		j.stats.UserMMCycles += cycles
		return cycles, err
	}
	j.tcache[cls] = append(j.tcache[cls], va)
	j.inTcache[va] = struct{}{}
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
func (j *oracleJE) flushTcache(cls int) (uint64, error) {
	tc := j.tcache[cls]
	n := len(tc) / 2
	var cycles uint64
	cycles += j.instr(20) // flush loop setup
	for i, va := range tc[:n] {
		run := j.owner[va]
		idx := uint16((va - run.base) / run.objSize)
		wasFull := len(run.freeList) == 0
		run.freeList = append(run.freeList, idx)
		run.used--
		delete(j.owner, va)
		delete(j.inTcache, va)
		cycles += j.instr(6)
		if wasFull {
			j.runs[cls] = append(j.runs[cls], run)
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

// SizeOf implements Allocator. Objects parked in the thread cache are still
// "live" to the owner map until flushed, so look up the run directly.
func (j *oracleJE) SizeOf(va uint64) (uint64, bool) {
	if j.large.Owns(va) {
		return j.large.SizeOf(va)
	}
	run, ok := j.owner[va]
	if !ok {
		return 0, false
	}
	return run.objSize, true
}

// Occupancy implements Allocator: live objects (excluding thread-cached
// ones) over the slots of carved runs.
func (j *oracleJE) Occupancy() float64 {
	var used, cap int
	for _, run := range j.runByVA {
		used += run.used
		cap += run.capacity
	}
	used -= len(j.inTcache)
	if cap == 0 {
		return 0
	}
	if used < 0 {
		used = 0
	}
	return float64(used) / float64(cap)
}

// ---- goalloc.go ----

// oGoSpan is an 8 KiB span serving one size class.
type oGoSpan struct {
	base     uint64
	class    int
	objSize  uint64
	capacity int
	freeList []uint16
	used     int
}

// oGoArena is one 64 MiB reservation carved into spans on demand.
type oGoArena struct {
	base     uint64
	nextSpan uint64
}

// oracleGo is the Go-runtime-style span allocator with mark-sweep GC.
type oracleGo struct {
	env
	arenas []*oGoArena
	// mcache: spans with free slots per class (head is the active span).
	mcache  [goNumClasses][]*oGoSpan
	owner   map[uint64]*oGoSpan // object VA -> span
	large   *oracleLarge
	stats   Stats
	liveObj uint64
}

// newOracleGo creates the allocator.
func newOracleGo(cfg config.Machine, k *kernel.Kernel, as *kernel.AddressSpace, mem VMem) *oracleGo {
	return &oracleGo{
		env:   env{cfg: cfg, k: k, as: as, mem: mem},
		owner: make(map[uint64]*oGoSpan),
		large: newOracleLarge(cfg, k, as, mem),
	}
}

// Name implements Allocator.
func (g *oracleGo) Name() string { return "goalloc" }

// Init reserves the first heap arena: a very large lazy mapping, which is
// why MAP_POPULATE inflates Golang footprints 8.6x in §6.6.
func (g *oracleGo) Init() (uint64, error) {
	cycles, err := g.grow()
	if err != nil {
		return cycles, err
	}
	cycles += g.instr(2000) // runtime mheap init
	return cycles, nil
}

// grow maps one more 64 MiB arena.
func (g *oracleGo) grow() (uint64, error) {
	va, cycles, err := g.k.Mmap(g.as, goArenaBytes, false)
	if err != nil {
		return cycles, fmt.Errorf("goalloc: heap arena: %w", err)
	}
	g.stats.ArenaMmaps++
	g.arenas = append(g.arenas, &oGoArena{base: va})
	return cycles, nil
}

// Stats implements Allocator.
func (g *oracleGo) Stats() Stats { return g.stats }

// LiveObjects returns the number of live small objects (GC mark set size).
func (g *oracleGo) LiveObjects() uint64 { return g.liveObj }

// Alloc implements Allocator: mcache span pop, plus object zeroing
// (mallocgc zeroes memory, so a fresh object's lines are written here).
func (g *oracleGo) Alloc(size uint64) (uint64, uint64, error) {
	g.stats.Allocs++
	if size > goMaxSmall {
		g.stats.LargeAllocs++
		return g.large.Alloc(size)
	}
	cls, clsSize := sizeClassOf(size, goClassStep, goMaxSmall)
	cycles := g.instr(24) // mallocgc fast path
	span, c, err := g.spanFor(cls)
	cycles += c
	if err != nil {
		return 0, cycles, err
	}
	idx := span.freeList[len(span.freeList)-1]
	span.freeList = span.freeList[:len(span.freeList)-1]
	span.used++
	va := span.base + uint64(idx)*span.objSize
	g.owner[va] = span
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
	if len(span.freeList) == 0 {
		g.popSpan(span)
	}
	g.stats.FastPathHits++
	g.stats.UserMMCycles += cycles
	return va, cycles, nil
}

// spanFor returns a span with a free slot, carving one from an arena on
// demand (mcentral/mheap refill).
func (g *oracleGo) spanFor(cls int) (*oGoSpan, uint64, error) {
	if ss := g.mcache[cls]; len(ss) > 0 {
		return ss[len(ss)-1], 0, nil
	}
	g.stats.SlowPathRuns++
	var cycles uint64
	cycles += g.instr(g.cfg.Cost.UserSlowPathInstrs)
	arena := g.arenas[len(g.arenas)-1]
	if arena.nextSpan+goSpanBytes > goArenaBytes {
		c, err := g.grow()
		cycles += c
		if err != nil {
			return nil, cycles, err
		}
		arena = g.arenas[len(g.arenas)-1]
	}
	base := arena.base + arena.nextSpan
	arena.nextSpan += goSpanBytes
	objSize := uint64(cls+1) * goClassStep
	span := &oGoSpan{base: base, class: cls, objSize: objSize, capacity: int(uint64(goSpanBytes) / objSize)}
	for i := span.capacity - 1; i >= 0; i-- {
		span.freeList = append(span.freeList, uint16(i))
	}
	// Span metadata init.
	if err := g.access(&cycles, base, true); err != nil {
		return nil, cycles, err
	}
	g.mcache[cls] = append(g.mcache[cls], span)
	return span, cycles, nil
}

func (g *oracleGo) popSpan(span *oGoSpan) {
	ss := g.mcache[span.class]
	for i, s := range ss {
		if s == span {
			g.mcache[span.class] = append(ss[:i], ss[i+1:]...)
			return
		}
	}
}

// Free implements Allocator. In the Go runtime individual objects are only
// freed by the GC sweep, so this is the (cheap) sweep path; the mark cost is
// charged separately via MarkCost at collection events.
func (g *oracleGo) Free(va uint64) (uint64, error) {
	if g.large.Owns(va) {
		g.stats.Frees++
		return g.large.Free(va)
	}
	span, ok := g.owner[va]
	if !ok {
		return 0, ErrBadFree
	}
	g.stats.Frees++
	idx := uint16((va - span.base) / span.objSize)
	wasFull := len(span.freeList) == 0
	span.freeList = append(span.freeList, idx)
	span.used--
	delete(g.owner, va)
	g.liveObj--
	cycles := g.instr(9) // sweep clears the mark bit
	if err := g.access(&cycles, span.base, true); err != nil {
		g.stats.UserMMCycles += cycles
		g.stats.GCCycles += cycles
		return cycles, err
	}
	if wasFull {
		g.mcache[span.class] = append(g.mcache[span.class], span)
	}
	g.stats.UserMMCycles += cycles
	g.stats.GCCycles += cycles
	return cycles, nil
}

// MarkCost charges one GC mark phase over the current live set: scanning
// object graphs costs instructions plus a header access per live object.
func (g *oracleGo) MarkCost() (uint64, error) {
	var cycles uint64
	cycles += g.instr(5000) // GC start/stop, root scan
	perObj := g.instr(30)
	cycles += perObj * g.liveObj
	// Touch a sample of live object headers through the hierarchy (cap the
	// modeled traffic at 4096 accesses; marking is memory-bound but the
	// trace-driven model only needs its magnitude). Iterate in address
	// order so runs stay deterministic.
	vas := make([]uint64, 0, len(g.owner))
	for va := range g.owner {
		vas = append(vas, va)
	}
	sort.Slice(vas, func(i, j int) bool { return vas[i] < vas[j] })
	if len(vas) > 4096 {
		vas = vas[:4096]
	}
	for _, va := range vas {
		if err := g.access(&cycles, va, false); err != nil {
			g.stats.GCCycles += cycles
			g.stats.GCCollections++
			g.stats.UserMMCycles += cycles
			return cycles, err
		}
	}
	g.stats.GCCycles += cycles
	g.stats.GCCollections++
	g.stats.UserMMCycles += cycles
	return cycles, nil
}

// SizeOf implements Allocator.
func (g *oracleGo) SizeOf(va uint64) (uint64, bool) {
	if g.large.Owns(va) {
		return g.large.SizeOf(va)
	}
	span, ok := g.owner[va]
	if !ok {
		return 0, false
	}
	return span.objSize, true
}

// Occupancy implements Allocator: live objects over carved span slots.
// The owner map tracks objects, not spans, so the span set is rebuilt from
// the owner map plus the mcache lists.
func (g *oracleGo) Occupancy() float64 {
	var cap int
	seen := map[*oGoSpan]bool{}
	for _, span := range g.owner {
		if !seen[span] {
			seen[span] = true
			cap += span.capacity
		}
	}
	for _, spans := range g.mcache {
		for _, span := range spans {
			if !seen[span] {
				seen[span] = true
				cap += span.capacity
			}
		}
	}
	if cap == 0 {
		return 0
	}
	return float64(g.liveObj) / float64(cap)
}

// ---- snapshot.go ----

// The software allocators keep their state in pointer graphs (pools linked
// from arenas and per-class lists, runs shared between free lists and owner
// maps). Snapshots clone those graphs with identity maps so shared pointers
// stay shared, and every Restore clones again from the snapshot — a snapshot
// is immutable and can seed any number of allocators. Environment wiring
// (kernel, address space, VMem) is never captured: a restored allocator
// keeps the environment it was constructed with.

// ---- glibc large path ----

type oLargeSnapshot struct {
	bumpVA, endVA uint64
	bins          map[uint][]uint64
	blocks        map[uint64]uint64
	mmapped       map[uint64]bool
	stats         Stats
}

func (*oLargeSnapshot) allocSnapshot() {}

// Bytes implements AllocSnapshot: bump cursors, the per-order bins, the
// block and mmap maps, and the counters.
func (s *oLargeSnapshot) Bytes() uint64 {
	b := uint64(2*8) + saStatsBytes
	for _, vs := range s.bins {
		b += 8 + uint64(len(vs))*8
	}
	b += uint64(len(s.blocks)) * 16
	b += uint64(len(s.mmapped)) * 9
	return b
}

func oCloneLarge(l *oracleLarge) *oLargeSnapshot {
	s := &oLargeSnapshot{
		bumpVA:  l.bumpVA,
		endVA:   l.endVA,
		bins:    make(map[uint][]uint64, len(l.bins)),
		blocks:  make(map[uint64]uint64, len(l.blocks)),
		mmapped: make(map[uint64]bool, len(l.mmapped)),
		stats:   l.stats,
	}
	for o, vs := range l.bins {
		s.bins[o] = append([]uint64(nil), vs...)
	}
	for va, sz := range l.blocks {
		s.blocks[va] = sz
	}
	for va, v := range l.mmapped {
		s.mmapped[va] = v
	}
	return s
}

func (l *oracleLarge) oRestoreLarge(s *oLargeSnapshot) {
	l.bumpVA, l.endVA = s.bumpVA, s.endVA
	l.bins = make(map[uint][]uint64, len(s.bins))
	for o, vs := range s.bins {
		l.bins[o] = append([]uint64(nil), vs...)
	}
	l.blocks = make(map[uint64]uint64, len(s.blocks))
	for va, sz := range s.blocks {
		l.blocks[va] = sz
	}
	l.mmapped = make(map[uint64]bool, len(s.mmapped))
	for va, v := range s.mmapped {
		l.mmapped[va] = v
	}
	l.stats = s.stats
}

// Snapshot implements Allocator.
func (l *oracleLarge) Snapshot() AllocSnapshot { return oCloneLarge(l) }

// Restore implements Allocator.
func (l *oracleLarge) Restore(s AllocSnapshot) error {
	ls, ok := s.(*oLargeSnapshot)
	if !ok {
		return errSnapshotType(l.Name(), s)
	}
	l.oRestoreLarge(ls)
	return nil
}

// ---- pymalloc ----

type oPySnapshot struct {
	arenas    []*oPyArena
	usedPools [pyNumClasses][]*oPyPool
	freePools []*oPyPool
	large     *oLargeSnapshot
	stats     Stats
}

func (*oPySnapshot) allocSnapshot() {}

// Bytes implements AllocSnapshot: the arena/pool graph, the used/free pool
// lists, the embedded large-path snapshot, and the counters.
func (s *oPySnapshot) Bytes() uint64 {
	b := s.large.Bytes() + saStatsBytes
	for _, a := range s.arenas {
		b += 2 * 8 // base + freePools
		for _, pl := range a.pools {
			b += pyPoolSnapBytes + uint64(len(pl.freeList))*2 + uint64(len(pl.allocated))
		}
	}
	for cls := range s.usedPools {
		b += uint64(len(s.usedPools[cls])) * 8
	}
	b += uint64(len(s.freePools)) * 8
	return b
}

// oClonePyArenas deep-copies the arena/pool graph, returning the clones and
// the pool identity map used to remap list pointers. Every pool belongs to
// exactly one live arena, so the arena list is the universal pool set.
func oClonePyArenas(arenas []*oPyArena) ([]*oPyArena, map[*oPyPool]*oPyPool) {
	m := make(map[*oPyPool]*oPyPool)
	out := make([]*oPyArena, len(arenas))
	for i, a := range arenas {
		na := &oPyArena{base: a.base, freePools: a.freePools}
		na.pools = make([]*oPyPool, len(a.pools))
		for pi, pl := range a.pools {
			np := &oPyPool{
				base:       pl.base,
				arena:      na,
				class:      pl.class,
				objSize:    pl.objSize,
				capacity:   pl.capacity,
				freeList:   append([]uint16(nil), pl.freeList...),
				used:       pl.used,
				inUsedList: pl.inUsedList,
				assigned:   pl.assigned,
			}
			if pl.allocated != nil {
				np.allocated = append([]bool(nil), pl.allocated...)
			}
			na.pools[pi] = np
			m[pl] = np
		}
		out[i] = na
	}
	return out, m
}

func oMapPyPools(pools []*oPyPool, m map[*oPyPool]*oPyPool) []*oPyPool {
	if pools == nil {
		return nil
	}
	out := make([]*oPyPool, len(pools))
	for i, pl := range pools {
		out[i] = m[pl]
	}
	return out
}

// Snapshot implements Allocator.
func (p *oraclePy) Snapshot() AllocSnapshot {
	arenas, m := oClonePyArenas(p.arenas)
	s := &oPySnapshot{
		arenas:    arenas,
		freePools: oMapPyPools(p.freePools, m),
		large:     oCloneLarge(p.large),
		stats:     p.stats,
	}
	for cls := range p.usedPools {
		s.usedPools[cls] = oMapPyPools(p.usedPools[cls], m)
	}
	return s
}

// Restore implements Allocator.
func (p *oraclePy) Restore(s AllocSnapshot) error {
	ps, ok := s.(*oPySnapshot)
	if !ok {
		return errSnapshotType(p.Name(), s)
	}
	arenas, m := oClonePyArenas(ps.arenas)
	p.arenas = arenas
	p.freePools = oMapPyPools(ps.freePools, m)
	for cls := range ps.usedPools {
		p.usedPools[cls] = oMapPyPools(ps.usedPools[cls], m)
	}
	p.poolByVA = make(map[uint64]*oPyPool)
	for _, a := range arenas {
		for _, pl := range a.pools {
			p.poolByVA[pl.base] = pl
		}
	}
	p.large.oRestoreLarge(ps.large)
	p.stats = ps.stats
	return nil
}

// ---- jemalloc ----

type oJESnapshot struct {
	opts     JEMallocOpts
	chunks   []oJEChunk
	tcache   [jeNumClasses][]uint64
	runs     [jeNumClasses][]*oJERun
	runByVA  map[uint64]*oJERun
	owner    map[uint64]*oJERun
	inTcache map[uint64]struct{}
	large    *oLargeSnapshot
	stats    Stats
	initDone bool
}

func (*oJESnapshot) allocSnapshot() {}

// Bytes implements AllocSnapshot: chunks, the thread cache, the run graph
// and its indexes, the embedded large-path snapshot, and the counters.
func (s *oJESnapshot) Bytes() uint64 {
	b := s.large.Bytes() + saStatsBytes + 8 + 1 // opts + initDone
	b += uint64(len(s.chunks)) * (3 * 8)
	for cls := range s.tcache {
		b += uint64(len(s.tcache[cls])) * 8
	}
	for cls := range s.runs {
		b += uint64(len(s.runs[cls])) * 8
	}
	for _, r := range s.runByVA {
		b += 8 + jeRunSnapBytes + uint64(len(r.freeList))*2
	}
	b += uint64(len(s.owner)) * 16
	b += uint64(len(s.inTcache)) * 8
	return b
}

// oCloneJERuns deep-copies every carved run (runByVA is the universal set —
// runs are never destroyed) and returns the clones with the identity map.
func oCloneJERuns(runByVA map[uint64]*oJERun) (map[uint64]*oJERun, map[*oJERun]*oJERun) {
	m := make(map[*oJERun]*oJERun, len(runByVA))
	out := make(map[uint64]*oJERun, len(runByVA))
	for base, r := range runByVA {
		nr := &oJERun{
			base:     r.base,
			class:    r.class,
			objSize:  r.objSize,
			capacity: r.capacity,
			freeList: append([]uint16(nil), r.freeList...),
			used:     r.used,
		}
		out[base] = nr
		m[r] = nr
	}
	return out, m
}

func oMapJERuns(runs []*oJERun, m map[*oJERun]*oJERun) []*oJERun {
	if runs == nil {
		return nil
	}
	out := make([]*oJERun, len(runs))
	for i, r := range runs {
		out[i] = m[r]
	}
	return out
}

func oMapJEOwner(owner map[uint64]*oJERun, m map[*oJERun]*oJERun) map[uint64]*oJERun {
	out := make(map[uint64]*oJERun, len(owner))
	for va, r := range owner {
		out[va] = m[r]
	}
	return out
}

func (j *oracleJE) cloneInto(dst *oJESnapshot) {
	dst.opts = j.opts
	dst.chunks = make([]oJEChunk, len(j.chunks))
	for i, c := range j.chunks {
		dst.chunks[i] = *c
	}
	for cls := range j.tcache {
		dst.tcache[cls] = append([]uint64(nil), j.tcache[cls]...)
	}
	runByVA, m := oCloneJERuns(j.runByVA)
	dst.runByVA = runByVA
	for cls := range j.runs {
		dst.runs[cls] = oMapJERuns(j.runs[cls], m)
	}
	dst.owner = oMapJEOwner(j.owner, m)
	dst.inTcache = make(map[uint64]struct{}, len(j.inTcache))
	for va := range j.inTcache {
		dst.inTcache[va] = struct{}{}
	}
	dst.large = oCloneLarge(j.large)
	dst.stats = j.stats
	dst.initDone = j.initDone
}

// Snapshot implements Allocator.
func (j *oracleJE) Snapshot() AllocSnapshot {
	s := &oJESnapshot{}
	j.cloneInto(s)
	return s
}

// Restore implements Allocator.
func (j *oracleJE) Restore(s AllocSnapshot) error {
	js, ok := s.(*oJESnapshot)
	if !ok {
		return errSnapshotType(j.Name(), s)
	}
	j.opts = js.opts
	j.chunks = make([]*oJEChunk, len(js.chunks))
	for i := range js.chunks {
		c := js.chunks[i]
		j.chunks[i] = &c
	}
	for cls := range js.tcache {
		j.tcache[cls] = append([]uint64(nil), js.tcache[cls]...)
	}
	runByVA, m := oCloneJERuns(js.runByVA)
	j.runByVA = runByVA
	for cls := range js.runs {
		j.runs[cls] = oMapJERuns(js.runs[cls], m)
	}
	j.owner = oMapJEOwner(js.owner, m)
	j.inTcache = make(map[uint64]struct{}, len(js.inTcache))
	for va := range js.inTcache {
		j.inTcache[va] = struct{}{}
	}
	j.large.oRestoreLarge(js.large)
	j.stats = js.stats
	j.initDone = js.initDone
	return nil
}

// ---- Go runtime allocator ----

type oGoSnapshot struct {
	arenas  []oGoArena
	mcache  [goNumClasses][]*oGoSpan
	owner   map[uint64]*oGoSpan
	large   *oLargeSnapshot
	stats   Stats
	liveObj uint64
}

func (*oGoSnapshot) allocSnapshot() {}

// Bytes implements AllocSnapshot: arenas, the unique spans reachable from
// the mcache and owner index, the embedded large-path snapshot, and the
// counters.
func (s *oGoSnapshot) Bytes() uint64 {
	b := s.large.Bytes() + saStatsBytes + 8 // liveObj
	b += uint64(len(s.arenas)) * (2 * 8)
	seen := make(map[*oGoSpan]struct{})
	span := func(sp *oGoSpan) {
		if _, ok := seen[sp]; ok {
			return
		}
		seen[sp] = struct{}{}
		b += goSpanSnapBytes + uint64(len(sp.freeList))*2
	}
	for cls := range s.mcache {
		b += uint64(len(s.mcache[cls])) * 8
		for _, sp := range s.mcache[cls] {
			span(sp)
		}
	}
	for _, sp := range s.owner {
		b += 16
		span(sp)
	}
	return b
}

// oGoSpanCloner lazily clones spans with identity preserved; the universal
// span set is the union of the mcache lists and the owner map values.
type oGoSpanCloner map[*oGoSpan]*oGoSpan

func (m oGoSpanCloner) clone(s *oGoSpan) *oGoSpan {
	if c, ok := m[s]; ok {
		return c
	}
	c := &oGoSpan{
		base:     s.base,
		class:    s.class,
		objSize:  s.objSize,
		capacity: s.capacity,
		freeList: append([]uint16(nil), s.freeList...),
		used:     s.used,
	}
	m[s] = c
	return c
}

func oCloneGoSpans(mcache *[goNumClasses][]*oGoSpan, owner map[uint64]*oGoSpan) ([goNumClasses][]*oGoSpan, map[uint64]*oGoSpan) {
	cl := make(oGoSpanCloner)
	var nm [goNumClasses][]*oGoSpan
	for cls := range mcache {
		if mcache[cls] == nil {
			continue
		}
		nm[cls] = make([]*oGoSpan, len(mcache[cls]))
		for i, s := range mcache[cls] {
			nm[cls][i] = cl.clone(s)
		}
	}
	no := make(map[uint64]*oGoSpan, len(owner))
	for va, s := range owner {
		no[va] = cl.clone(s)
	}
	return nm, no
}

// Snapshot implements Allocator.
func (g *oracleGo) Snapshot() AllocSnapshot {
	s := &oGoSnapshot{
		arenas:  make([]oGoArena, len(g.arenas)),
		large:   oCloneLarge(g.large),
		stats:   g.stats,
		liveObj: g.liveObj,
	}
	for i, a := range g.arenas {
		s.arenas[i] = *a
	}
	s.mcache, s.owner = oCloneGoSpans(&g.mcache, g.owner)
	return s
}

// Restore implements Allocator.
func (g *oracleGo) Restore(s AllocSnapshot) error {
	gs, ok := s.(*oGoSnapshot)
	if !ok {
		return errSnapshotType(g.Name(), s)
	}
	g.arenas = make([]*oGoArena, len(gs.arenas))
	for i := range gs.arenas {
		a := gs.arenas[i]
		g.arenas[i] = &a
	}
	g.mcache, g.owner = oCloneGoSpans(&gs.mcache, gs.owner)
	g.large.oRestoreLarge(gs.large)
	g.stats = gs.stats
	g.liveObj = gs.liveObj
	return nil
}
