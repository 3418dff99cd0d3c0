package softalloc

import (
	"fmt"
	"sort"

	"memento/internal/config"
	"memento/internal/kernel"
)

// PyMalloc parameters, matching CPython's obmalloc (Section 2.1):
// 256 KiB arenas split into 4 KiB pools, 8-byte size-class granularity,
// 512-byte small-object threshold.
const (
	pyArenaBytes   = 256 << 10
	pyPoolBytes    = config.PageSize
	pyPoolHeader   = 48
	pyMaxSmall     = 512
	pyClassStep    = 8
	pyNumClasses   = pyMaxSmall / pyClassStep
	pyPoolsPerAren = pyArenaBytes / pyPoolBytes
)

// pyFreeStride is the free-list region each pool takes in the shared slab:
// room for the largest pool capacity, (4096-48)/8 = 506 objects.
const pyFreeStride = 512

// pyPool is one 4 KiB pool serving a single size class. Arena slot a's
// pools are PyMalloc.pools[a*pyPoolsPerAren:][:pyPoolsPerAren].
type pyPool struct {
	base     uint64 // VA of the pool (header at base)
	arena    int32  // arena slot
	class    int
	objSize  uint64
	capacity int // 0 until the pool is first bound to a class
	// free[fl:fl+nfree] holds the free object indices, in the PyMalloc's
	// shared slab (fl is -1 until the slot first needs a region); the head
	// lives in the pool header and links thread through the free objects
	// themselves, which is what the modeled memory accesses touch.
	fl    int32
	nfree int
	// allocated has bit i set while object i is live (double-free
	// detection).
	allocated [pyFreeStride / 64]uint64
	// used counts live objects.
	used int
	// inUsedList marks membership of the per-class used-pool list.
	inUsedList bool
	// assigned is true once the pool has been bound to a size class.
	assigned bool
}

// pyArena is a 256 KiB mmap'd region split into pools.
type pyArena struct {
	base      uint64
	freePools int
}

// PyMalloc is the CPython-style small-object allocator. Arenas and pools
// live by value in slabs indexed by int32 slot; vacated arena slots are
// reused with their pools' free-list regions.
type PyMalloc struct {
	env
	usedPools [pyNumClasses][]int32
	freePools []int32
	// arenas and pools are the slabs; live lists the mapped arenas' slots
	// in address order (mmap addresses only grow), vacant the free slots.
	arenas []pyArena
	pools  []pyPool
	live   []int32
	vacant []int32
	// free is the slab every pool's free list lives in.
	free  []uint16
	large LargeAlloc
	stats Stats
}

// NewPyMalloc creates the allocator for one process.
func NewPyMalloc(cfg config.Machine, k *kernel.Kernel, as *kernel.AddressSpace, mem VMem) *PyMalloc {
	p := new(PyMalloc)
	p.Attach(cfg, k, as, mem)
	return p
}

// Attach wires the allocator to a machine's configuration, kernel,
// address space and memory, whatever it served before. Its state is kept
// for a Restore to replace, which then reuses the slabs it holds.
func (p *PyMalloc) Attach(cfg config.Machine, k *kernel.Kernel, as *kernel.AddressSpace, mem VMem) {
	p.env = env{cfg: cfg, k: k, as: as, mem: mem}
	p.large.Attach(cfg, k, as, mem)
}

// Name implements Allocator.
func (p *PyMalloc) Name() string { return "pymalloc" }

// Init implements Allocator; pymalloc sets up lazily, so this only charges
// a token interpreter-startup allocator cost.
func (p *PyMalloc) Init() (uint64, error) {
	return p.instr(200), nil
}

// Stats implements Allocator.
func (p *PyMalloc) Stats() Stats { return p.stats }

// Alloc implements Allocator, following Fig 1: compute size class (1),
// check per-class used pools (2), else grab a free pool (3), else mmap a
// new arena (4).
func (p *PyMalloc) Alloc(size uint64) (uint64, uint64, error) {
	p.stats.Allocs++
	if size > pyMaxSmall {
		p.stats.LargeAllocs++
		return p.large.Alloc(size)
	}
	cls, _ := sizeClassOf(size, pyClassStep, pyMaxSmall)
	cycles := p.instr(p.cfg.Cost.UserAllocFastPathInstrs)

	pi, c, err := p.poolFor(cls)
	cycles += c
	if err != nil {
		return 0, cycles, err
	}
	pool := &p.pools[pi]
	// Pop the free-list head: read the pool header, read the free object's
	// embedded next-link, write the header back.
	pool.nfree--
	idx := p.free[int(pool.fl)+pool.nfree]
	pool.allocated[idx/64] |= 1 << (idx % 64)
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
	if pool.nfree == 0 {
		// Pool is now full: unlink from the used list.
		p.removeUsed(pi)
		cycles += p.instr(12)
	}
	p.stats.FastPathHits++
	p.stats.UserMMCycles += cycles
	return va, cycles, nil
}

// objectVA returns the VA of object idx in the pool.
func (pl *pyPool) objectVA(idx int) uint64 {
	return pl.base + pyPoolHeader + uint64(idx)*pl.objSize
}

// poolFor returns a pool with at least one free object for the class,
// refilling from the free-pool list or a fresh arena as needed.
func (p *PyMalloc) poolFor(cls int) (int32, uint64, error) {
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
			return 0, cycles, err
		}
	}
	pi := p.freePools[len(p.freePools)-1]
	p.freePools = p.freePools[:len(p.freePools)-1]
	pool := &p.pools[pi]
	p.arenas[pool.arena].freePools--
	// Initialize the pool header for this class; the header write faults in
	// the pool's first page on a fresh arena.
	objSize := uint64(cls+1) * pyClassStep
	pool.class = cls
	pool.objSize = objSize
	pool.capacity = (pyPoolBytes - pyPoolHeader) / int(objSize)
	if pool.fl < 0 {
		pool.fl = int32(len(p.free))
		p.free = grow(p.free, pyFreeStride)
	}
	fl := p.free[pool.fl:][:pool.capacity]
	for i := range fl {
		fl[i] = uint16(pool.capacity - 1 - i)
	}
	pool.nfree = pool.capacity
	pool.allocated = [pyFreeStride / 64]uint64{}
	pool.used = 0
	pool.assigned = true
	if err := p.access(&cycles, pool.base, true); err != nil {
		return 0, cycles, err
	}
	p.usedPools[cls] = append(p.usedPools[cls], pi)
	pool.inUsedList = true
	return pi, cycles, nil
}

// newArena mmaps a fresh 256 KiB arena and splits it into free pools.
func (p *PyMalloc) newArena() (uint64, error) {
	va, cycles, err := p.k.Mmap(p.as, pyArenaBytes, false)
	if err != nil {
		return cycles, fmt.Errorf("pymalloc: new arena: %w", err)
	}
	p.stats.ArenaMmaps++
	var a int32
	if n := len(p.vacant); n > 0 {
		a = p.vacant[n-1]
		p.vacant = p.vacant[:n-1]
	} else {
		a = int32(len(p.arenas))
		p.arenas = append(p.arenas, pyArena{})
		for i := 0; i < pyPoolsPerAren; i++ {
			p.pools = append(p.pools, pyPool{fl: -1})
		}
	}
	p.arenas[a] = pyArena{base: va, freePools: pyPoolsPerAren}
	for i := 0; i < pyPoolsPerAren; i++ {
		pi := a*pyPoolsPerAren + int32(i)
		p.pools[pi] = pyPool{base: va + uint64(i)*pyPoolBytes, arena: a, fl: p.pools[pi].fl}
		p.freePools = append(p.freePools, pi)
	}
	p.live = append(p.live, a)
	cycles += p.instr(120) // arena bookkeeping
	return cycles, nil
}

// removeUsed unlinks a pool from its class's used list.
func (p *PyMalloc) removeUsed(pi int32) {
	pool := &p.pools[pi]
	pools := p.usedPools[pool.class]
	for i, q := range pools {
		if q == pi {
			p.usedPools[pool.class] = append(pools[:i], pools[i+1:]...)
			break
		}
	}
	pool.inUsedList = false
}

// poolOf returns the pool of a mapped arena whose 4 KiB range holds va.
func (p *PyMalloc) poolOf(va uint64) (int32, bool) {
	// The last live arena based at or below va.
	i := sort.Search(len(p.live), func(i int) bool { return p.arenas[p.live[i]].base > va })
	if i == 0 {
		return 0, false
	}
	a := p.live[i-1]
	off := va - p.arenas[a].base
	if off >= pyArenaBytes {
		return 0, false
	}
	return a*pyPoolsPerAren + int32(off/pyPoolBytes), true
}

// Free implements Allocator, following Fig 1 step 5: align down to the pool,
// push the object on the pool free list, return empty pools to the free
// list, and munmap fully-free arenas.
func (p *PyMalloc) Free(va uint64) (uint64, error) {
	if p.large.Owns(va) {
		p.stats.Frees++
		return p.large.Free(va)
	}
	poolBase := va &^ uint64(pyPoolBytes-1)
	pi, ok := p.poolOf(poolBase)
	if !ok || !p.pools[pi].assigned {
		return 0, ErrBadFree
	}
	pool := &p.pools[pi]
	idx := (va - poolBase - pyPoolHeader) / pool.objSize
	if int(idx) >= pool.capacity || pool.objectVA(int(idx)) != va || pool.allocated[idx/64]&(1<<(idx%64)) == 0 {
		return 0, ErrBadFree
	}
	pool.allocated[idx/64] &^= 1 << (idx % 64)
	p.stats.Frees++
	cycles := p.instr(p.cfg.Cost.UserFreeFastPathInstrs)
	// Link into the free list: write the object's next-link, update header.
	if err := p.access(&cycles, va, true); err != nil {
		return cycles, err
	}
	if err := p.access(&cycles, poolBase, true); err != nil {
		return cycles, err
	}

	wasFull := pool.nfree == 0
	p.free[int(pool.fl)+pool.nfree] = uint16(idx)
	pool.nfree++
	pool.used--
	if wasFull {
		p.usedPools[pool.class] = append(p.usedPools[pool.class], pi)
		pool.inUsedList = true
		cycles += p.instr(12)
	}
	if pool.used == 0 {
		// Entirely free: return the pool to the free-pool list.
		p.removeUsed(pi)
		pool.assigned = false
		p.freePools = append(p.freePools, pi)
		a := &p.arenas[pool.arena]
		a.freePools++
		cycles += p.instr(30)
		if a.freePools == pyPoolsPerAren {
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
func (p *PyMalloc) releaseArena(a int32) (uint64, error) {
	cycles, err := p.k.Munmap(p.as, p.arenas[a].base, pyArenaBytes)
	if err != nil {
		return cycles, err
	}
	p.stats.ArenaMunmaps++
	// Drop its pools from the free-pool list, keeping the others' order.
	kept := p.freePools[:0]
	for _, pi := range p.freePools {
		if pi/pyPoolsPerAren != a {
			kept = append(kept, pi)
		}
	}
	p.freePools = kept
	for i, q := range p.live {
		if q == a {
			p.live = append(p.live[:i], p.live[i+1:]...)
			break
		}
	}
	p.vacant = append(p.vacant, a)
	return cycles, nil
}

// SizeOf implements Allocator.
func (p *PyMalloc) SizeOf(va uint64) (uint64, bool) {
	if p.large.Owns(va) {
		return p.large.SizeOf(va)
	}
	pi, ok := p.poolOf(va &^ uint64(pyPoolBytes-1))
	if !ok || !p.pools[pi].assigned {
		return 0, false
	}
	return p.pools[pi].objSize, true
}

// Occupancy implements Allocator: live objects over slots of assigned pools.
func (p *PyMalloc) Occupancy() float64 {
	var used, cap int
	for _, a := range p.live {
		pools := p.pools[a*pyPoolsPerAren:][:pyPoolsPerAren]
		for i := range pools {
			if pools[i].assigned {
				used += pools[i].used
				cap += pools[i].capacity
			}
		}
	}
	if cap == 0 {
		return 0
	}
	return float64(used) / float64(cap)
}
