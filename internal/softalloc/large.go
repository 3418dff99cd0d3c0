package softalloc

import (
	"fmt"

	"memento/internal/config"
	"memento/internal/kernel"
)

// Large-path parameters: glibc serves requests above the small threshold
// from its main heap with segregated bins, extending the heap in chunks;
// only requests above MmapThreshold go to mmap directly (and back to
// munmap on free).
const (
	// largeChunkBytes is the heap-extension granularity.
	largeChunkBytes = 1 << 20
	// MmapThreshold is glibc's default M_MMAP_THRESHOLD (128 KiB).
	MmapThreshold = 128 << 10
	// largeMinBlock is the smallest large-path block (everything <= 512
	// goes to the small allocator).
	largeMinBlock = 1024
)

// largeBins is the number of heap bins: orders largeMinOrder (1 KiB)
// through log2(MmapThreshold).
const (
	largeMinOrder = 10
	largeBins     = 17 - largeMinOrder + 1
)

// LargeAlloc models the glibc malloc path for requests above the
// small-object threshold (Section 2.1: requests "larger than 512 bytes by
// default are directly serviced by malloc in glibc, which eventually calls
// mmap as well"): a brk-like heap with power-of-two bins, falling back to
// per-request mmap above MmapThreshold.
type LargeAlloc struct {
	env
	// bumpVA/endVA delimit unused heap space in the current chunk.
	bumpVA, endVA uint64
	// bins[i] holds free blocks of size 1<<(largeMinOrder+i); binSeen has
	// bit i set once bins[i] has held a block.
	bins    [largeBins][]uint64
	binSeen uint32
	// blocks maps live VA -> rounded block size and direct-mmap flag; it
	// is the one map an allocator keeps (live large blocks sit at arbitrary
	// VAs), and a restore refills it in place. mmapped counts the
	// direct-mmap blocks.
	blocks  map[uint64]largeBlock
	mmapped int
	stats   Stats
}

// largeBlock is one live large block.
type largeBlock struct {
	size    uint64
	mmapped bool
}

// NewLargeAlloc creates the large-object path.
func NewLargeAlloc(cfg config.Machine, k *kernel.Kernel, as *kernel.AddressSpace, mem VMem) *LargeAlloc {
	l := new(LargeAlloc)
	l.Attach(cfg, k, as, mem)
	return l
}

// Attach wires the allocator to a machine's configuration, kernel,
// address space and memory, whatever it served before. Its state is kept
// for a Restore to replace, which then reuses the capacity it holds.
func (l *LargeAlloc) Attach(cfg config.Machine, k *kernel.Kernel, as *kernel.AddressSpace, mem VMem) {
	l.env = env{cfg: cfg, k: k, as: as, mem: mem}
	if l.blocks == nil {
		l.blocks = make(map[uint64]largeBlock)
	}
}

// Name implements Allocator.
func (l *LargeAlloc) Name() string { return "glibc-large" }

// Init implements Allocator.
func (l *LargeAlloc) Init() (uint64, error) { return 0, nil }

// Stats implements Allocator.
func (l *LargeAlloc) Stats() Stats { return l.stats }

// binOf returns the power-of-two bin for a size.
func binOf(size uint64) (order uint, block uint64) {
	block = largeMinBlock
	order = largeMinOrder
	for block < size {
		block <<= 1
		order++
	}
	return order, block
}

// Alloc implements Allocator.
func (l *LargeAlloc) Alloc(size uint64) (uint64, uint64, error) {
	l.stats.Allocs++
	if size > MmapThreshold {
		// Direct mmap, like glibc above the threshold.
		length := (size + config.PageSize - 1) &^ uint64(config.PageSize-1)
		va, cycles, err := l.k.Mmap(l.as, length, false)
		if err != nil {
			return 0, cycles, fmt.Errorf("glibc-large: direct mmap: %w", err)
		}
		l.stats.ArenaMmaps++
		l.blocks[va] = largeBlock{size: length, mmapped: true}
		l.mmapped++
		cycles += l.instr(120)
		l.stats.UserMMCycles += cycles
		return va, cycles, nil
	}
	order, block := binOf(size)
	cycles := l.instr(70) // bin selection, chunk bookkeeping
	bin := &l.bins[order-largeMinOrder]
	if n := len(*bin); n > 0 {
		va := (*bin)[n-1]
		*bin = (*bin)[:n-1]
		l.blocks[va] = largeBlock{size: block}
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
	l.blocks[va] = largeBlock{size: block}
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
func (l *LargeAlloc) Free(va uint64) (uint64, error) {
	b, ok := l.blocks[va]
	if !ok {
		return 0, ErrBadFree
	}
	delete(l.blocks, va)
	l.stats.Frees++
	if b.mmapped {
		l.mmapped--
		cycles, err := l.k.Munmap(l.as, va, b.size)
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
	order, _ := binOf(b.size)
	i := order - largeMinOrder
	l.bins[i] = append(l.bins[i], va)
	l.binSeen |= 1 << i
	l.stats.UserMMCycles += cycles
	return cycles, nil
}

// Owns reports whether va is a live large block.
func (l *LargeAlloc) Owns(va uint64) bool {
	_, ok := l.blocks[va]
	return ok
}

// SizeOf implements Allocator.
func (l *LargeAlloc) SizeOf(va uint64) (uint64, bool) {
	b, ok := l.blocks[va]
	return b.size, ok
}

// Occupancy implements Allocator: live bytes over held heap bytes.
func (l *LargeAlloc) Occupancy() float64 {
	var live, held uint64
	for _, b := range l.blocks {
		live += b.size
		held += b.size
	}
	for i, frees := range l.bins {
		held += uint64(len(frees)) << (largeMinOrder + i)
	}
	if held == 0 {
		return 0
	}
	return float64(live) / float64(held)
}
