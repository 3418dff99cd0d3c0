// Package softalloc implements the software userspace allocators the paper
// uses as baselines: CPython's pymalloc (Section 2.1), a jemalloc-style
// slab allocator for the C++ workloads, and a Go-runtime-style span
// allocator with mark-sweep garbage collection for the Golang workloads.
//
// Every operation returns its total cycle cost: an instruction budget
// (converted through the configured IPC) plus real metadata memory accesses
// issued through the VMem interface, which the machine backs with
// TLB translation + the cache hierarchy — so allocator metadata misses,
// page faults on fresh pools, and mmap calls all cost what they cost in
// the baseline system the paper measures.
package softalloc

import (
	"fmt"
	"slices"

	"memento/internal/config"
	"memento/internal/kernel"
	"memento/internal/simerr"
)

// VMem is virtually-addressed memory: the machine implements it with
// translation (TLB, page walks, page faults) plus the cache hierarchy.
type VMem interface {
	// AccessVA performs one access at virtual address va and returns the
	// total latency in cycles, including any page fault it triggered. The
	// error follows the tlb.Walker taxonomy: simerr.ErrOutOfMemory when the
	// fault handler could not back the page, simerr.ErrSegfault when no
	// mapping covers va.
	AccessVA(va uint64, write bool) (cycles uint64, err error)
}

// Stats counts allocator activity.
type Stats struct {
	Allocs        uint64
	Frees         uint64
	FastPathHits  uint64 // allocations served from a hot free list
	SlowPathRuns  uint64 // pool/slab/span refills
	ArenaMmaps    uint64 // mmap calls for new arenas/chunks
	ArenaMunmaps  uint64
	LargeAllocs   uint64 // >MaxObjectSize requests routed to the large path
	UserMMCycles  uint64 // cycles spent in userspace allocator code+metadata
	GCCycles      uint64 // Go only: collector cycles
	GCCollections uint64
}

// Allocator is the interface shared by the software baselines.
type Allocator interface {
	// Name identifies the allocator in reports.
	Name() string
	// Init performs library initialization at process start (jemalloc
	// pre-maps its pool here; Go reserves its heap arena).
	Init() (cycles uint64, err error)
	// Alloc returns the virtual address of a block of at least size bytes
	// and the operation's cycle cost.
	Alloc(size uint64) (va uint64, cycles uint64, err error)
	// Free releases the block at va.
	Free(va uint64) (cycles uint64, err error)
	// SizeOf reports the allocated size of a live block (for touch replay).
	SizeOf(va uint64) (uint64, bool)
	// Occupancy returns the live fraction of the allocator's small-object
	// slots in [0,1] (the §6.6 fragmentation comparison); 0 when no slots
	// are held.
	Occupancy() float64
	// Stats returns a copy of the counters.
	Stats() Stats
	// Snapshot returns an immutable deep copy of the allocator's state for
	// warm-start restore. The environment wiring (kernel, address space,
	// memory) is not part of the snapshot.
	Snapshot() AllocSnapshot
	// Restore replaces the allocator's state with a deep copy of a snapshot
	// previously taken from an allocator of the same type. The allocator's
	// own environment wiring is kept. It fails on a snapshot of a different
	// allocator type.
	Restore(s AllocSnapshot) error
}

// AllocSnapshot is an opaque allocator snapshot; each allocator defines its
// own concrete type and only accepts its own in Restore.
type AllocSnapshot interface {
	allocSnapshot()
	// Bytes reports the captured state size; software-allocator snapshots
	// have no shared portion, so a restore copies all of it.
	Bytes() uint64
}

// ErrOutOfMemory is returned when the kernel cannot back more memory. It
// wraps simerr.ErrOutOfMemory.
var ErrOutOfMemory = fmt.Errorf("softalloc: %w", simerr.ErrOutOfMemory)

// ErrBadFree is returned for frees of unknown or already-freed addresses.
// It wraps simerr.ErrBadFree.
var ErrBadFree = fmt.Errorf("softalloc: %w", simerr.ErrBadFree)

// sizeClassOf rounds size up to the allocator's class granularity and
// returns (class index, class size). Callers guarantee 0 < size <= maxSize.
func sizeClassOf(size uint64, step, maxSize int) (int, uint64) {
	if size == 0 {
		size = 1
	}
	cls := int((size + uint64(step) - 1) / uint64(step))
	s := uint64(cls) * uint64(step)
	if s > uint64(maxSize) {
		panic(fmt.Sprintf("softalloc: size %d beyond max %d", size, maxSize))
	}
	return cls - 1, s
}

// grow returns s extended by n elements, reusing its capacity when it
// suffices. The new elements' contents are unspecified.
func grow[T any](s []T, n int) []T {
	return slices.Grow(s, n)[:len(s)+n]
}

// env bundles what every allocator needs.
type env struct {
	cfg config.Machine
	k   *kernel.Kernel
	as  *kernel.AddressSpace
	mem VMem
}

func (e *env) instr(n int) uint64 { return e.cfg.InstrCycles(n) }

// access charges one metadata access at va, accumulating its latency into
// *cycles and propagating any translation/backing error.
func (e *env) access(cycles *uint64, va uint64, write bool) error {
	c, err := e.mem.AccessVA(va, write)
	*cycles += c
	return err
}
