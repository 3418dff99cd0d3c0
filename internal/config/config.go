// Package config holds the simulated machine configuration and the
// cost-model constants used throughout the Memento reproduction.
//
// The structure mirrors Table 3 of the paper ("Simulation configuration").
// Latencies are expressed in core cycles at the configured clock frequency
// (3 GHz in the paper). Constants that the paper does not state explicitly
// (for example syscall entry cost) are engineering estimates; each one is
// documented at its declaration so the cost model is fully auditable.
package config

import (
	"fmt"
	"math/bits"
)

// Common architectural constants.
const (
	// PageSize is the base page size in bytes (4 KiB, x86-64).
	PageSize = 4096
	// PageShift is log2(PageSize).
	PageShift = 12
	// LineSize is the cache line size in bytes.
	LineSize = 64
	// LineShift is log2(LineSize).
	LineShift = 6
)

// Widths of the 32-bit host words that hold simulated quantities.
// Machine.Validate rejects a DRAM too large for either.
const (
	// CacheTagBits is the tag width of a cache line's tag word; its other
	// two bits are the valid and dirty flags.
	CacheTagBits = 30
	// MaxPTEFrame is the largest frame a page-table leaf entry can map: an
	// entry holds pfn+1, with 0 meaning not present.
	MaxPTEFrame = 1<<32 - 2
)

// FloorPow2 returns the largest power of two <= n. It is the set-count
// rounding rule shared by the cache and TLB models; n must be >= 1.
func FloorPow2(n int) int {
	return 1 << (bits.Len(uint(n)) - 1)
}

// Log2 returns log2(n) for a power-of-two n, the index shift implied by a
// power-of-two set count.
func Log2(n int) int {
	return bits.TrailingZeros(uint(n))
}

// CacheConfig describes one level of a set-associative cache.
type CacheConfig struct {
	// Name identifies the level in statistics output ("L1D", "L2", ...).
	Name string
	// SizeBytes is the total capacity in bytes.
	SizeBytes int
	// Ways is the associativity.
	Ways int
	// LatencyCycles is the access (hit) latency in core cycles.
	LatencyCycles uint64
}

// Sets returns the number of sets implied by the geometry.
func (c CacheConfig) Sets() int {
	return c.SizeBytes / (LineSize * c.Ways)
}

// Validate reports an error if the geometry is not realizable.
func (c CacheConfig) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("config: cache %s: non-positive geometry", c.Name)
	}
	if c.SizeBytes%(LineSize*c.Ways) != 0 {
		return fmt.Errorf("config: cache %s: size %d not divisible into %d ways of %d-byte lines",
			c.Name, c.SizeBytes, c.Ways, LineSize)
	}
	sets := c.Sets()
	if sets&(sets-1) != 0 {
		return fmt.Errorf("config: cache %s: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

// TLBConfig describes one TLB level.
type TLBConfig struct {
	Name    string
	Entries int
	Ways    int
	// LatencyCycles is the lookup latency. The L1 TLB lookup is overlapped
	// with the L1 cache access on hits, so its latency is usually 0 here.
	LatencyCycles uint64
}

// DRAMConfig describes the main-memory timing model.
type DRAMConfig struct {
	// SizeBytes is the installed capacity (64 GiB in Table 3).
	SizeBytes uint64
	// Banks is the number of banks (16 in Table 3).
	Banks int
	// RowBytes is the row-buffer size per bank.
	RowBytes int
	// RowHitCycles is the access latency on a row-buffer hit, in core cycles.
	RowHitCycles uint64
	// RowMissCycles is the access latency on a row-buffer miss (precharge +
	// activate + CAS), in core cycles.
	RowMissCycles uint64
	// QueueCyclesPerPending adds contention latency per already-pending
	// request to the same bank, approximating bank queueing.
	QueueCyclesPerPending uint64
}

// HOTConfig describes the Hardware Object Table (Table 3: 3.4 KB,
// direct-mapped, 2 cycles, 1.32 mW, 0.0084 mm^2).
type HOTConfig struct {
	// Entries is the number of entries: one per size class.
	Entries int
	// LatencyCycles is the hit latency.
	LatencyCycles uint64
	// AreaMM2 and PowerMW are the CACTI 6.5 numbers the paper reports.
	AreaMM2 float64
	PowerMW float64
}

// AACConfig describes the Arena Allocation Cache of the hardware page
// allocator (Table 3: 32-entry, direct-mapped, 1 cycle, 0.43 mW, 0.0023 mm^2).
type AACConfig struct {
	Entries       int
	LatencyCycles uint64
	AreaMM2       float64
	PowerMW       float64
}

// MementoConfig gathers the parameters of the Memento hardware.
type MementoConfig struct {
	HOT HOTConfig
	AAC AACConfig
	// MaxObjectSize is the largest allocation Memento serves (512 bytes);
	// larger requests fall back to the software allocator.
	MaxObjectSize int
	// SizeClassStep is the size-class granularity (8 bytes).
	SizeClassStep int
	// ObjectsPerArena is the fixed object count per arena (256).
	ObjectsPerArena int
	// BypassCounterBits is the width of the arena-header bypass counter (11).
	BypassCounterBits int
	// EagerArenaPrefetch enables the optimization of loading the next
	// available arena when the last object of the current HOT entry is
	// allocated (Section 3.1).
	EagerArenaPrefetch bool
	// BypassEnabled enables the main-memory bypass mechanism (Section 3.3).
	BypassEnabled bool
	// PagePoolPages is the size of the physical page pool the OS keeps
	// replenished for the hardware page allocator.
	PagePoolPages int
	// PagePoolRefillPages is how many pages the OS adds per replenish.
	PagePoolRefillPages int
}

// NumSizeClasses returns the number of Memento size classes (64 in the paper:
// 8..512 bytes in 8-byte increments).
func (m MementoConfig) NumSizeClasses() int {
	return m.MaxObjectSize / m.SizeClassStep
}

// CostModel holds the scalar cycle costs of the software memory-management
// paths. Everything not in Table 3 is an estimate; see each field.
type CostModel struct {
	// IPC is the sustained instructions-per-cycle of the 4-issue OOO core on
	// allocator code. Allocator paths are branchy pointer chasing, so we use
	// 2.0 rather than the 4.0 issue width.
	IPC float64

	// UserAllocFastPathInstrs is the instruction count of a userspace
	// allocator fast-path allocation (size-class computation, free-list pop,
	// bookkeeping). Roughly 25-60 instructions in pymalloc/jemalloc; we use
	// the per-allocator values in softalloc and keep this as the default.
	UserAllocFastPathInstrs int
	// UserFreeFastPathInstrs is the free fast path (address alignment,
	// free-list push).
	UserFreeFastPathInstrs int
	// UserSlowPathInstrs is the extra instruction cost of refilling a pool /
	// span from the allocator's arena lists.
	UserSlowPathInstrs int

	// SyscallEntryExitCycles is the combined user->kernel->user mode-switch
	// cost (SYSCALL/SYSRET, register save/restore, KPTI-less): ~150 cycles
	// each way.
	SyscallEntryExitCycles uint64
	// MmapBaseInstrs is the kernel instruction cost of an mmap call (VMA
	// allocation, interval-tree insertion, bookkeeping), excluding memory
	// traffic which is charged through the hierarchy.
	MmapBaseInstrs int
	// MunmapBaseInstrs is the kernel instruction cost of munmap excluding
	// per-page teardown.
	MunmapBaseInstrs int
	// MunmapPerPageInstrs is the per-page PTE-clear + buddy-free cost.
	MunmapPerPageInstrs int

	// PageFaultTrapCycles is the hardware trap + kernel entry cost of a page
	// fault before the handler proper runs (~300 cycles), plus return.
	PageFaultTrapCycles uint64
	// PageFaultHandlerInstrs is the handler software path (VMA lookup,
	// policy checks, fault accounting, and the memcg charging that
	// containerized execution adds — the workloads run inside crun
	// containers, Section 5), excluding buddy allocation and zeroing.
	PageFaultHandlerInstrs int
	// BuddyAllocInstrs is the buddy-allocator order-0 allocation cost.
	BuddyAllocInstrs int
	// BuddyFreeInstrs is the buddy free + merge cost.
	BuddyFreeInstrs int

	// ContextSwitchCycles is the direct cost of a context switch
	// (register/FPU state, scheduler), used by the multi-process study.
	ContextSwitchCycles uint64
	// HOTFlushPerEntryCycles is the cost of flushing one HOT entry on a
	// context switch (write back header through the hierarchy is charged
	// separately; this is the issue cost).
	HOTFlushPerEntryCycles uint64

	// MementoArenaRequestCycles is the object-allocator -> page-allocator
	// round trip (on-chip, to the memory controller): ~ LLC latency.
	MementoArenaRequestCycles uint64
	// MementoPageWalkServiceCycles is the page-allocator-side service cost of
	// a flagged page walk that allocates a page from the pool (pool pop +
	// PTE install issue cost); the walk's memory accesses are charged
	// through the hierarchy.
	MementoPageWalkServiceCycles uint64

	// RPCCyclesPerCall approximates the function's Redis RPC at entry/exit
	// (hundreds of microseconds; mostly off the MM critical path). Charged
	// as app cycles.
	RPCCyclesPerCall uint64
}

// Machine is the full simulated-machine configuration.
type Machine struct {
	// ClockGHz is the core frequency (3 GHz in Table 3).
	ClockGHz float64
	// ROBEntries and LSQEntries are carried from Table 3 for documentation;
	// the trace-driven model does not simulate them directly.
	ROBEntries int
	LSQEntries int

	L1D  CacheConfig
	L1I  CacheConfig
	L2   CacheConfig
	LLC  CacheConfig
	TLB1 TLBConfig
	TLB2 TLBConfig
	DRAM DRAMConfig

	Memento MementoConfig
	Cost    CostModel

	// Cores is the number of cores; headline experiments use 1.
	Cores int
}

// Default returns the Table 3 configuration.
func Default() Machine {
	return Machine{
		ClockGHz:   3.0,
		ROBEntries: 256,
		LSQEntries: 64,
		L1D:        CacheConfig{Name: "L1D", SizeBytes: 32 << 10, Ways: 8, LatencyCycles: 2},
		L1I:        CacheConfig{Name: "L1I", SizeBytes: 32 << 10, Ways: 8, LatencyCycles: 2},
		L2:         CacheConfig{Name: "L2", SizeBytes: 256 << 10, Ways: 8, LatencyCycles: 14},
		LLC:        CacheConfig{Name: "LLC", SizeBytes: 2 << 20, Ways: 16, LatencyCycles: 40},
		TLB1:       TLBConfig{Name: "L1TLB", Entries: 64, Ways: 4, LatencyCycles: 0},
		TLB2:       TLBConfig{Name: "L2TLB", Entries: 2048, Ways: 12, LatencyCycles: 7},
		DRAM: DRAMConfig{
			SizeBytes:             64 << 30,
			Banks:                 16,
			RowBytes:              8 << 10,
			RowHitCycles:          170,
			RowMissCycles:         240,
			QueueCyclesPerPending: 12,
		},
		Memento: MementoConfig{
			HOT:                 HOTConfig{Entries: 64, LatencyCycles: 2, AreaMM2: 0.0084, PowerMW: 1.32},
			AAC:                 AACConfig{Entries: 32, LatencyCycles: 1, AreaMM2: 0.0023, PowerMW: 0.43},
			MaxObjectSize:       512,
			SizeClassStep:       8,
			ObjectsPerArena:     256,
			BypassCounterBits:   11,
			EagerArenaPrefetch:  true,
			BypassEnabled:       true,
			PagePoolPages:       4096,
			PagePoolRefillPages: 1024,
		},
		Cost: CostModel{
			IPC:                          2.0,
			UserAllocFastPathInstrs:      40,
			UserFreeFastPathInstrs:       28,
			UserSlowPathInstrs:           220,
			SyscallEntryExitCycles:       300,
			MmapBaseInstrs:               1800,
			MunmapBaseInstrs:             1200,
			MunmapPerPageInstrs:          180,
			PageFaultTrapCycles:          320,
			PageFaultHandlerInstrs:       3200,
			BuddyAllocInstrs:             160,
			BuddyFreeInstrs:              140,
			ContextSwitchCycles:          3000,
			HOTFlushPerEntryCycles:       4,
			MementoArenaRequestCycles:    40,
			MementoPageWalkServiceCycles: 24,
			RPCCyclesPerCall:             900_000,
		},
		Cores: 1,
	}
}

// Validate checks the whole machine configuration.
func (m Machine) Validate() error {
	if m.DRAM.SizeBytes == 0 || m.DRAM.Banks <= 0 || m.DRAM.RowBytes <= 0 {
		return fmt.Errorf("config: invalid DRAM geometry")
	}
	lastLine := (m.DRAM.SizeBytes - 1) >> LineShift
	for _, c := range []CacheConfig{m.L1D, m.L1I, m.L2, m.LLC} {
		if err := c.Validate(); err != nil {
			return err
		}
		if lastLine>>Log2(c.Sets()) >= 1<<CacheTagBits {
			return fmt.Errorf("config: cache %s: %d-byte DRAM needs tags wider than %d bits",
				c.Name, m.DRAM.SizeBytes, CacheTagBits)
		}
	}
	if (m.DRAM.SizeBytes-1)>>PageShift > MaxPTEFrame {
		return fmt.Errorf("config: %d-byte DRAM has frames past the largest PTE frame %d",
			m.DRAM.SizeBytes, uint64(MaxPTEFrame))
	}
	if m.Memento.NumSizeClasses() <= 0 {
		return fmt.Errorf("config: memento has no size classes")
	}
	if m.Memento.HOT.Entries < m.Memento.NumSizeClasses() {
		return fmt.Errorf("config: HOT entries %d < size classes %d",
			m.Memento.HOT.Entries, m.Memento.NumSizeClasses())
	}
	if m.Memento.ObjectsPerArena <= 0 || m.Memento.ObjectsPerArena%8 != 0 {
		return fmt.Errorf("config: objects per arena %d must be a positive multiple of 8",
			m.Memento.ObjectsPerArena)
	}
	if m.Cost.IPC <= 0 {
		return fmt.Errorf("config: non-positive IPC")
	}
	if m.Cores <= 0 {
		return fmt.Errorf("config: cores must be positive")
	}
	return nil
}

// InstrCycles converts an instruction count to cycles under the cost model.
// The pointer receiver keeps hot callers from copying the whole Machine.
func (m *Machine) InstrCycles(instrs int) uint64 {
	if instrs <= 0 {
		return 0
	}
	return uint64(float64(instrs) / m.Cost.IPC)
}

// HOTEntryBytes returns the storage footprint of one HOT entry. The hardware
// stores region-compressed fields rather than full 64-bit pointers: the
// Memento region is contiguous and its start is held once in the MRS
// register, so arena addresses are encoded as region offsets or arena
// indices. The layout, which lands on the 3.4 KB total of Table 3
// (64 entries x 54 B = 3456 B):
//
//	VA:          30-bit region offset            -> 4 B
//	bitmap:      256 objects                     -> 32 B
//	bypass:      11-bit counter                  -> 2 B
//	prev/next:   two 24-bit arena indices        -> 6 B
//	PA:          pool-relative frame index       -> 4 B
//	list heads:  available + full, 24-bit each   -> 6 B
func (m Machine) HOTEntryBytes() int {
	const (
		vaField       = 4
		bitmapField   = 32
		bypassField   = 2
		listPtrFields = 6
		paField       = 4
		listHeads     = 6
	)
	return vaField + bitmapField + bypassField + listPtrFields + paField + listHeads
}
