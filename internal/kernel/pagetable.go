package kernel

import (
	"memento/internal/config"
	"memento/internal/pagetable"
)

// newPTNode backs a new page-table page: one frame from the buddy allocator,
// zeroed through mem (kernels zero new page-table pages). It returns the
// frame and the cycle cost; the error wraps simerr.ErrOutOfMemory.
func (k *Kernel) newPTNode() (frame, cycles uint64, err error) {
	frame, err = k.allocFrame(0)
	if err != nil {
		return 0, 0, err
	}
	cycles = k.cfg.InstrCycles(k.cfg.Cost.BuddyAllocInstrs)
	cycles += k.zeroPage(frame)
	k.stats.KernelPagesAllocated++
	k.stats.PageTablePages++
	return frame, cycles, nil
}

// pageZeroer is the non-temporal page-zeroing path the cache hierarchy
// offers (cache.Hierarchy.StreamZeroPage).
type pageZeroer interface {
	StreamZeroPage(pa uint64) uint64
}

// zeroPage clears a frame the way clear_page does: non-temporal stores that
// stream to DRAM without warming the cache, when the memory model supports
// it; otherwise ordinary writes (simple Mem fakes in tests).
func (k *Kernel) zeroPage(frame uint64) uint64 {
	base := frame << config.PageShift
	if pz, ok := k.mem.(pageZeroer); ok {
		return pz.StreamZeroPage(base) + k.cfg.InstrCycles(64)
	}
	var cycles uint64
	for off := uint64(0); off < config.PageSize; off += config.LineSize {
		cycles += k.mem.Access(base+off, true)
	}
	return cycles
}

// reapEmpty reaps pt's empty page-table pages (see pagetable.Table.Reap)
// and returns their frames to the buddy allocator, returning the cycle
// cost.
func (k *Kernel) reapEmpty(pt *pagetable.Table) (cycles uint64) {
	pt.Reap(func(pfn uint64) {
		if err := k.buddy.Free(pfn); err == nil {
			k.stats.PageTablePages--
			cycles += k.buddyFreeCycles
		}
	})
	return cycles
}
