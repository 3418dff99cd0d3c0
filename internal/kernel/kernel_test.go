package kernel

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"memento/internal/cache"
	"memento/internal/config"
	"memento/internal/dram"
	"memento/internal/simerr"
)

func newKernel() (*Kernel, *cache.Hierarchy) {
	m := config.Default()
	h := cache.NewHierarchy(m, dram.New(m.DRAM))
	return New(m, h), h
}

func TestBuddyAllocFree(t *testing.T) {
	b := NewBuddy(0, 1024)
	f1, ok := b.Alloc(0)
	if !ok {
		t.Fatal("alloc failed")
	}
	f2, ok := b.Alloc(0)
	if !ok || f2 == f1 {
		t.Fatalf("second alloc bad: %d vs %d", f2, f1)
	}
	if b.FreeFrames() != 1022 {
		t.Fatalf("free frames = %d, want 1022", b.FreeFrames())
	}
	if err := b.Free(f1); err != nil {
		t.Fatal(err)
	}
	if err := b.Free(f2); err != nil {
		t.Fatal(err)
	}
	if b.FreeFrames() != 1024 {
		t.Fatalf("free frames = %d, want 1024 after frees", b.FreeFrames())
	}
	if err := b.checkIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestBuddyDeltaRestoreTruncatesGrowth restores a buddy snapshot after the
// watermark has grown the frame state past the captured length. The delta
// restore must leave the allocator equal to a full restore of the same
// snapshot into a fresh allocator, meter 9 bytes for each frame of a dirty
// window below the captured length plus the scalars, and keep the two
// equal through a regrowth of the cut-off tail.
func TestBuddyDeltaRestoreTruncatesGrowth(t *testing.T) {
	const base = 64
	b := NewBuddy(base, 1<<14)
	for i := 0; i < 1100; i++ {
		if _, ok := b.Alloc(0); !ok {
			t.Fatal("alloc failed")
		}
	}
	s := b.snapshot()
	if b.tracked() != 2048 {
		t.Fatalf("tracking %d frames at capture, want 2048", b.tracked())
	}
	// Dirty windows 0 and 3 by frees, windows 4 to 6 by the heads of the
	// alignment gap [1100, 2048) the order-10 carve pushes (the last is 512
	// frames at 1536, so window 7 holds no head), and window 8, past the
	// captured length, by the carved block itself. Windows 1, 2 and 7 stay
	// clean.
	for _, f := range []uint64{10, 1000} {
		if err := b.Free(base + f); err != nil {
			t.Fatal(err)
		}
	}
	if f, ok := b.Alloc(MaxOrder); !ok || f != base+2048 {
		t.Fatalf("order-%d carve = %d,%v, want %d", MaxOrder, f, ok, base+2048)
	}
	if b.tracked() != 4096 {
		t.Fatalf("tracking %d frames after the carve, want 4096", b.tracked())
	}
	if got, want := b.restore(s), uint64(5*256*9+buddyScalarBytes); got != want {
		t.Fatalf("delta restore metered %d bytes, want %d", got, want)
	}
	full := NewBuddy(base, 1<<14)
	if got := full.restore(s); got != s.bytes() {
		t.Fatalf("full restore metered %d bytes, want %d", got, s.bytes())
	}
	equal := func(when string) {
		t.Helper()
		if b.watermark != full.watermark || b.freeFrames != full.freeFrames || b.head != full.head ||
			!slices.Equal(b.frames.Live, full.frames.Live) {
			t.Fatalf("%s: delta-restored allocator differs from a full restore", when)
		}
		if err := b.checkIntegrity(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	equal("after restore")
	fb, okb := b.Alloc(MaxOrder)
	ff, okf := full.Alloc(MaxOrder)
	if fb != ff || okb != okf {
		t.Fatalf("carve after restore = %d,%v, full restore gives %d,%v", fb, okb, ff, okf)
	}
	equal("after regrowth")
}

func TestBuddyMergeRestoresMaxBlocks(t *testing.T) {
	b := NewBuddy(0, 1<<MaxOrder)
	frames := make([]uint64, 0, 1<<MaxOrder)
	for {
		f, ok := b.Alloc(0)
		if !ok {
			break
		}
		frames = append(frames, f)
	}
	if len(frames) != 1<<MaxOrder {
		t.Fatalf("allocated %d frames, want %d", len(frames), 1<<MaxOrder)
	}
	for _, f := range frames {
		if err := b.Free(f); err != nil {
			t.Fatal(err)
		}
	}
	if b.blocksAtOrder(MaxOrder) != 1 {
		t.Fatalf("after freeing everything, want one max-order block, free lists: %v", countFree(b))
	}
}

func countFree(b *Buddy) []int {
	out := make([]int, MaxOrder+1)
	for o := 0; o <= MaxOrder; o++ {
		out[o] = b.blocksAtOrder(o)
	}
	return out
}

func TestBuddyLargeOrder(t *testing.T) {
	b := NewBuddy(0, 4096)
	f, ok := b.Alloc(4) // 16 pages
	if !ok {
		t.Fatal("order-4 alloc failed")
	}
	if f%16 != 0 {
		t.Fatalf("order-4 block %d not aligned", f)
	}
	if b.FreeFrames() != 4096-16 {
		t.Fatalf("free frames = %d", b.FreeFrames())
	}
	if err := b.Free(f); err != nil {
		t.Fatal(err)
	}
	if err := b.checkIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestBuddyDoubleFreeFails(t *testing.T) {
	b := NewBuddy(0, 64)
	f, _ := b.Alloc(0)
	if err := b.Free(f); err != nil {
		t.Fatal(err)
	}
	if err := b.Free(f); err == nil {
		t.Fatal("double free must error")
	}
}

func TestBuddyExhaustion(t *testing.T) {
	b := NewBuddy(0, 4)
	for i := 0; i < 4; i++ {
		if _, ok := b.Alloc(0); !ok {
			t.Fatalf("alloc %d should succeed", i)
		}
	}
	if _, ok := b.Alloc(0); ok {
		t.Fatal("exhausted allocator must fail")
	}
}

// Property: random alloc/free sequences preserve buddy integrity and
// conservation of frames.
func TestBuddyIntegrityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuddy(128, 2048)
		live := make([]uint64, 0)
		for i := 0; i < 400; i++ {
			if rng.Intn(2) == 0 || len(live) == 0 {
				order := rng.Intn(4)
				if fr, ok := b.Alloc(order); ok {
					live = append(live, fr)
				}
			} else {
				i := rng.Intn(len(live))
				if err := b.Free(live[i]); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
		}
		return b.checkIntegrity() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMmapAndFault(t *testing.T) {
	k, _ := newKernel()
	as, _ := k.NewAddressSpace()
	va, cycles, err := k.Mmap(as, 4*config.PageSize, false)
	if err != nil {
		t.Fatal(err)
	}
	if cycles == 0 {
		t.Fatal("mmap must cost cycles")
	}
	vpn := va >> config.PageShift
	if as.MappedVPN(vpn) {
		t.Fatal("lazy mmap must not map pages")
	}
	if !as.CoveredVPN(vpn) {
		t.Fatal("VMA must cover the mapped range")
	}
	// First touch: page fault.
	pfn, walkCycles, werr := as.Walk(vpn)
	if werr != nil {
		t.Fatal("fault-in failed:", werr)
	}
	if pfn < firstUsableFrame {
		t.Fatalf("pfn %d inside reserved range", pfn)
	}
	if walkCycles < k.cfg.Cost.PageFaultTrapCycles {
		t.Fatalf("fault cycles %d below trap cost", walkCycles)
	}
	if k.Stats().PageFaults != 1 {
		t.Fatalf("page faults = %d, want 1", k.Stats().PageFaults)
	}
	// Second touch: plain walk, far cheaper, same PFN.
	pfn2, c2, werr2 := as.Walk(vpn)
	if werr2 != nil || pfn2 != pfn {
		t.Fatalf("re-walk: pfn %d vs %d", pfn2, pfn)
	}
	if c2 >= walkCycles {
		t.Fatalf("warm walk (%d) should be much cheaper than fault (%d)", c2, walkCycles)
	}
}

func TestWalkOutsideVMAFails(t *testing.T) {
	k, _ := newKernel()
	as, _ := k.NewAddressSpace()
	if _, _, err := as.Walk(0xdead); !errors.Is(err, simerr.ErrSegfault) {
		t.Fatalf("walk outside any VMA must fail with ErrSegfault, got %v", err)
	}
	if k.Stats().PageFaults != 0 {
		t.Fatal("segfault is not a handled page fault")
	}
}

func TestMmapPopulate(t *testing.T) {
	k, _ := newKernel()
	as, _ := k.NewAddressSpace()
	va, _, err := k.Mmap(as, 8*config.PageSize, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 8; i++ {
		if !as.MappedVPN((va >> config.PageShift) + i) {
			t.Fatalf("populated page %d not mapped", i)
		}
	}
	if got := as.ResidentPages(); got != 8 {
		t.Fatalf("resident = %d, want 8", got)
	}
	if k.Stats().PageFaults != 0 {
		t.Fatal("populate must not count page faults")
	}
}

func TestMunmapFreesEverything(t *testing.T) {
	k, _ := newKernel()
	as, _ := k.NewAddressSpace()
	freeBefore := k.FreeFrames()
	va, _, err := k.Mmap(as, 16*config.PageSize, true)
	if err != nil {
		t.Fatal(err)
	}
	shootdowns := 0
	as.Shootdown = func(vpn uint64) { shootdowns++ }
	cycles, err := k.Munmap(as, va, 16*config.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if cycles == 0 {
		t.Fatal("munmap must cost cycles")
	}
	if shootdowns != 16 {
		t.Fatalf("shootdowns = %d, want 16", shootdowns)
	}
	if as.ResidentPages() != 0 {
		t.Fatalf("resident = %d after munmap", as.ResidentPages())
	}
	if got := k.FreeFrames(); got != freeBefore {
		t.Fatalf("frames leaked: %d -> %d", freeBefore, got)
	}
	if k.Stats().PageTablePages != 0 {
		t.Fatalf("page-table pages leaked: %d", k.Stats().PageTablePages)
	}
}

func TestMunmapUnmappedFails(t *testing.T) {
	k, _ := newKernel()
	as, _ := k.NewAddressSpace()
	if _, err := k.Munmap(as, 0x5000, config.PageSize); err == nil {
		t.Fatal("munmap of unmapped region must fail")
	}
}

func TestReleaseAll(t *testing.T) {
	k, _ := newKernel()
	as, _ := k.NewAddressSpace()
	before := k.FreeFrames()
	for i := 0; i < 5; i++ {
		if _, _, err := k.Mmap(as, 4*config.PageSize, true); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.ReleaseAll(as); err != nil {
		t.Fatal(err)
	}
	if k.FreeFrames() != before {
		t.Fatalf("frames leaked after ReleaseAll: %d -> %d", before, k.FreeFrames())
	}
	if len(as.vmas) != 0 {
		t.Fatalf("VMAs remain: %d", len(as.vmas))
	}
}

func TestFaultGeneratesDRAMTrafficForZeroing(t *testing.T) {
	k, h := newKernel()
	as, _ := k.NewAddressSpace()
	va, _, _ := k.Mmap(as, config.PageSize, false)
	before := h.Mem.Stats().TotalBytes()
	as.Walk(va >> config.PageShift)
	// Zeroing a 4 KiB page writes 64 lines; cold misses generate traffic.
	if h.Mem.Stats().TotalBytes() == before {
		t.Fatal("page-fault zeroing should generate memory traffic")
	}
}

func TestStatsAccounting(t *testing.T) {
	k, _ := newKernel()
	as, _ := k.NewAddressSpace()
	va, _, _ := k.Mmap(as, 4*config.PageSize, false)
	for i := uint64(0); i < 4; i++ {
		as.Walk(va>>config.PageShift + i)
	}
	s := k.Stats()
	if s.Mmaps != 1 || s.PageFaults != 4 {
		t.Fatalf("mmaps=%d faults=%d", s.Mmaps, s.PageFaults)
	}
	if s.UserPagesAllocated != 4 {
		t.Fatalf("user pages = %d, want 4", s.UserPagesAllocated)
	}
	if s.KernelPagesAllocated == 0 {
		t.Fatal("page tables must be accounted as kernel pages")
	}
	if s.FaultCycles == 0 || s.SyscallCycles == 0 {
		t.Fatal("cycle accounting missing")
	}
	if s.KernelMMCycles() != s.FaultCycles+s.SyscallCycles {
		t.Fatal("KernelMMCycles mismatch")
	}
}

func TestAllocPoolPages(t *testing.T) {
	k, _ := newKernel()
	frames, cycles, err := k.AllocPoolPages(nil, 64)
	if err != nil || len(frames) != 64 {
		t.Fatalf("pool alloc: err=%v n=%d", err, len(frames))
	}
	if cycles == 0 {
		t.Fatal("pool alloc must cost cycles")
	}
	seen := map[uint64]bool{}
	for _, f := range frames {
		if seen[f] {
			t.Fatalf("duplicate frame %d", f)
		}
		seen[f] = true
	}
	if err := k.FreePoolPages(frames); err != nil {
		t.Fatal(err)
	}
}

func TestPeakResident(t *testing.T) {
	k, _ := newKernel()
	as, _ := k.NewAddressSpace()
	va, _, _ := k.Mmap(as, 8*config.PageSize, true)
	if as.PeakResidentPages() != 8 {
		t.Fatalf("peak = %d, want 8", as.PeakResidentPages())
	}
	k.Munmap(as, va, 8*config.PageSize)
	if as.PeakResidentPages() != 8 {
		t.Fatal("peak must persist after unmap")
	}
}

// Property: mmap/touch/munmap cycles always conserve physical frames.
func TestFrameConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k, _ := newKernel()
		as, _ := k.NewAddressSpace()
		before := k.FreeFrames()
		type mapping struct{ va, length uint64 }
		var maps []mapping
		for i := 0; i < 20; i++ {
			if rng.Intn(2) == 0 || len(maps) == 0 {
				pages := uint64(1 + rng.Intn(8))
				va, _, err := k.Mmap(as, pages<<config.PageShift, rng.Intn(2) == 0)
				if err != nil {
					return false
				}
				// Touch a random subset.
				for p := uint64(0); p < pages; p++ {
					if rng.Intn(2) == 0 {
						as.Walk(va>>config.PageShift + p)
					}
				}
				maps = append(maps, mapping{va, pages << config.PageShift})
			} else {
				i := rng.Intn(len(maps))
				if _, err := k.Munmap(as, maps[i].va, maps[i].length); err != nil {
					return false
				}
				maps = append(maps[:i], maps[i+1:]...)
			}
		}
		if _, err := k.ReleaseAll(as); err != nil {
			return false
		}
		return k.FreeFrames() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPageTableWalkDepth(t *testing.T) {
	k, _ := newKernel()
	as, _ := k.NewAddressSpace()
	va, _, _ := k.Mmap(as, config.PageSize, true)
	// A warm 4-level walk reads 4 entries; with a warm cache that's 4 L1
	// hits = 8 cycles.
	_, cycles, werr := as.Walk(va >> config.PageShift)
	if werr != nil {
		t.Fatal("walk failed:", werr)
	}
	if cycles < 4*2 {
		t.Fatalf("walk cycles = %d, want >= 8 (4 levels x L1 hit)", cycles)
	}
}

// TestVMAsStaySortedWithoutSort pins the invariant Mmap relies on to append
// without re-sorting: mappings start at a cursor that only grows, so after
// interleaved Mmap and Munmap calls the VMA list is still ordered and
// findVMA finds every live mapping, and none of the removed ones.
func TestVMAsStaySortedWithoutSort(t *testing.T) {
	k, _ := newKernel()
	as, err := k.NewAddressSpace()
	if err != nil {
		t.Fatal(err)
	}
	type mapping struct{ va, length uint64 }
	var live, gone []mapping
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		if rng.Intn(3) > 0 || len(live) == 0 {
			length := uint64(1+rng.Intn(8)) << config.PageShift
			va, _, err := k.Mmap(as, length, false)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, mapping{va, length})
			continue
		}
		j := rng.Intn(len(live))
		if _, err := k.Munmap(as, live[j].va, live[j].length); err != nil {
			t.Fatal(err)
		}
		gone = append(gone, live[j])
		live = append(live[:j], live[j+1:]...)
	}
	for i := 1; i < len(as.vmas); i++ {
		if as.vmas[i-1].endVPN > as.vmas[i].startVPN {
			t.Fatalf("vma %d [%#x,%#x) not after vma %d ending %#x",
				i, as.vmas[i].startVPN, as.vmas[i].endVPN, i-1, as.vmas[i-1].endVPN)
		}
	}
	for _, m := range live {
		for off := uint64(0); off < m.length; off += config.PageSize {
			if _, ok := as.findVMA((m.va + off) >> config.PageShift); !ok {
				t.Fatalf("live mapping %#x+%#x not found", m.va, off)
			}
		}
	}
	for _, m := range gone {
		if _, ok := as.findVMA(m.va >> config.PageShift); ok {
			t.Fatalf("unmapped %#x still found", m.va)
		}
	}
}
