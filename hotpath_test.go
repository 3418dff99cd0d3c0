// Hot-path microbenchmarks and allocation regression tests for the
// simulator's innermost loops: cache lookups, TLB translation, DRAM access,
// and whole-trace replay. The access paths are required to be allocation-free
// — every simulated memory reference crosses them, so a single heap
// allocation per access shows up as GC pressure across the whole sweep.
package memento

import (
	"runtime"
	"testing"

	"memento/internal/cache"
	"memento/internal/config"
	"memento/internal/core"
	"memento/internal/dram"
	"memento/internal/kernel"
	"memento/internal/machine"
	"memento/internal/tlb"
	"memento/internal/workload"
)

// fixedWalker is a Walker stub with a constant translation, isolating the
// TLB data structures from the kernel page-table model.
type fixedWalker struct{}

func (fixedWalker) Walk(vpn uint64) (uint64, uint64, error) { return vpn + 1, 120, nil }

// benchAddrs is a mix of strided and re-used line addresses, enough to hit
// all three cache levels and miss to DRAM.
func benchAddrs() []uint64 {
	addrs := make([]uint64, 4096)
	for i := range addrs {
		// Two interleaved streams: a dense reuse window and a wide stride
		// that spills the L1/L2 sets.
		if i%4 == 0 {
			addrs[i] = uint64(i%64) << config.LineShift
		} else {
			addrs[i] = uint64(i*97) << config.LineShift
		}
	}
	return addrs
}

func BenchmarkCacheLookup(b *testing.B) {
	c := cache.NewCache(config.Default().L1D)
	addrs := benchAddrs()
	for _, a := range addrs {
		c.Insert(a>>config.LineShift, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(addrs[i%len(addrs)]>>config.LineShift, i%7 == 0)
	}
}

func BenchmarkTLBTranslate(b *testing.B) {
	s := tlb.NewSystem(config.Default())
	var w tlb.Walker = fixedWalker{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Translate(uint64(i%512), w); err != nil {
			b.Fatal("translate failed")
		}
	}
}

func BenchmarkDRAMAccess(b *testing.B) {
	d := dram.New(config.Default().DRAM)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Read(uint64(i) << config.LineShift)
	}
}

// BenchmarkTraceReplay measures one full baseline replay of a representative
// function trace on a fresh machine (generation excluded).
func BenchmarkTraceReplay(b *testing.B) {
	p, ok := workload.ByName("aes")
	if !ok {
		b.Fatal("no aes profile")
	}
	tr := workload.Generate(p)
	cfg := config.Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := machine.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run(tr, machine.Options{Stack: machine.Baseline}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAccessPathsZeroAlloc pins the allocation-free property of the
// per-access hot paths: a cache hierarchy access (hit and miss), a TLB
// translation (hit and walk), a DRAM read/write, and a page's
// non-temporal zeroing.
func TestAccessPathsZeroAlloc(t *testing.T) {
	cfg := config.Default()

	h := cache.NewHierarchy(cfg, dram.New(cfg.DRAM))
	addrs := benchAddrs()
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		h.Access(addrs[i%len(addrs)], i%3 == 0)
		i++
	}); n != 0 {
		t.Errorf("Hierarchy.Access makes %v allocations per op, want 0", n)
	}

	s := tlb.NewSystem(cfg)
	var w tlb.Walker = fixedWalker{}
	j := uint64(0)
	if n := testing.AllocsPerRun(1000, func() {
		s.Translate(j%512, w)
		j++
	}); n != 0 {
		t.Errorf("System.Translate makes %v allocations per op, want 0", n)
	}

	d := dram.New(cfg.DRAM)
	k := uint64(0)
	if n := testing.AllocsPerRun(1000, func() {
		if k%4 == 0 {
			d.Write(k << config.LineShift)
		} else {
			d.Read(k << config.LineShift)
		}
		k++
	}); n != 0 {
		t.Errorf("DRAM access makes %v allocations per op, want 0", n)
	}

	p := uint64(0)
	if n := testing.AllocsPerRun(1000, func() {
		h.StreamZeroPage(p % 96 << config.PageShift)
		p++
	}); n != 0 {
		t.Errorf("Hierarchy.StreamZeroPage makes %v allocations per op, want 0", n)
	}
}

// TestTeardownFastForwardZeroAlloc pins the allocation-free teardown path:
// the hierarchy's hit replay, and the steady-state warm teardown of both
// page tables restored from a checkpoint — a munmap of a populated VMA and
// a FreeArena of a populated arena — whose copy-on-write clears take their
// private nodes from the machine's free list.
func TestTeardownFastForwardZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation distorts allocation counts")
	}
	cfg := config.Default()
	h := cache.NewHierarchy(cfg, dram.New(cfg.DRAM))
	pas := []uint64{1 << 20, 2<<20 + 8, 3<<20 + 16, 4<<20 + 24}
	for _, pa := range pas {
		h.Access(pa, false)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if _, ok := h.RepeatHits(pas, 1<<3, 7); !ok {
			panic("resident tuple refused")
		}
	}); n != 0 {
		t.Errorf("Hierarchy.RepeatHits makes %v allocations per op, want 0", n)
	}

	k := kernel.New(cfg, h)
	as, err := k.NewAddressSpace()
	if err != nil {
		t.Fatal(err)
	}
	// 700 pages span two leaf tables; every other page is touched, so the
	// VMA holds runs of present and of zero PTEs.
	const length = 700 << config.PageShift
	va, _, err := k.Mmap(as, length, false)
	if err != nil {
		t.Fatal(err)
	}
	for off := uint64(0); off < length; off += 2 << config.PageShift {
		if _, _, err := as.Walk((va + off) >> config.PageShift); err != nil {
			t.Fatal(err)
		}
	}
	ks, hs, ass := k.Snapshot(), h.Snapshot(), as.Snapshot()
	var before, after runtime.MemStats
	var mallocs uint64
	const warmup, runs = 3, 20
	for i := 0; i < warmup+runs; i++ {
		k.Restore(ks)
		h.Restore(hs)
		as := k.RestoreAddressSpace(ass)
		runtime.ReadMemStats(&before)
		_, err := k.Munmap(as, va, length)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if i >= warmup {
			mallocs += after.Mallocs - before.Mallocs
		}
	}
	if mallocs != 0 {
		t.Errorf("warm Munmap allocated %d times over %d runs, want 0", mallocs, runs)
	}

	lay, err := core.NewLayout(cfg.Memento, core.DefaultRegionStart, core.DefaultRegionBytes)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := core.NewPageAllocator(cfg, lay, h, k)
	if err != nil {
		t.Fatal(err)
	}
	// The largest class's arena, backed over its first 24 pages: runs of
	// present PTEs across several PTE lines, then a run of zero ones.
	a, _, err := pa.AllocArena(lay.Classes() - 1)
	if err != nil {
		t.Fatal(err)
	}
	for off := uint64(0); off < 24<<config.PageShift; off += config.PageSize {
		if _, _, err := pa.Walk((a.BaseVA + off) >> config.PageShift); err != nil {
			t.Fatal(err)
		}
	}
	ks, hs, ps := k.Snapshot(), h.Snapshot(), pa.Snapshot()
	mallocs = 0
	for i := 0; i < warmup+runs; i++ {
		k.Restore(ks)
		h.Restore(hs)
		p := core.RestorePageAllocator(cfg, lay, h, k, ps)
		runtime.ReadMemStats(&before)
		p.FreeArena(a)
		runtime.ReadMemStats(&after)
		// Release hands the private nodes back, as a warm run's teardown does.
		if err := p.Release(); err != nil {
			t.Fatal(err)
		}
		if i >= warmup {
			mallocs += after.Mallocs - before.Mallocs
		}
	}
	if mallocs != 0 {
		t.Errorf("warm FreeArena allocated %d times over %d runs, want 0", mallocs, runs)
	}
}

// TestMachineFootprint caps the host bytes one simulated machine allocates.
// Its cache and TLB sets are most of them, and of every warm checkpoint,
// so the cap pins the recency-ordered layout of one 4-byte tag word per
// line (DESIGN.md §16): 179,120 bytes with it, against 328,624 with
// 8-byte tag words and 655,698 with a 64-bit LRU stamp beside every line.
func TestMachineFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation distorts allocation counts")
	}
	cfg := config.Default()
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := machine.New(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got, limit := r.AllocedBytesPerOp(), int64(192<<10); got > limit {
		t.Errorf("machine.New(config.Default()) allocates %d bytes, want at most %d", got, limit)
	}
}
