package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"memento/internal/cache"
	"memento/internal/config"
	"memento/internal/dram"
	"memento/internal/kernel"
	"memento/internal/tlb"
)

// paTranslator routes Memento-region translations through the TLB system to
// the hardware page allocator's flagged walk, like the machine's MMU.
type paTranslator struct {
	pa   *PageAllocator
	tlbs *tlb.System
}

func (t *paTranslator) Translate(va uint64) (uint64, uint64, error) {
	pfn, cycles, err := t.tlbs.Translate(va>>config.PageShift, t.pa)
	if err != nil {
		return 0, cycles, err
	}
	return pfn<<config.PageShift | va&(config.PageSize-1), cycles, nil
}

type fixture struct {
	cfg  config.Machine
	h    *cache.Hierarchy
	k    *kernel.Kernel
	lay  *Layout
	pa   *PageAllocator
	tlbs *tlb.System
	u    *Unit
}

func newFixture(t testing.TB, mutate ...func(*config.Machine)) *fixture {
	cfg := config.Default()
	for _, m := range mutate {
		m(&cfg)
	}
	h := cache.NewHierarchy(cfg, dram.New(cfg.DRAM))
	k := kernel.New(cfg, h)
	lay, err := NewLayout(cfg.Memento, DefaultRegionStart, DefaultRegionBytes)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := NewPageAllocator(cfg, lay, h, k)
	if err != nil {
		t.Fatal(err)
	}
	tlbs := tlb.NewSystem(cfg)
	tr := &paTranslator{pa: pa, tlbs: tlbs}
	u, err := NewUnit(cfg, lay, pa, h, tr)
	if err != nil {
		t.Fatal(err)
	}
	pa.Shootdown = tlbs.Shootdown
	return &fixture{cfg: cfg, h: h, k: k, lay: lay, pa: pa, tlbs: tlbs, u: u}
}

func TestLayoutGeometry(t *testing.T) {
	f := newFixture(t)
	if f.lay.Classes() != 64 {
		t.Fatalf("classes = %d", f.lay.Classes())
	}
	if got := f.lay.ClassSize(0); got != 8 {
		t.Fatalf("class 0 size = %d", got)
	}
	if got := f.lay.ClassSize(63); got != 512 {
		t.Fatalf("class 63 size = %d", got)
	}
	// class 0: 64 + 256*8 = 2112 -> 1 page.
	if got := f.lay.ArenaPages(0); got != 1 {
		t.Fatalf("class 0 arena pages = %d, want 1", got)
	}
	// class 63: 64 + 256*512 = 131136 -> 33 pages -> 64 (pow2).
	if got := f.lay.ArenaBytes(63); got != 256<<10 {
		t.Fatalf("class 63 arena bytes = %d, want 262144", got)
	}
}

func TestLayoutClassOf(t *testing.T) {
	f := newFixture(t)
	cases := []struct {
		size uint64
		cls  int
		ok   bool
	}{{1, 0, true}, {8, 0, true}, {9, 1, true}, {512, 63, true}, {513, 0, false}, {0, 0, true}}
	for _, c := range cases {
		cls, ok := f.lay.ClassOf(c.size)
		if ok != c.ok || (ok && cls != c.cls) {
			t.Errorf("ClassOf(%d) = %d,%v want %d,%v", c.size, cls, ok, c.cls, c.ok)
		}
	}
}

// Property: Decompose(ObjectVA(...)) is the identity on valid coordinates.
func TestLayoutDecomposeRoundTrip(t *testing.T) {
	f := newFixture(t)
	fn := func(clsRaw, arenaRaw uint16, idxRaw uint8) bool {
		class := int(clsRaw) % f.lay.Classes()
		arenaIdx := uint64(arenaRaw) % 64
		idx := int(idxRaw)
		base := f.lay.StripeStart(class) + arenaIdx*f.lay.ArenaBytes(class)
		va := f.lay.ObjectVA(class, base, idx)
		c2, b2, i2, ok := f.lay.Decompose(va)
		return ok && c2 == class && b2 == base && i2 == idx
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLayoutDecomposeRejectsHeaderAndOutside(t *testing.T) {
	f := newFixture(t)
	if _, _, _, ok := f.lay.Decompose(f.lay.MRS); ok {
		t.Fatal("header address must not decompose to an object")
	}
	if _, _, _, ok := f.lay.Decompose(0x1000); ok {
		t.Fatal("address outside region must not decompose")
	}
	// Misaligned interior address.
	va := f.lay.ObjectVA(3, f.lay.StripeStart(3), 0) + 1
	if _, _, _, ok := f.lay.Decompose(va); ok {
		t.Fatal("misaligned address must not decompose")
	}
}

func TestArenaBitmap(t *testing.T) {
	a := &Arena{}
	idx, ok := a.FindFree()
	if !ok || idx != 0 {
		t.Fatalf("first free = %d,%v", idx, ok)
	}
	a.Set(0)
	a.Set(5)
	if a.Live() != 2 {
		t.Fatalf("live = %d", a.Live())
	}
	if !a.IsSet(5) || a.IsSet(1) {
		t.Fatal("IsSet wrong")
	}
	if !a.Clear(5) {
		t.Fatal("clear of set bit failed")
	}
	if a.Clear(5) {
		t.Fatal("double clear must fail")
	}
	for i := 0; i < nObjs; i++ {
		if !a.IsSet(i) {
			a.Set(i)
		}
	}
	if !a.Full() {
		t.Fatal("arena should be full")
	}
	if _, ok := a.FindFree(); ok {
		t.Fatal("full arena must have no free slot")
	}
}

func TestArenaListOps(t *testing.T) {
	var lst arenaList
	slab := []Arena{{BaseVA: 1}, {BaseVA: 2}}
	const a1, a2 = arenaRef(1), arenaRef(2)
	lst.push(slab, a1)
	lst.push(slab, a2)
	if lst.Len() != 2 || lst.head != a2 {
		t.Fatal("push order wrong")
	}
	lst.remove(slab, a1)
	if lst.Len() != 1 || lst.head != a2 {
		t.Fatal("remove tail wrong")
	}
	if got := lst.pop(slab); got != a2 {
		t.Fatal("pop wrong")
	}
	if lst.pop(slab) != 0 {
		t.Fatal("empty pop should be 0")
	}
}

func TestObjAllocBasics(t *testing.T) {
	f := newFixture(t)
	va, cycles, err := f.u.ObjAlloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if !f.lay.Contains(va) {
		t.Fatalf("va %#x outside region", va)
	}
	if cycles == 0 {
		t.Fatal("alloc must cost cycles")
	}
	if s, ok := f.u.SizeOf(va); !ok || s != 16 {
		t.Fatalf("SizeOf = %d,%v", s, ok)
	}
	// First allocation of the class is a HOT miss (initialization); the
	// second is a 2-cycle hit.
	_, cycles2, err := f.u.ObjAlloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if cycles2 != f.cfg.Memento.HOT.LatencyCycles {
		t.Fatalf("HOT hit cost = %d, want %d", cycles2, f.cfg.Memento.HOT.LatencyCycles)
	}
	st := f.u.Stats()
	if st.AllocHits != 1 || st.AllocMisses != 1 {
		t.Fatalf("hits/misses = %d/%d", st.AllocHits, st.AllocMisses)
	}
}

func TestObjAllocTooLarge(t *testing.T) {
	f := newFixture(t)
	if _, _, err := f.u.ObjAlloc(513); err != ErrTooLarge {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestObjAllocDistinctAddresses(t *testing.T) {
	f := newFixture(t)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		va, _, err := f.u.ObjAlloc(uint64(8 + (i%64)*8))
		if err != nil {
			t.Fatal(err)
		}
		if seen[va] {
			t.Fatalf("duplicate va %#x", va)
		}
		seen[va] = true
	}
}

func TestObjFreeHitAndReuse(t *testing.T) {
	f := newFixture(t)
	va, _, _ := f.u.ObjAlloc(32)
	cycles, err := f.u.ObjFree(va)
	if err != nil {
		t.Fatal(err)
	}
	if cycles != f.cfg.Memento.HOT.LatencyCycles {
		t.Fatalf("free hit cost = %d, want %d", cycles, f.cfg.Memento.HOT.LatencyCycles)
	}
	va2, _, _ := f.u.ObjAlloc(32)
	if va2 != va {
		t.Fatalf("freed slot should be reused: %#x vs %#x", va2, va)
	}
	if f.u.Stats().FreeHits != 1 {
		t.Fatalf("free hits = %d", f.u.Stats().FreeHits)
	}
}

func TestObjFreeDoubleFreeException(t *testing.T) {
	f := newFixture(t)
	va, _, _ := f.u.ObjAlloc(64)
	if _, err := f.u.ObjFree(va); err != nil {
		t.Fatal(err)
	}
	if _, err := f.u.ObjFree(va); err != ErrDoubleFree {
		t.Fatalf("err = %v, want ErrDoubleFree", err)
	}
	if f.u.Stats().DoubleFrees != 1 {
		t.Fatal("double free not counted")
	}
}

func TestObjFreeOutsideRegion(t *testing.T) {
	f := newFixture(t)
	if _, err := f.u.ObjFree(0x1234); err != ErrNotMemento {
		t.Fatalf("err = %v, want ErrNotMemento", err)
	}
}

func TestObjFreeBadAddress(t *testing.T) {
	f := newFixture(t)
	f.u.ObjAlloc(8)
	// Header address of class 0's first arena.
	if _, err := f.u.ObjFree(f.lay.MRS); err != ErrBadAddress {
		t.Fatalf("err = %v, want ErrBadAddress", err)
	}
}

func TestHOTMissLoadsFromAvailableList(t *testing.T) {
	// Disable eager prefetch to exercise the miss path deterministically.
	f := newFixture(t, func(m *config.Machine) { m.Memento.EagerArenaPrefetch = false })
	// Fill one arena completely (256 objects of class 0).
	vas := make([]uint64, 0, nObjs+1)
	for i := 0; i < nObjs; i++ {
		va, _, err := f.u.ObjAlloc(8)
		if err != nil {
			t.Fatal(err)
		}
		vas = append(vas, va)
	}
	// Next alloc misses: no available arenas -> new arena from the page
	// allocator; the full one moves to the full list.
	va, _, err := f.u.ObjAlloc(8)
	if err != nil {
		t.Fatal(err)
	}
	vas = append(vas, va)
	st := f.u.Stats()
	if st.AllocMisses != 2 { // initialization + arena turnover
		t.Fatalf("alloc misses = %d, want 2", st.AllocMisses)
	}
	if st.AllocListOps == 0 {
		t.Fatal("arena turnover must count a list op")
	}
	if f.u.hot[0].full.Len() != 1 {
		t.Fatalf("full list length = %d, want 1", f.u.hot[0].full.Len())
	}
	// Freeing an object of the full (non-resident) arena is a HOT miss and
	// moves that arena to the available list.
	if _, err := f.u.ObjFree(vas[0]); err != nil {
		t.Fatal(err)
	}
	st = f.u.Stats()
	if st.FreeMisses != 1 {
		t.Fatalf("free misses = %d, want 1", st.FreeMisses)
	}
	if f.u.hot[0].full.Len() != 0 || f.u.hot[0].avail.Len() != 1 {
		t.Fatalf("lists: full=%d avail=%d, want 0/1", f.u.hot[0].full.Len(), f.u.hot[0].avail.Len())
	}
	if st.FreeListOps == 0 {
		t.Fatal("full->available move must count a list op")
	}
}

func TestEagerPrefetchKeepsHitRateHigh(t *testing.T) {
	f := newFixture(t)
	for i := 0; i < 10*nObjs; i++ {
		if _, _, err := f.u.ObjAlloc(8); err != nil {
			t.Fatal(err)
		}
	}
	st := f.u.Stats()
	if st.EagerPrefetches == 0 {
		t.Fatal("eager prefetch never fired")
	}
	if hr := st.AllocHitRate(); hr < 0.99 {
		t.Fatalf("alloc hit rate = %v, want >= 0.99 with eager prefetch", hr)
	}
}

func TestArenaReclaimedWhenLastObjectDies(t *testing.T) {
	f := newFixture(t, func(m *config.Machine) { m.Memento.EagerArenaPrefetch = false })
	// Fill arena 1 fully, then one object into arena 2.
	vas := make([]uint64, 0, nObjs)
	for i := 0; i < nObjs; i++ {
		va, _, _ := f.u.ObjAlloc(8)
		vas = append(vas, va)
	}
	f.u.ObjAlloc(8) // displaces the full arena
	arenasBefore := f.u.LiveArenas()
	reclaimedBefore := f.pa.Stats().ArenaFrees
	// Free all objects of the first (non-resident) arena.
	for _, va := range vas {
		if _, err := f.u.ObjFree(va); err != nil {
			t.Fatal(err)
		}
	}
	if f.pa.Stats().ArenaFrees != reclaimedBefore+1 {
		t.Fatalf("arena frees = %d, want %d", f.pa.Stats().ArenaFrees, reclaimedBefore+1)
	}
	if f.u.LiveArenas() != arenasBefore-1 {
		t.Fatalf("live arenas = %d, want %d", f.u.LiveArenas(), arenasBefore-1)
	}
	if f.pa.Stats().PagesReclaimed == 0 {
		t.Fatal("arena free must reclaim pages")
	}
}

func TestPageAllocatorFirstTouchBacking(t *testing.T) {
	f := newFixture(t)
	// Class 63 arenas span 64 pages; only the first (header) page is
	// backed eagerly.
	va, _, err := f.u.ObjAlloc(512)
	if err != nil {
		t.Fatal(err)
	}
	backedBefore := f.pa.Stats().PagesBacked
	if backedBefore != 1 {
		t.Fatalf("eager backing = %d pages, want 1 (header)", backedBefore)
	}
	// Touch an object deep in the arena body: first access backs its page
	// via the flagged walk, not a kernel fault.
	faultsBefore := f.k.Stats().PageFaults
	va2 := va + 200*512 // object 200 lies beyond page 0
	if _, _, err := f.u.ObjAlloc(512); err != nil {
		t.Fatal(err)
	}
	_ = va2
	cycles, aerr := f.u.AccessData(va+25*config.PageSize-256, false)
	if aerr != nil {
		t.Fatal("access failed:", aerr)
	}
	if cycles == 0 {
		t.Fatal("first touch must cost cycles")
	}
	if f.pa.Stats().WalkBackings == 0 {
		t.Fatal("first touch should back a page at the controller")
	}
	if f.k.Stats().PageFaults != faultsBefore {
		t.Fatal("Memento first touch must not take kernel page faults")
	}
}

func TestBypassInstallsZeroLines(t *testing.T) {
	f := newFixture(t)
	va, _, _ := f.u.ObjAlloc(512)
	dramReadsBefore := f.h.Mem.Stats().Reads
	if _, err := f.u.AccessData(va, true); err != nil {
		t.Fatal("access failed:", err)
	}
	if f.u.Stats().BypassedLines == 0 {
		t.Fatal("first access to a fresh line should bypass DRAM")
	}
	if f.h.Mem.Stats().Reads != dramReadsBefore {
		t.Fatal("bypassed access must not read DRAM")
	}
	// Second access to the same line is a plain (cached) access.
	bypBefore := f.u.Stats().BypassedLines
	f.u.AccessData(va, false)
	if f.u.Stats().BypassedLines != bypBefore {
		t.Fatal("second access must not bypass")
	}
}

func TestBypassDisabledConfig(t *testing.T) {
	f := newFixture(t, func(m *config.Machine) { m.Memento.BypassEnabled = false })
	va, _, _ := f.u.ObjAlloc(512)
	f.u.AccessData(va, true)
	if f.u.Stats().BypassedLines != 0 {
		t.Fatal("bypass disabled but lines bypassed")
	}
}

func TestBypassCounterDecrementOnFree(t *testing.T) {
	f := newFixture(t)
	va, _, _ := f.u.ObjAlloc(512) // object 0: body lines 0..7
	f.u.AccessData(va, true)
	f.u.AccessData(va+448, true) // last line of object 0
	class, base, _, _ := f.lay.Decompose(va)
	a := f.u.at(f.u.lookup(class, base))
	if a.BypassCtr == 0 {
		t.Fatal("counter should have advanced")
	}
	f.u.ObjFree(va)
	if a.BypassCtr != 0 {
		t.Fatalf("counter = %d after freeing the top object, want 0", a.BypassCtr)
	}
}

func TestFlushHOT(t *testing.T) {
	f := newFixture(t)
	f.u.ObjAlloc(8)
	f.u.ObjAlloc(16)
	cycles := f.u.FlushHOT()
	if cycles == 0 {
		t.Fatal("flush must cost cycles")
	}
	st := f.u.Stats()
	if st.HOTFlushes != 1 || st.FlushedEntries != 2 {
		t.Fatalf("flush stats: %d flushes, %d entries", st.HOTFlushes, st.FlushedEntries)
	}
	// Post-flush allocation reloads (miss), then hits again, and the
	// arena's earlier allocations are still intact.
	va, _, err := f.u.ObjAlloc(8)
	if err != nil {
		t.Fatal(err)
	}
	if !f.lay.Contains(va) {
		t.Fatal("post-flush alloc broken")
	}
	if f.u.Stats().AllocMisses < 2 {
		t.Fatal("post-flush alloc should miss")
	}
}

func TestTeardownReclaimsEverything(t *testing.T) {
	f := newFixture(t)
	// All frames — kernel-free plus the pre-filled page pool — must come
	// back after teardown + pool release.
	freeBefore := f.k.FreeFrames() + uint64(f.pa.PoolSize())
	for i := 0; i < 2000; i++ {
		if _, _, err := f.u.ObjAlloc(uint64(8 + (i%64)*8)); err != nil {
			t.Fatal(err)
		}
	}
	f.u.Teardown()
	if f.u.LiveArenas() != 0 {
		t.Fatalf("%d arenas live after teardown", f.u.LiveArenas())
	}
	if err := f.u.ReleasePool(); err != nil {
		t.Fatal(err)
	}
	if got := f.k.FreeFrames(); got != freeBefore {
		t.Fatalf("frames leaked: %d -> %d", freeBefore, got)
	}
}

func TestFragmentationMetric(t *testing.T) {
	f := newFixture(t)
	if f.u.Fragmentation() != 0 {
		t.Fatal("no arenas -> 0 fragmentation")
	}
	f.u.ObjAlloc(8)
	frag := f.u.Fragmentation()
	// One object in up to two arenas (eager prefetch may add one).
	if frag <= 0.9 || frag >= 1.0 {
		t.Fatalf("fragmentation = %v, expected nearly-empty arenas", frag)
	}
}

func TestCrossThreadFreeBatching(t *testing.T) {
	f := newFixture(t)
	other, err := NewUnit(f.cfg, f.lay, f.pa, f.h, &paTranslator{pa: f.pa, tlbs: f.tlbs})
	if err != nil {
		t.Fatal(err)
	}
	// "other" acts as the consumer thread freeing the producer's objects.
	vas := make([]uint64, crossFreeBufCap)
	for i := range vas {
		vas[i], _, _ = f.u.ObjAlloc(32)
	}
	for i := 0; i < crossFreeBufCap-1; i++ {
		if _, err := other.NonLocalFree(vas[i], f.u); err != nil {
			t.Fatal(err)
		}
	}
	if other.PendingCrossFrees() != crossFreeBufCap-1 {
		t.Fatalf("pending = %d", other.PendingCrossFrees())
	}
	if f.u.Stats().Frees != 0 {
		t.Fatal("batched frees must not apply early")
	}
	// The buffer-filling free drains the batch through the owner.
	if _, err := other.NonLocalFree(vas[crossFreeBufCap-1], f.u); err != nil {
		t.Fatal(err)
	}
	if other.PendingCrossFrees() != 0 {
		t.Fatal("buffer should have drained")
	}
	if f.u.Stats().Frees != crossFreeBufCap {
		t.Fatalf("owner frees = %d, want %d", f.u.Stats().Frees, crossFreeBufCap)
	}
}

// Property: any interleaving of ObjAlloc/ObjFree keeps per-object exclusive
// ownership — no address is returned twice while live.
func TestAllocFreeProperty(t *testing.T) {
	fn := func(seed int64) bool {
		f := newFixture(&testing.T{})
		rng := rand.New(rand.NewSource(seed))
		live := map[uint64]bool{}
		order := []uint64{}
		for i := 0; i < 2000; i++ {
			if rng.Intn(3) > 0 || len(order) == 0 {
				va, _, err := f.u.ObjAlloc(uint64(1 + rng.Intn(512)))
				if err != nil {
					return false
				}
				if live[va] {
					return false
				}
				live[va] = true
				order = append(order, va)
			} else {
				i := rng.Intn(len(order))
				va := order[i]
				if _, err := f.u.ObjFree(va); err != nil {
					return false
				}
				delete(live, va)
				order = append(order[:i], order[i+1:]...)
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}

// Property: HOT hit rates stay in [0,1] and list ops never exceed the
// operation counts (the Fig 13 denominator sanity).
func TestStatsSanityProperty(t *testing.T) {
	f := newFixture(t)
	rng := rand.New(rand.NewSource(7))
	var vas []uint64
	for i := 0; i < 5000; i++ {
		if rng.Intn(3) > 0 || len(vas) == 0 {
			va, _, err := f.u.ObjAlloc(uint64(1 + rng.Intn(512)))
			if err != nil {
				t.Fatal(err)
			}
			vas = append(vas, va)
		} else {
			i := rng.Intn(len(vas))
			f.u.ObjFree(vas[i])
			vas = append(vas[:i], vas[i+1:]...)
		}
	}
	st := f.u.Stats()
	if hr := st.AllocHitRate(); hr < 0 || hr > 1 {
		t.Fatalf("alloc hit rate %v", hr)
	}
	if hr := st.FreeHitRate(); hr < 0 || hr > 1 {
		t.Fatalf("free hit rate %v", hr)
	}
	if st.AllocListOps > st.Allocs {
		t.Fatal("more alloc list ops than allocs")
	}
	if st.FreeListOps > st.Frees {
		t.Fatal("more free list ops than frees")
	}
}

func TestAACStats(t *testing.T) {
	f := newFixture(t)
	f.u.ObjAlloc(8)
	f.u.ObjAlloc(8)
	st := f.pa.Stats()
	if st.AACHits+st.AACMisses == 0 {
		t.Fatal("AAC never consulted")
	}
	// Same class again: second arena request for class 0 should hit.
	for i := 0; i < 3*nObjs; i++ {
		f.u.ObjAlloc(8)
	}
	if f.pa.Stats().AACHits == 0 {
		t.Fatal("repeated class should hit the AAC")
	}
}

func TestShootdownOnArenaFree(t *testing.T) {
	f := newFixture(t, func(m *config.Machine) { m.Memento.EagerArenaPrefetch = false })
	var vas []uint64
	for i := 0; i < nObjs; i++ {
		va, _, _ := f.u.ObjAlloc(8)
		vas = append(vas, va)
	}
	f.u.ObjAlloc(8) // displace the full arena
	// Touch the arena so its translation is TLB-resident.
	f.u.AccessData(vas[0], false)
	before := f.tlbs.Stats().Shootdowns
	for _, va := range vas {
		f.u.ObjFree(va)
	}
	if f.tlbs.Stats().Shootdowns == before {
		t.Fatal("arena reclamation must shoot down TLB entries")
	}
}
