package core

import (
	"errors"
	"testing"

	"memento/internal/config"
)

func TestBypassCounterSaturatesAt11Bits(t *testing.T) {
	f := newFixture(t)
	// Class 63 arenas span 2048 body lines — exactly the 11-bit range.
	va, _, _ := f.u.ObjAlloc(512)
	base := va &^ (f.lay.ArenaBytes(63) - 1)
	max := uint16((1 << f.cfg.Memento.BypassCounterBits) - 1)
	// Touch far into the body repeatedly; the counter must never exceed
	// its width.
	for i := 0; i < 240; i++ {
		if _, _, err := f.u.ObjAlloc(512); err != nil {
			t.Fatal(err)
		}
	}
	for off := uint64(0); off < 200*512; off += 4096 {
		f.u.AccessData(va+off, true)
	}
	if a := f.u.at(f.u.lookup(63, base)); a.BypassCtr > max {
		t.Fatalf("bypass counter %d exceeds %d-bit range", a.BypassCtr, f.cfg.Memento.BypassCounterBits)
	}
}

func TestRegionExhaustion(t *testing.T) {
	// A tiny region: 64 classes x 64 KiB stripes. Class 63's arenas are
	// 256 KiB, bigger than the stripe, so the very first allocation of
	// class 63 must fail cleanly with ErrRegionExhausted.
	cfg := config.Default()
	lay, err := NewLayout(cfg.Memento, DefaultRegionStart, 64*64<<10)
	if err != nil {
		t.Fatal(err)
	}
	f := newFixture(t)
	pa, err := NewPageAllocator(cfg, lay, f.h, f.k)
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUnit(cfg, lay, pa, f.h, NopTranslator())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := u.ObjAlloc(512); !errors.Is(err, ErrRegionExhausted) {
		t.Fatalf("err = %v, want ErrRegionExhausted", err)
	}
	// Small classes still work in their stripes.
	if _, _, err := u.ObjAlloc(8); err != nil {
		t.Fatal(err)
	}
}

func TestFreeAfterFlushIsMissButCorrect(t *testing.T) {
	f := newFixture(t)
	va, _, _ := f.u.ObjAlloc(64)
	// Keep a second object live so the arena is not reclaimed when va dies.
	if _, _, err := f.u.ObjAlloc(64); err != nil {
		t.Fatal(err)
	}
	f.u.FlushHOT()
	if _, err := f.u.ObjFree(va); err != nil {
		t.Fatal(err)
	}
	st := f.u.Stats()
	if st.FreeMisses != 1 {
		t.Fatalf("free after flush should miss the HOT: misses=%d", st.FreeMisses)
	}
	// The slot is genuinely free: reallocating the class reuses it after
	// the flushed arena is reloaded from the available list.
	va2, _, err := f.u.ObjAlloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if va2 != va {
		t.Fatalf("reload should reuse the freed slot: %#x vs %#x", va2, va)
	}
}

func TestOffCriticalFreeCycleAccounting(t *testing.T) {
	f := newFixture(t)
	va, _, _ := f.u.ObjAlloc(64)
	f.u.FlushHOT()
	critical, err := f.u.ObjFree(va)
	if err != nil {
		t.Fatal(err)
	}
	st := f.u.Stats()
	// The paper performs free misses off the execution critical path: the
	// instruction returns quickly while the header update proceeds in the
	// background.
	if critical > 10 {
		t.Fatalf("free-miss critical cycles = %d; should be issue cost only", critical)
	}
	if st.OffCriticalCycles == 0 {
		t.Fatal("free-miss memory work must be accounted off the critical path")
	}
}

func TestDecomposeStability(t *testing.T) {
	// Every address ObjAlloc hands out must decompose back to itself for
	// every class (the obj-free bit math of Section 3.2).
	f := newFixture(t)
	for size := uint64(8); size <= 512; size += 8 {
		va, _, err := f.u.ObjAlloc(size)
		if err != nil {
			t.Fatal(err)
		}
		class, base, idx, ok := f.lay.Decompose(va)
		if !ok {
			t.Fatalf("size %d: va %#x does not decompose", size, va)
		}
		if got := f.lay.ObjectVA(class, base, idx); got != va {
			t.Fatalf("size %d: recompose %#x != %#x", size, got, va)
		}
		if f.lay.ClassSize(class) != size {
			t.Fatalf("size %d: class size %d", size, f.lay.ClassSize(class))
		}
	}
}

func TestArenaBodyNeverOverlapsNextArena(t *testing.T) {
	f := newFixture(t)
	for c := 0; c < f.lay.Classes(); c++ {
		base := f.lay.StripeStart(c)
		lastObjEnd := f.lay.ObjectVA(c, base, f.lay.ObjectsPerArena()-1) + f.lay.ClassSize(c)
		if lastObjEnd > base+f.lay.ArenaBytes(c) {
			t.Fatalf("class %d: body end %#x beyond arena end %#x", c, lastObjEnd, base+f.lay.ArenaBytes(c))
		}
	}
}

func TestPoolGrowsUnderPressure(t *testing.T) {
	cfg := config.Default()
	cfg.Memento.PagePoolPages = 64
	cfg.Memento.PagePoolRefillPages = 64
	f := newFixture(t, func(m *config.Machine) {
		m.Memento.PagePoolPages = 64
		m.Memento.PagePoolRefillPages = 64
	})
	// Burn through far more than 64 pages: every class needs a header page
	// plus its share of Memento page-table pages.
	for i := 0; i < 4000; i++ {
		if _, _, err := f.u.ObjAlloc(uint64(8 + (i%64)*8)); err != nil {
			t.Fatal(err)
		}
	}
	if f.pa.Stats().PoolRefills < 2 {
		t.Fatalf("pool refills = %d; the OS should have replenished", f.pa.Stats().PoolRefills)
	}
}

func TestHOTMissAfterEagerPrefetchDisabledStillCorrect(t *testing.T) {
	f := newFixture(t, func(m *config.Machine) { m.Memento.EagerArenaPrefetch = false })
	seen := map[uint64]bool{}
	for i := 0; i < 3*nObjs; i++ {
		va, _, err := f.u.ObjAlloc(8)
		if err != nil {
			t.Fatal(err)
		}
		if seen[va] {
			t.Fatalf("duplicate va %#x at %d", va, i)
		}
		seen[va] = true
	}
	if f.u.Stats().AllocMisses < 3 {
		t.Fatal("arena turnovers should miss without prefetch")
	}
}
