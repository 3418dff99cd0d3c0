package core

import (
	"math/rand"
	"reflect"
	"testing"

	"memento/internal/cache"
	"memento/internal/config"
	"memento/internal/dram"
	"memento/internal/kernel"
	"memento/internal/pagetable"
	"memento/internal/tlb"
)

// perAccessMem forwards the hierarchy's Access but hides RepeatHits, so a
// page allocator built on it clears every VPN one by one.
type perAccessMem struct{ h *cache.Hierarchy }

func (m perAccessMem) Access(pa uint64, write bool) uint64 { return m.h.Access(pa, write) }

// newTeardownFixture is newFixture with the page allocator's memory either
// the hierarchy itself or perAccessMem over it.
func newTeardownFixture(t *testing.T, fast bool) *fixture {
	cfg := config.Default()
	h := cache.NewHierarchy(cfg, dram.New(cfg.DRAM))
	k := kernel.New(cfg, h)
	lay, err := NewLayout(cfg.Memento, DefaultRegionStart, DefaultRegionBytes)
	if err != nil {
		t.Fatal(err)
	}
	var mem pagetable.Mem = h
	if !fast {
		mem = perAccessMem{h}
	}
	pa, err := NewPageAllocator(cfg, lay, mem, k)
	if err != nil {
		t.Fatal(err)
	}
	if (pa.rep != nil) != fast {
		t.Fatalf("fast=%v allocator has repeater=%v", fast, pa.rep != nil)
	}
	tlbs := tlb.NewSystem(cfg)
	u, err := NewUnit(cfg, lay, pa, h, &paTranslator{pa: pa, tlbs: tlbs})
	if err != nil {
		t.Fatal(err)
	}
	pa.Shootdown = tlbs.Shootdown
	return &fixture{cfg: cfg, h: h, k: k, lay: lay, pa: pa, tlbs: tlbs, u: u}
}

// TestFreeArenaFastForwardMatchesPerVPN checks FreeArena's run walk against
// the per-VPN clear: two units replay the same random allocs, partial
// touches, frees and checkpoints (so later clears copy on write), then tear
// down. Every operation must cost the same cycles and leave the
// same page-allocator, hierarchy and TLB state.
func TestFreeArenaFastForwardMatchesPerVPN(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		fast, slow := newTeardownFixture(t, true), newTeardownFixture(t, false)
		rng := rand.New(rand.NewSource(seed))
		var vas []uint64
		var sizes []uint64
		var snapFast, snapSlow *PageAllocSnapshot
		check := func(step int, cf, cs uint64) {
			t.Helper()
			if cf != cs {
				t.Fatalf("seed %d step %d: fast %d cycles, per-VPN %d", seed, step, cf, cs)
			}
			if fast.pa.Stats() != slow.pa.Stats() || fast.h.Stats() != slow.h.Stats() ||
				fast.tlbs.Stats() != slow.tlbs.Stats() || !reflect.DeepEqual(fast.pa.pool, slow.pa.pool) {
				t.Fatalf("seed %d step %d: state diverges", seed, step)
			}
		}
		for step := 0; step < 3000; step++ {
			if step == 1500 {
				snapFast, snapSlow = fast.pa.Snapshot(), slow.pa.Snapshot()
			}
			switch r := rng.Intn(6); {
			case r < 3 || len(vas) == 0:
				// Half the objects are 512 bytes, whose 33-page arenas fill
				// into present runs longer than one PTE line.
				size := uint64(512)
				if rng.Intn(2) == 0 {
					size = uint64(8 * (1 + rng.Intn(64)))
				}
				vf, cf, ef := fast.u.ObjAlloc(size)
				vs, cs, es := slow.u.ObjAlloc(size)
				if ef != nil || es != nil || vf != vs {
					t.Fatalf("seed %d step %d: alloc %#x,%v vs %#x,%v", seed, step, vf, ef, vs, es)
				}
				check(step, cf, cs)
				vas, sizes = append(vas, vf), append(sizes, size)
			case r < 5:
				// Write the whole object, backing every page it spans.
				i := rng.Intn(len(vas))
				var cf, cs uint64
				for off := uint64(0); off < sizes[i]; off += config.LineSize {
					c, ef := fast.u.AccessData(vas[i]+off, true)
					cf += c
					c, es := slow.u.AccessData(vas[i]+off, true)
					cs += c
					if ef != nil || es != nil {
						t.Fatalf("seed %d step %d: touch errors %v vs %v", seed, step, ef, es)
					}
				}
				check(step, cf, cs)
			default:
				i := rng.Intn(len(vas))
				cf, ef := fast.u.ObjFree(vas[i])
				cs, es := slow.u.ObjFree(vas[i])
				if ef != nil || es != nil {
					t.Fatalf("seed %d step %d: free %v vs %v", seed, step, ef, es)
				}
				check(step, cf, cs)
				vas[i], sizes[i] = vas[len(vas)-1], sizes[len(sizes)-1]
				vas, sizes = vas[:len(vas)-1], sizes[:len(sizes)-1]
			}
		}
		// Tear down from a fresh checkpoint, so the teardown's first clear in
		// every leaf copies on write.
		lateFast, lateSlow := fast.pa.Snapshot(), slow.pa.Snapshot()
		check(-1, fast.u.Teardown(), slow.u.Teardown())
		if fast.pa.Stats().ArenaFrees == 0 {
			t.Fatalf("seed %d: no arena was freed", seed)
		}
		if !reflect.DeepEqual(fast.h.Snapshot(), slow.h.Snapshot()) {
			t.Fatalf("seed %d: cache hierarchy state diverges", seed)
		}
		// The live tables (through one more capture), and the checkpoint
		// tables they diverged from by copy on write, must hold the same
		// entries.
		if !reflect.DeepEqual(fast.pa.Snapshot(), slow.pa.Snapshot()) || !reflect.DeepEqual(snapFast, snapSlow) ||
			!reflect.DeepEqual(lateFast, lateSlow) {
			t.Fatalf("seed %d: page tables diverge", seed)
		}
	}
}

// TestReleaseRecyclesOnlyPrivateNodes: Release recycles the private nodes
// of a torn-down Memento table, never the frozen nodes a checkpoint
// aliases. After an allocator restored from a checkpoint is released and
// another builds a fresh table from the recycled nodes, a new restore of
// the checkpoint must still translate every page it did at capture.
func TestReleaseRecyclesOnlyPrivateNodes(t *testing.T) {
	f := newFixture(t)
	var vas []uint64
	for i := 0; i < 3000; i++ {
		va, _, err := f.u.ObjAlloc(uint64(8 + (i%64)*8))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.u.AccessData(va, true); err != nil {
			t.Fatal(err)
		}
		vas = append(vas, va)
	}
	snap, ks := f.pa.Snapshot(), f.k.Snapshot()
	translate := func(p *PageAllocator) []uint64 {
		out := make([]uint64, len(vas))
		for i, va := range vas {
			pfn, _, ok := p.pt.Walk(va>>config.PageShift, p.mem)
			if !ok {
				t.Fatalf("va %#x unmapped", va)
			}
			out[i] = pfn
		}
		return out
	}
	want := translate(f.pa)
	for round := 0; round < 3; round++ {
		f.k.Restore(ks)
		p := RestorePageAllocator(f.cfg, f.lay, f.h, f.k, snap)
		// Privatize the paths of a few classes' arenas, leaving the rest of
		// the table frozen, then tear it all down.
		for i, va := range vas {
			if i%64 < 8 {
				p.pt.Clear(va>>config.PageShift, p.mem)
			}
		}
		if err := p.Release(); err != nil {
			t.Fatal(err)
		}
		// A fresh table built from whatever Release recycled.
		q, err := NewPageAllocator(f.cfg, f.lay, f.h, f.k)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < f.lay.Classes(); c++ {
			if _, _, err := q.AllocArena(c); err != nil {
				t.Fatal(err)
			}
		}
		if got := translate(RestorePageAllocator(f.cfg, f.lay, f.h, f.k, snap)); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: checkpoint table changed after release", round)
		}
	}
}
