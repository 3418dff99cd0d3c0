package kernel

import (
	"math/rand"
	"reflect"
	"testing"

	"memento/internal/cache"
	"memento/internal/config"
	"memento/internal/dram"
	"memento/internal/pagetable"
	"memento/internal/tlb"
)

// perAccessMem forwards the hierarchy's Access and StreamZeroPage but hides
// RepeatHits, so a kernel built on it clears every VPN one by one.
type perAccessMem struct{ h *cache.Hierarchy }

func (m perAccessMem) Access(pa uint64, write bool) uint64 { return m.h.Access(pa, write) }
func (m perAccessMem) StreamZeroPage(pa uint64) uint64     { return m.h.StreamZeroPage(pa) }

// teardownTwin is one side of the fast-forward differential: a kernel, its
// hierarchy and TLBs, one address space, and an optional checkpoint.
type teardownTwin struct {
	k    *Kernel
	h    *cache.Hierarchy
	tlbs *tlb.System
	as   *AddressSpace
	ks   *Snapshot
	hs   *cache.HierarchySnapshot
	ass  *AddressSpaceSnapshot
}

func newTeardownTwin(t *testing.T, fast bool, l1Ways int) *teardownTwin {
	wrap := func(h *cache.Hierarchy) pagetable.Mem { return h }
	if !fast {
		wrap = func(h *cache.Hierarchy) pagetable.Mem { return perAccessMem{h} }
	}
	tw := newTwinOn(t, l1Ways, wrap)
	if (tw.k.rep != nil) != fast {
		t.Fatalf("fast=%v kernel has repeater=%v", fast, tw.k.rep != nil)
	}
	return tw
}

// newTwinOn builds a twin whose kernel reaches its hierarchy through the
// Mem that wrap makes of it.
func newTwinOn(t *testing.T, l1Ways int, wrap func(*cache.Hierarchy) pagetable.Mem) *teardownTwin {
	m := config.Default()
	m.L1D.SizeBytes, m.L1D.Ways = 64*l1Ways*config.LineSize, l1Ways
	h := cache.NewHierarchy(m, dram.New(m.DRAM))
	tw := &teardownTwin{k: New(m, wrap(h)), h: h, tlbs: tlb.NewSystem(m)}
	as, err := tw.k.NewAddressSpace()
	if err != nil {
		t.Fatal(err)
	}
	tw.as = as
	as.Shootdown = tw.tlbs.Shootdown
	return tw
}

// apply runs one decoded operation and returns its cycles and error text.
func (tw *teardownTwin) apply(op, arg byte) (uint64, string) {
	errText := func(err error) string {
		if err != nil {
			return err.Error()
		}
		return ""
	}
	k, as := tw.k, tw.as
	pick := func() (vma, bool) {
		if len(as.vmas) == 0 {
			return vma{}, false
		}
		return as.vmas[int(arg)%len(as.vmas)], true
	}
	switch op % 6 {
	case 0: // mmap: small, or spanning several leaves when the top bit is set
		pages := uint64(1 + arg%48)
		if arg&0x80 != 0 {
			pages = uint64(arg&0x7f)*8 + 520
		}
		_, c, err := k.Mmap(as, pages<<config.PageShift, arg%5 == 0)
		return c, errText(err)
	case 1: // touch one page
		v, ok := pick()
		if !ok {
			return 0, ""
		}
		vpn := v.startVPN + (uint64(arg)*7919)%(v.endVPN-v.startVPN)
		_, c, err := as.Walk(vpn)
		return c, errText(err)
	case 2: // touch a strided subset, leaving runs of present and zero PTEs
		v, ok := pick()
		if !ok {
			return 0, ""
		}
		stride, phase := uint64(1+arg%7), uint64(arg/7)%3
		var cycles uint64
		for vpn := v.startVPN + phase; vpn < v.endVPN; vpn += stride {
			_, c, err := as.Walk(vpn)
			cycles += c
			if err != nil {
				return cycles, errText(err)
			}
		}
		return cycles, ""
	case 3: // munmap
		v, ok := pick()
		if !ok {
			return 0, ""
		}
		c, err := k.Munmap(as, v.startVPN<<config.PageShift, (v.endVPN-v.startVPN)<<config.PageShift)
		return c, errText(err)
	case 4: // checkpoint: freezes the page table, so later clears copy on write
		tw.ks, tw.hs, tw.ass = k.Snapshot(), tw.h.Snapshot(), as.Snapshot()
		return 0, ""
	default: // restore the checkpoint into a fresh address space
		if tw.ks == nil {
			return 0, ""
		}
		c := k.Restore(tw.ks) + tw.h.Restore(tw.hs)
		tw.as = k.RestoreAddressSpace(tw.ass)
		tw.as.Shootdown = tw.tlbs.Shootdown
		return c, ""
	}
}

// FuzzMunmapFastForward checks the run-walking munmap against the per-VPN
// clear it fast-forwards: two kernels replay the same random mmap, touch,
// munmap, checkpoint and restore sequence, one on the hierarchy and one on
// a wrapper that hides RepeatHits. The first byte picks the L1's ways; at
// one or two ways a run's lines can evict each other and RepeatHits must
// refuse. Every operation must cost the same cycles, and the kernel,
// hierarchy and TLB stats, the buddy allocator, the page-table contents and
// the full cache state must agree.
func FuzzMunmapFastForward(f *testing.F) {
	f.Add([]byte{0, 0, 0x85, 2, 0, 3, 0})
	f.Add([]byte{1, 0, 0x90, 2, 3, 4, 0, 2, 8, 3, 0, 5, 0, 3, 0})
	f.Add([]byte{2, 0, 10, 0, 0xff, 1, 1, 2, 14, 4, 0, 1, 3, 3, 1, 3, 0, 5, 0, 3, 1})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 24; i++ {
		ops := make([]byte, 1+2*(8+rng.Intn(24)))
		rng.Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 65 {
			ops = ops[:65]
		}
		if len(ops) == 0 {
			return
		}
		l1Ways := []int{8, 2, 1}[ops[0]%3]
		ops = ops[1:]
		fast, slow := newTeardownTwin(t, true, l1Ways), newTeardownTwin(t, false, l1Ways)
		for i := 0; i+1 < len(ops); i += 2 {
			cf, ef := fast.apply(ops[i], ops[i+1])
			cs, es := slow.apply(ops[i], ops[i+1])
			if cf != cs || ef != es {
				t.Fatalf("op %d (%d,%d): fast %d cycles %q, per-VPN %d cycles %q",
					i/2, ops[i]%6, ops[i+1], cf, ef, cs, es)
			}
			if fast.k.Stats() != slow.k.Stats() || fast.h.Stats() != slow.h.Stats() ||
				fast.tlbs.Stats() != slow.tlbs.Stats() {
				t.Fatalf("op %d: stats diverge\nfast kernel %+v hier %+v tlb %+v\nslow kernel %+v hier %+v tlb %+v",
					i/2, fast.k.Stats(), fast.h.Stats(), fast.tlbs.Stats(),
					slow.k.Stats(), slow.h.Stats(), slow.tlbs.Stats())
			}
		}
		if fast.as.residentPages != slow.as.residentPages || !reflect.DeepEqual(fast.as.vmas, slow.as.vmas) {
			t.Fatal("address spaces diverge")
		}
		for _, v := range fast.as.vmas {
			for vpn := v.startVPN; vpn < v.endVPN; vpn++ {
				pf, _, okf := fast.as.pt.Walk(vpn, nopMem{})
				ps, _, oks := slow.as.pt.Walk(vpn, nopMem{})
				if pf != ps || okf != oks {
					t.Fatalf("vpn %#x maps to %d,%v fast and %d,%v per-VPN", vpn, pf, okf, ps, oks)
				}
			}
		}
		bf, bs := fast.k.buddy, slow.k.buddy
		if bf.freeFrames != bs.freeFrames || bf.watermark != bs.watermark || bf.head != bs.head ||
			!reflect.DeepEqual(bf.frames.Live, bs.frames.Live) {
			t.Fatal("buddy allocators diverge")
		}
		if !reflect.DeepEqual(fast.h.Snapshot(), slow.h.Snapshot()) {
			t.Fatal("cache hierarchy state diverges")
		}
	})
}

// perLineZeroMem is the hierarchy with its StreamZeroPage hidden behind the
// per-line drop-and-write loop the page-granular path replaced.
type perLineZeroMem struct{ *cache.Hierarchy }

func (m perLineZeroMem) StreamZeroPage(pa uint64) uint64 {
	var cycles uint64
	for off := uint64(0); off < config.PageSize; off += config.LineSize {
		m.DropLine(pa + off)
		// 4 is the write-combining depth of non-temporal stores.
		cycles += m.Mem.Write(pa+off) / 4
	}
	return cycles
}

// TestZeroPageMatchesPerLine replays random mmap (populating or not),
// fault, munmap, checkpoint and restore sequences on two kernels, one
// zeroing pages with StreamZeroPage and one with the per-line loop. Every
// operation must cost the same cycles, and the kernel, hierarchy and DRAM
// state must agree throughout.
func TestZeroPageMatchesPerLine(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for run := 0; run < 40; run++ {
		l1Ways := []int{8, 2, 1}[run%3]
		page := newTwinOn(t, l1Ways, func(h *cache.Hierarchy) pagetable.Mem { return h })
		line := newTwinOn(t, l1Ways, func(h *cache.Hierarchy) pagetable.Mem { return perLineZeroMem{h} })
		for i := 0; i < 32; i++ {
			op, arg := byte(rng.Intn(6)), byte(rng.Intn(256))
			cp, ep := page.apply(op, arg)
			cl, el := line.apply(op, arg)
			if cp != cl || ep != el {
				t.Fatalf("run %d op %d (%d,%d): page-granular %d cycles %q, per-line %d cycles %q",
					run, i, op, arg, cp, ep, cl, el)
			}
			if page.k.Stats() != line.k.Stats() || page.h.Stats() != line.h.Stats() ||
				page.h.Mem.Stats() != line.h.Mem.Stats() {
				t.Fatalf("run %d op %d: stats diverge", run, i)
			}
		}
		if !reflect.DeepEqual(page.h.Snapshot(), line.h.Snapshot()) ||
			!reflect.DeepEqual(page.h.Mem.Snapshot(), line.h.Mem.Snapshot()) {
			t.Fatalf("run %d: cache or DRAM state diverges", run)
		}
	}
}
