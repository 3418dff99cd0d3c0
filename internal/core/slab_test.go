package core

import (
	"math/rand"
	"reflect"
	"testing"

	"memento/internal/cache"
	"memento/internal/config"
	"memento/internal/dram"
	"memento/internal/kernel"
	"memento/internal/tlb"
)

// unitTwin is one side of the slab-against-oracle differential: a machine
// slice (hierarchy, kernel, TLBs, page allocator) and an object allocator.
type unitTwin struct {
	h    *cache.Hierarchy
	pa   *PageAllocator
	tlbs *tlb.System
	// Exactly one of slab and oracle is set.
	slab   *Unit
	oracle *oracleUnit
}

func newUnitTwin(t *testing.T, oracle bool) *unitTwin {
	cfg := config.Default()
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
	tw := &unitTwin{h: h, pa: pa, tlbs: tlb.NewSystem(cfg)}
	pa.Shootdown = tw.tlbs.Shootdown
	tr := &paTranslator{pa: pa, tlbs: tw.tlbs}
	if oracle {
		tw.oracle, err = newOracleUnit(cfg, lay, pa, h, tr)
	} else {
		tw.slab, err = NewUnit(cfg, lay, pa, h, tr)
	}
	if err != nil {
		t.Fatal(err)
	}
	return tw
}

// unitResult is everything one operation returns or reveals.
type unitResult struct {
	va, cycles uint64
	err        string
	size       uint64
	ok         bool
	stats      Stats
	live       int
	frag       float64
	snapBytes  uint64
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// unitOp applies one operation. Snapshots are kept per side in snaps.
func (tw *unitTwin) op(op byte, arg uint64, live []uint64, snaps *[]any) unitResult {
	var r unitResult
	var err error
	s, o := tw.slab, tw.oracle
	switch op % 8 {
	case 0, 1, 2:
		size := 1 + arg%512
		if arg%37 == 0 {
			size = 513 // too large for the hardware
		}
		if s != nil {
			r.va, r.cycles, err = s.ObjAlloc(size)
		} else {
			r.va, r.cycles, err = o.ObjAlloc(size)
		}
	case 3, 4:
		va := uint64(0x1000)
		if len(live) > 0 {
			va = live[arg%uint64(len(live))]
			if arg%11 == 0 {
				va += 8 // not an object start, or a neighbour
			}
		}
		if s != nil {
			r.cycles, err = s.ObjFree(va)
		} else {
			r.cycles, err = o.ObjFree(va)
		}
	case 5:
		if len(live) > 0 {
			va := live[arg%uint64(len(live))] + (arg>>8)%512
			if s != nil {
				r.cycles, err = s.AccessData(va, arg&1 == 0)
				r.size, r.ok = s.SizeOf(va)
			} else {
				r.cycles, err = o.AccessData(va, arg&1 == 0)
				r.size, r.ok = o.SizeOf(va)
			}
		}
	case 6:
		if s != nil {
			r.cycles = s.FlushHOT()
		} else {
			r.cycles = o.FlushHOT()
		}
	case 7:
		// Capture, or restore an earlier capture into the live unit.
		if arg%3 == 0 || len(*snaps) == 0 {
			if s != nil {
				*snaps = append(*snaps, s.Snapshot())
			} else {
				*snaps = append(*snaps, o.Snapshot())
			}
		} else {
			i := int(arg) % len(*snaps)
			if s != nil {
				r.cycles = s.Restore((*snaps)[i].(*UnitSnapshot))
			} else {
				r.cycles = o.Restore((*snaps)[i].(*oUnitSnapshot))
			}
		}
	}
	r.err = errString(err)
	if s != nil {
		r.stats, r.live, r.frag, r.snapBytes = s.Stats(), s.LiveArenas(), s.Fragmentation(), s.Snapshot().Bytes()
	} else {
		r.stats, r.live, r.frag, r.snapBytes = o.stats, o.LiveArenas(), o.Fragmentation(), o.Snapshot().Bytes()
	}
	return r
}

// unitOracleCase drives a slab unit and the map-indexed oracle through the
// same op stream and requires identical results after every operation,
// identical hierarchy, TLB and page-allocator counters, and an identical
// teardown with identical final cache state.
func unitOracleCase(t *testing.T, ops []byte) {
	t.Helper()
	slab, oracle := newUnitTwin(t, false), newUnitTwin(t, true)
	var live []uint64
	var snapS, snapO []any
	for i := 0; i+2 < len(ops); i += 3 {
		op, arg := ops[i], uint64(ops[i+1])|uint64(ops[i+2])<<8
		rs := slab.op(op, arg, live, &snapS)
		ro := oracle.op(op, arg, live, &snapO)
		if rs != ro {
			t.Fatalf("op %d (%d, %d): slab %+v\noracle %+v", i/3, op%8, arg, rs, ro)
		}
		if slab.h.Stats() != oracle.h.Stats() || slab.tlbs.Stats() != oracle.tlbs.Stats() ||
			slab.pa.Stats() != oracle.pa.Stats() {
			t.Fatalf("op %d (%d, %d): hierarchy, TLB or page-allocator counters diverge", i/3, op%8, arg)
		}
		switch {
		case op%8 <= 2 && rs.err == "":
			live = append(live, rs.va)
		case op%8 == 3 || op%8 == 4:
			if len(live) > 0 && rs.err == "" {
				j := int(arg % uint64(len(live)))
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
	}
	if cs, co := slab.slab.Teardown(), oracle.oracle.Teardown(); cs != co {
		t.Fatalf("teardown: slab %d cycles, oracle %d", cs, co)
	}
	if slab.pa.Stats() != oracle.pa.Stats() || !reflect.DeepEqual(slab.h.Snapshot(), oracle.h.Snapshot()) {
		t.Fatal("teardown leaves different page-allocator or cache state")
	}
}

// TestUnitMatchesOracle runs unitOracleCase over random op streams.
func TestUnitMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for c := 0; c < 40; c++ {
		ops := make([]byte, 3*(50+rng.Intn(1500)))
		rng.Read(ops)
		unitOracleCase(t, ops)
	}
}

// FuzzUnitMatchesOracle is TestUnitMatchesOracle driven by the fuzzer.
func FuzzUnitMatchesOracle(f *testing.F) {
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 8; i++ {
		ops := make([]byte, 3*(20+rng.Intn(200)))
		rng.Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*600 {
			ops = ops[:3*600]
		}
		unitOracleCase(t, ops)
	})
}
