package softalloc

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"memento/internal/config"
	"memento/internal/kernel"
)

// recMem is a VMem that records every access and charges a latency derived
// from the address, failing the failAt-th access (never when 0).
type recMem struct {
	log    []recAccess
	n      int
	failAt int
}

type recAccess struct {
	va    uint64
	write bool
}

var errInjected = errors.New("recMem: injected access failure")

func (m *recMem) AccessVA(va uint64, write bool) (uint64, error) {
	m.n++
	m.log = append(m.log, recAccess{va, write})
	if m.n == m.failAt {
		return 3, errInjected
	}
	c := 1 + (va>>6)%13
	if write {
		c++
	}
	return c, nil
}

// flatMem is the kernel's physical memory: a constant latency.
type flatMem struct{}

func (flatMem) Access(pa uint64, write bool) uint64 { return 2 }

// allocSide is one side of the slab-against-oracle differential.
type allocSide struct {
	a   Allocator
	mem *recMem
	k   *kernel.Kernel
	as  *kernel.AddressSpace
	cfg config.Machine
}

// allocOpResult is everything one operation returns or reveals.
type allocOpResult struct {
	va, cycles, size uint64
	ok               bool
	err              string
	stats            Stats
	occupancy        float64
	snapBytes        uint64
	accesses         int
}

// newAllocSide builds allocator kind (0 pymalloc, 1 jemalloc, 2 Go, 3 the
// large path) on its own kernel, slab or oracle.
func newAllocSide(t *testing.T, kind int, je JEMallocOpts, failAt int, oracle bool) *allocSide {
	cfg := config.Default()
	k := kernel.New(cfg, flatMem{})
	as, err := k.NewAddressSpace()
	if err != nil {
		t.Fatal(err)
	}
	s := &allocSide{mem: &recMem{failAt: failAt}, k: k, as: as, cfg: cfg}
	s.a = s.build(kind, je, oracle)
	return s
}

func (s *allocSide) build(kind int, je JEMallocOpts, oracle bool) Allocator {
	cfg, k, as, mem := s.cfg, s.k, s.as, s.mem
	switch {
	case kind == 0 && oracle:
		return newOraclePy(cfg, k, as, mem)
	case kind == 0:
		return NewPyMalloc(cfg, k, as, mem)
	case kind == 1 && oracle:
		return newOracleJE(cfg, k, as, mem, je)
	case kind == 1:
		return NewJEMalloc(cfg, k, as, mem, je)
	case kind == 2 && oracle:
		return newOracleGo(cfg, k, as, mem)
	case kind == 2:
		return NewGoAlloc(cfg, k, as, mem)
	case oracle:
		return newOracleLarge(cfg, k, as, mem)
	default:
		return NewLargeAlloc(cfg, k, as, mem)
	}
}

// result gathers an operation's outcome; the snapshot size is metered
// every few operations, as capturing is linear in the allocator's state.
func (s *allocSide) result(va, cycles uint64, err error) allocOpResult {
	r := allocOpResult{va: va, cycles: cycles, stats: s.a.Stats(), occupancy: s.a.Occupancy(),
		accesses: s.mem.n}
	if s.mem.n%8 == 0 {
		r.snapBytes = s.a.Snapshot().Bytes()
	}
	if err != nil {
		r.err = err.Error()
	}
	return r
}

// allocOracleCase replays one op stream on a slab allocator and its oracle.
// The first bytes pick the allocator, the jemalloc options and an access to
// fail; then each (op, arg, arg) triple allocates (small or large sizes),
// frees a live object (or an address that is not one), asks SizeOf, runs a
// Go mark phase, or captures a snapshot or restores an earlier one — into
// the live allocator, or into a fresh slab allocator attached to the same
// machine (the pooled-scratch case). Every result, counter, occupancy,
// snapshot size and recorded access must agree. Runs stop at the first
// error, as a simulated process does.
func allocOracleCase(t *testing.T, ops []byte) {
	t.Helper()
	if len(ops) < 3 {
		return
	}
	kind := int(ops[0] % 4)
	je := JEMallocOpts{
		ChunkBytes:     []uint64{256 << 10, 1 << 20, 32 << 10}[ops[1]%3],
		PreallocChunks: int(ops[1]/3) % 5,
		TcacheSize:     []int{16, 2, 1, 40}[ops[1]/15%4],
	}
	failAt := 0
	if ops[2] < 128 {
		failAt = 1 + int(ops[2])*7
	}
	slab := newAllocSide(t, kind, je, failAt, false)
	oracle := newAllocSide(t, kind, je, failAt, true)
	cs, es := slab.a.Init()
	co, eo := oracle.a.Init()
	if rs, ro := slab.result(0, cs, es), oracle.result(0, co, eo); rs != ro {
		t.Fatalf("init: slab %+v\noracle %+v", rs, ro)
	}
	if es != nil {
		return
	}
	type snapPair struct {
		s, o AllocSnapshot
		live []uint64
	}
	var live []uint64
	var snaps []snapPair
	ops = ops[3:]
	for i := 0; i+2 < len(ops); i += 3 {
		op, arg := ops[i]%10, uint64(ops[i+1])|uint64(ops[i+2])<<8
		var rs, ro allocOpResult
		switch {
		case op < 4:
			size := 1 + arg%512
			switch {
			case kind == 3 || arg%19 == 0:
				size = 513 + arg*5 // large path, some above the mmap threshold
			case arg%7 == 0:
				size = 1 + arg%64
			}
			vs, cs, es := slab.a.Alloc(size)
			vo, co, eo := oracle.a.Alloc(size)
			rs, ro = slab.result(vs, cs, es), oracle.result(vo, co, eo)
			if es == nil && eo == nil {
				live = append(live, vs)
			}
		case op < 7:
			va := uint64(0x7f00_0000_1000)
			j := -1
			if len(live) > 0 {
				j = int(arg % uint64(len(live)))
				va = live[j]
			}
			if arg%13 == 0 {
				va += 8 // not an object start, or a neighbour
				j = -1
			}
			cs, es := slab.a.Free(va)
			co, eo := oracle.a.Free(va)
			rs, ro = slab.result(0, cs, es), oracle.result(0, co, eo)
			if j >= 0 && es == nil && eo == nil {
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			if errors.Is(es, ErrBadFree) && errors.Is(eo, ErrBadFree) {
				// A rejected free changes nothing; keep going.
				es, eo = nil, nil
				rs.err, ro.err = "", ""
			}
		case op == 7:
			va := arg << 4
			if len(live) > 0 {
				va = live[arg%uint64(len(live))] + arg%3*8
			}
			rs.size, rs.ok = slab.a.SizeOf(va)
			ro.size, ro.ok = oracle.a.SizeOf(va)
		case op == 8 && kind == 2:
			cs, es := slab.a.(*GoAlloc).MarkCost()
			co, eo := oracle.a.(*oracleGo).MarkCost()
			rs, ro = slab.result(0, cs, es), oracle.result(0, co, eo)
		default:
			if arg%3 == 0 || len(snaps) == 0 {
				snaps = append(snaps, snapPair{slab.a.Snapshot(), oracle.a.Snapshot(), append([]uint64(nil), live...)})
				break
			}
			sp := snaps[int(arg)%len(snaps)]
			if arg%2 == 0 {
				slab.a = slab.build(kind, je, false)
			}
			es, eo := slab.a.Restore(sp.s), oracle.a.Restore(sp.o)
			rs, ro = slab.result(0, 0, es), oracle.result(0, 0, eo)
			live = append(live[:0], sp.live...)
		}
		if rs != ro {
			t.Fatalf("op %d (%d, %d): slab %+v\noracle %+v", i/3, op, arg, rs, ro)
		}
		if !reflect.DeepEqual(slab.mem.log, oracle.mem.log) {
			t.Fatalf("op %d (%d, %d): recorded accesses diverge", i/3, op, arg)
		}
		slab.mem.log, oracle.mem.log = slab.mem.log[:0], oracle.mem.log[:0]
		if rs.err != "" {
			return
		}
	}
}

// TestAllocatorsMatchOracle runs allocOracleCase over random op streams
// for every allocator.
func TestAllocatorsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for c := 0; c < 200; c++ {
		ops := make([]byte, 3+3*(20+rng.Intn(800)))
		rng.Read(ops)
		ops[0] = byte(c % 4)
		allocOracleCase(t, ops)
	}
	// Long allocation-heavy streams without injected failures, so the
	// slabs grow past a few arenas and the Go mark phase samples its cap.
	for kind := 0; kind < 4; kind++ {
		ops := []byte{byte(kind), byte(rng.Intn(256)), 255}
		for i := 0; i < 6000; i++ {
			op := byte(rng.Intn(4))
			if i%5 == 4 {
				op = byte(rng.Intn(9)) // no restores: the live set keeps growing
			}
			if i%1000 == 999 {
				op = 8
			}
			ops = append(ops, op, byte(rng.Intn(256)), byte(rng.Intn(256)))
		}
		allocOracleCase(t, ops)
	}
}

// FuzzAllocatorsMatchOracle is TestAllocatorsMatchOracle driven by the
// fuzzer.
func FuzzAllocatorsMatchOracle(f *testing.F) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 16; i++ {
		ops := make([]byte, 3+3*(20+rng.Intn(300)))
		rng.Read(ops)
		ops[0] = byte(i % 4)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3+3*800 {
			ops = ops[:3+3*800]
		}
		allocOracleCase(t, ops)
	})
}
