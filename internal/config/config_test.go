package config

import (
	"testing"
	"testing/quick"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestTable3Geometry(t *testing.T) {
	m := Default()
	checks := []struct {
		name string
		got  interface{}
		want interface{}
	}{
		{"clock", m.ClockGHz, 3.0},
		{"rob", m.ROBEntries, 256},
		{"lsq", m.LSQEntries, 64},
		{"l1d size", m.L1D.SizeBytes, 32 << 10},
		{"l1d ways", m.L1D.Ways, 8},
		{"l1d lat", m.L1D.LatencyCycles, uint64(2)},
		{"l2 size", m.L2.SizeBytes, 256 << 10},
		{"l2 lat", m.L2.LatencyCycles, uint64(14)},
		{"llc size", m.LLC.SizeBytes, 2 << 20},
		{"llc ways", m.LLC.Ways, 16},
		{"llc lat", m.LLC.LatencyCycles, uint64(40)},
		{"tlb1 entries", m.TLB1.Entries, 64},
		{"tlb1 ways", m.TLB1.Ways, 4},
		{"tlb2 entries", m.TLB2.Entries, 2048},
		{"tlb2 ways", m.TLB2.Ways, 12},
		{"dram size", m.DRAM.SizeBytes, uint64(64 << 30)},
		{"dram banks", m.DRAM.Banks, 16},
		{"hot entries", m.Memento.HOT.Entries, 64},
		{"hot lat", m.Memento.HOT.LatencyCycles, uint64(2)},
		{"aac entries", m.Memento.AAC.Entries, 32},
		{"aac lat", m.Memento.AAC.LatencyCycles, uint64(1)},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s: got %v want %v", c.name, c.got, c.want)
		}
	}
}

func TestSizeClasses(t *testing.T) {
	m := Default()
	if got := m.Memento.NumSizeClasses(); got != 64 {
		t.Fatalf("size classes = %d, want 64", got)
	}
}

func TestHOTFitsReportedBudget(t *testing.T) {
	m := Default()
	total := m.HOTEntryBytes() * m.Memento.HOT.Entries
	// Table 3 reports a 3.4 KB HOT. Our layout must not exceed it.
	if total > 3481 {
		t.Fatalf("HOT storage %d bytes exceeds the 3.4KB budget of Table 3", total)
	}
	if total < 2048 {
		t.Fatalf("HOT storage %d bytes implausibly small for the Fig 5 layout", total)
	}
}

func TestCacheSets(t *testing.T) {
	m := Default()
	if got := m.L1D.Sets(); got != 64 {
		t.Errorf("L1D sets = %d, want 64", got)
	}
	if got := m.L2.Sets(); got != 512 {
		t.Errorf("L2 sets = %d, want 512", got)
	}
	if got := m.LLC.Sets(); got != 2048 {
		t.Errorf("LLC sets = %d, want 2048", got)
	}
}

func TestValidateRejectsBadGeometry(t *testing.T) {
	cases := []func(*Machine){
		func(m *Machine) { m.L1D.SizeBytes = 1000 },       // not divisible
		func(m *Machine) { m.L1D.Ways = 0 },               // zero ways
		func(m *Machine) { m.L1D.SizeBytes = 3 * 64 * 8 }, // non-pow2 sets
		func(m *Machine) { m.Memento.HOT.Entries = 10 },   // HOT < size classes
		func(m *Machine) { m.Memento.ObjectsPerArena = 0 },
		func(m *Machine) { m.Memento.ObjectsPerArena = 7 },
		func(m *Machine) { m.Cost.IPC = 0 },
		func(m *Machine) { m.DRAM.Banks = 0 },
		func(m *Machine) { m.DRAM.SizeBytes = 0 },
		func(m *Machine) { m.Cores = 0 },
	}
	for i, mutate := range cases {
		m := Default()
		mutate(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: expected validation error, got nil", i)
		}
	}
}

// TestValidateEncodingLimits pins the DRAM sizes the 32-bit host words
// admit. A cache tag is a line address over the set count, so a level's
// limit is 2^30 lines per set: 4 TiB for Table 3's 64-set L1D and 64 GiB for
// a one-set cache. With every level at 1024 sets the 32-bit PTE (pfn+1) is
// the tighter limit, at 2^32-1 frames. Each limit is accepted exactly and
// rejected one line (or one frame) past it.
func TestValidateEncodingLimits(t *testing.T) {
	oneSet := func(m *Machine) { m.L1D.SizeBytes, m.L1D.Ways = 8*LineSize, 8 }
	wide := func(m *Machine) {
		for _, c := range []*CacheConfig{&m.L1D, &m.L1I, &m.L2, &m.LLC} {
			c.SizeBytes = 1024 * c.Ways * LineSize
		}
	}
	for _, c := range []struct {
		name  string
		setup func(*Machine)
		limit uint64
		step  uint64
	}{
		{"default L1D", func(*Machine) {}, uint64(Default().L1D.Sets()) << (CacheTagBits + LineShift), LineSize},
		{"one-set L1D", oneSet, 1 << (CacheTagBits + LineShift), LineSize},
		{"PTE frame", wide, (MaxPTEFrame + 1) << PageShift, PageSize},
	} {
		m := Default()
		c.setup(&m)
		m.DRAM.SizeBytes = c.limit
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %d-byte DRAM rejected at the limit: %v", c.name, c.limit, err)
		}
		m.DRAM.SizeBytes = c.limit + c.step
		if err := m.Validate(); err == nil {
			t.Errorf("%s: %d-byte DRAM accepted, one step past the limit", c.name, m.DRAM.SizeBytes)
		}
	}
}

func TestInstrCycles(t *testing.T) {
	m := Default()
	if got := m.InstrCycles(0); got != 0 {
		t.Errorf("InstrCycles(0) = %d, want 0", got)
	}
	if got := m.InstrCycles(-5); got != 0 {
		t.Errorf("InstrCycles(-5) = %d, want 0", got)
	}
	if got := m.InstrCycles(40); got != 20 {
		t.Errorf("InstrCycles(40) = %d, want 20 at IPC 2", got)
	}
}

func TestInstrCyclesMonotonic(t *testing.T) {
	m := Default()
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return m.InstrCycles(x) <= m.InstrCycles(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCacheSetsPowerOfTwoProperty(t *testing.T) {
	// For any valid configuration produced by scaling the default geometry by
	// powers of two, Sets() stays a power of two and Validate accepts it.
	f := func(scale uint8) bool {
		s := 1 << (scale % 6) // 1..32x
		c := CacheConfig{Name: "T", SizeBytes: (32 << 10) * s, Ways: 8, LatencyCycles: 2}
		if err := c.Validate(); err != nil {
			return false
		}
		sets := c.Sets()
		return sets > 0 && sets&(sets-1) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
