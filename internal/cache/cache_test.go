package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"memento/internal/config"
	"memento/internal/dram"
)

func newHierarchy() *Hierarchy {
	m := config.Default()
	return NewHierarchy(m, dram.New(m.DRAM))
}

func TestCacheHitAfterInsert(t *testing.T) {
	c := NewCache(config.CacheConfig{Name: "t", SizeBytes: 4096, Ways: 4, LatencyCycles: 1})
	if c.Lookup(42, false) {
		t.Fatal("empty cache should miss")
	}
	c.Insert(42, false)
	if !c.Lookup(42, false) {
		t.Fatal("inserted line should hit")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way cache with 2 sets: lines 0,2,4 map to set 0.
	c := NewCache(config.CacheConfig{Name: "t", SizeBytes: 4 * config.LineSize, Ways: 2, LatencyCycles: 1})
	c.Insert(0, false)
	c.Insert(2, false)
	c.Lookup(0, false) // make line 0 MRU
	v, _, ev := c.Insert(4, false)
	if !ev {
		t.Fatal("full set should evict")
	}
	if v != 2 {
		t.Fatalf("victim = %d, want 2 (the LRU line)", v)
	}
	if !c.Contains(0) || !c.Contains(4) || c.Contains(2) {
		t.Fatal("post-eviction contents wrong")
	}
}

func TestCacheDirtyVictim(t *testing.T) {
	c := NewCache(config.CacheConfig{Name: "t", SizeBytes: 2 * config.LineSize, Ways: 1, LatencyCycles: 1})
	c.Insert(0, true)
	_, dirty, ev := c.Insert(2, false) // same set (2 sets: line 2 -> set 0)
	if !ev || !dirty {
		t.Fatalf("eviction of dirty line: ev=%v dirty=%v", ev, dirty)
	}
}

func TestCacheWriteMarksDirty(t *testing.T) {
	c := NewCache(config.CacheConfig{Name: "t", SizeBytes: 2 * config.LineSize, Ways: 1, LatencyCycles: 1})
	c.Insert(0, false)
	c.Lookup(0, true) // write hit
	_, dirty, _ := c.Insert(2, false)
	if !dirty {
		t.Fatal("write hit should have marked the line dirty")
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := NewCache(config.CacheConfig{Name: "t", SizeBytes: 4096, Ways: 4, LatencyCycles: 1})
	c.Insert(7, true)
	dirty, present := c.Invalidate(7)
	if !present || !dirty {
		t.Fatalf("invalidate: present=%v dirty=%v", present, dirty)
	}
	if c.Contains(7) {
		t.Fatal("line should be gone")
	}
	_, present = c.Invalidate(7)
	if present {
		t.Fatal("second invalidate should find nothing")
	}
}

func TestCacheInsertRefreshesExisting(t *testing.T) {
	c := NewCache(config.CacheConfig{Name: "t", SizeBytes: 4096, Ways: 4, LatencyCycles: 1})
	c.Insert(9, false)
	_, _, ev := c.Insert(9, true)
	if ev {
		t.Fatal("re-inserting an existing line must not evict")
	}
	dirty, _ := c.Invalidate(9)
	if !dirty {
		t.Fatal("re-insert with dirty=true should have marked dirty")
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := newHierarchy()
	coldLat := h.Access(0x10000, false)
	warmLat := h.Access(0x10000, false)
	if warmLat != 2 {
		t.Fatalf("L1 hit latency = %d, want 2", warmLat)
	}
	if coldLat <= 2+14+40 {
		t.Fatalf("cold access latency = %d, must include DRAM", coldLat)
	}
	s := h.Stats()
	if s.L1Hits != 1 || s.L1Misses != 1 || s.LLCMisses != 1 {
		t.Fatalf("stats wrong: %+v", s)
	}
}

func TestHierarchyDRAMTraffic(t *testing.T) {
	h := newHierarchy()
	h.Access(0, false)
	if h.Mem.Stats().ReadBytes != config.LineSize {
		t.Fatalf("cold miss should read one line from DRAM, got %d bytes", h.Mem.Stats().ReadBytes)
	}
	h.Access(0, false)
	if h.Mem.Stats().ReadBytes != config.LineSize {
		t.Fatal("warm access must not touch DRAM")
	}
}

func TestInstallZeroAvoidsDRAMRead(t *testing.T) {
	h := newHierarchy()
	lat := h.InstallZero(0x40000, true)
	if h.Mem.Stats().Reads != 0 {
		t.Fatal("InstallZero must not read DRAM")
	}
	if lat != 2+14+40 {
		t.Fatalf("InstallZero latency = %d, want L1+L2+LLC = 56", lat)
	}
	s := h.Stats()
	if s.BypassFills != 1 {
		t.Fatalf("bypass fills = %d, want 1", s.BypassFills)
	}
	// Second access hits in L1.
	if got := h.Access(0x40000, false); got != 2 {
		t.Fatalf("subsequent access = %d cycles, want 2", got)
	}
}

func TestInstallZeroOnCachedLineFallsBack(t *testing.T) {
	h := newHierarchy()
	h.Access(0x40000, true)
	before := h.Stats().BypassFills
	h.InstallZero(0x40000, true)
	if h.Stats().BypassFills != before {
		t.Fatal("InstallZero on a cached line must degrade to a normal access")
	}
}

func TestBypassedLineWritesBackOnEviction(t *testing.T) {
	m := config.Default()
	// Tiny LLC to force evictions quickly.
	m.L1D = config.CacheConfig{Name: "L1D", SizeBytes: 2 * config.LineSize, Ways: 1, LatencyCycles: 2}
	m.L2 = config.CacheConfig{Name: "L2", SizeBytes: 4 * config.LineSize, Ways: 1, LatencyCycles: 14}
	m.LLC = config.CacheConfig{Name: "LLC", SizeBytes: 8 * config.LineSize, Ways: 1, LatencyCycles: 40}
	h := NewHierarchy(m, dram.New(m.DRAM))
	h.InstallZero(0, true)
	// Blow the LLC set 0 with conflicting lines.
	for i := uint64(1); i < 64; i++ {
		h.Access(i*8*config.LineSize, false)
	}
	if h.Mem.Stats().Writes == 0 {
		t.Fatal("evicting the zero-filled dirty line must write it back to DRAM")
	}
}

func TestFlushLineWritesBackDirty(t *testing.T) {
	h := newHierarchy()
	h.Access(0x1000, true)
	cycles := h.FlushLine(0x1000)
	if cycles == 0 {
		t.Fatal("flushing a dirty line should cost a writeback")
	}
	if h.Mem.Stats().Writes != 1 {
		t.Fatalf("writes = %d, want 1", h.Mem.Stats().Writes)
	}
	if h.L1D.Contains(0x1000 >> config.LineShift) {
		t.Fatal("line must be gone after flush")
	}
}

func TestDropLineDiscardsWithoutWriteback(t *testing.T) {
	h := newHierarchy()
	h.Access(0x2000, true)
	h.DropLine(0x2000)
	if h.Mem.Stats().Writes != 0 {
		t.Fatal("DropLine must not write back")
	}
	if h.L1D.Contains(0x2000 >> config.LineShift) {
		t.Fatal("line must be gone after drop")
	}
}

func TestHierarchyWorkingSetFitsInLLC(t *testing.T) {
	h := newHierarchy()
	// 1 MiB working set < 2 MiB LLC: second pass should not reach DRAM.
	for pa := uint64(0); pa < 1<<20; pa += config.LineSize {
		h.Access(pa, false)
	}
	reads := h.Mem.Stats().Reads
	for pa := uint64(0); pa < 1<<20; pa += config.LineSize {
		h.Access(pa, false)
	}
	if h.Mem.Stats().Reads != reads {
		t.Fatalf("second pass over LLC-resident set hit DRAM: %d -> %d reads",
			reads, h.Mem.Stats().Reads)
	}
}

// Property: a cache never holds more valid lines than its capacity, and
// Lookup immediately after Insert always hits.
func TestCacheInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := config.CacheConfig{Name: "p", SizeBytes: 16 * config.LineSize, Ways: 2, LatencyCycles: 1}
		c := NewCache(cfg)
		inserted := make(map[uint64]bool)
		for i := 0; i < 300; i++ {
			la := uint64(rng.Intn(64))
			c.Insert(la, rng.Intn(2) == 0)
			inserted[la] = true
			if !c.Lookup(la, false) {
				return false // must hit right after insert
			}
		}
		// Count valid lines via Contains over the universe.
		valid := 0
		for la := uint64(0); la < 64; la++ {
			if c.Contains(la) {
				valid++
			}
		}
		return valid <= 16
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: hierarchy latency is always at least the L1 latency and DRAM read
// traffic only grows.
func TestHierarchyMonotoneTraffic(t *testing.T) {
	h := newHierarchy()
	var last uint64
	f := func(pa uint64, write bool) bool {
		pa %= 1 << 30
		lat := h.Access(pa, write)
		s := h.Mem.Stats()
		ok := lat >= 2 && s.ReadBytes >= last
		last = s.ReadBytes
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// sameCache reports the first difference between two levels' full state.
func sameCache(a, b *Cache) string {
	switch {
	case a.hits != b.hits || a.misses != b.misses:
		return "counters"
	case !sameMarks(a, b):
		return "clean flag or dirty sets"
	case a.memoOK != b.memoOK:
		return "fill memo"
	}
	// The recency-ordered tag words are the whole replacement state.
	for i := range a.lines.Live {
		if a.lines.Live[i] != b.lines.Live[i] {
			return "lines"
		}
	}
	return ""
}

// sameMarks reports whether two levels agree on the clean flag and on every
// set's dirty bit.
func sameMarks(a, b *Cache) bool {
	if (a.lines.Clean() != nil) != (b.lines.Clean() != nil) {
		return false
	}
	for set := 0; set <= int(a.setMask); set++ {
		if a.lines.Dirty(set) != b.lines.Dirty(set) {
			return false
		}
	}
	return true
}

// TestRepeatHitsMatchesSequentialAccess checks the hit-replay fast path
// against the per-access loop it stands for. Twin hierarchies see the same
// random history; then one repeats a random tuple with RepeatHits and the
// other issues rounds passes of Access. Cycles, Stats, every level's
// recency-ordered lines and counters, and the delta-restore bytes must
// agree. A refused replay (a line not L1-resident) must change nothing.
func TestRepeatHitsMatchesSequentialAccess(t *testing.T) {
	for _, ways := range []int{1, 2, 8} {
		m := config.Default()
		m.L1D.SizeBytes, m.L1D.Ways = 8*ways*config.LineSize, ways
		m.L2.SizeBytes, m.L2.Ways = 32*4*config.LineSize, 4
		m.LLC.SizeBytes, m.LLC.Ways = 64*8*config.LineSize, 8
		rng := rand.New(rand.NewSource(int64(ways)))
		fast, slow := 0, 0
		for trial := 0; trial < 400; trial++ {
			a := NewHierarchy(m, dram.New(m.DRAM))
			b := NewHierarchy(m, dram.New(m.DRAM))
			// A pool of lines spread over a few pages, so sets collide.
			pool := make([]uint64, 24)
			for i := range pool {
				pool[i] = uint64(rng.Intn(8))<<config.PageShift | uint64(rng.Intn(64))<<config.LineShift
			}
			history := func(n int) {
				for i := 0; i < n; i++ {
					pa := pool[rng.Intn(len(pool))] + uint64(rng.Intn(8))*8
					w := rng.Intn(3) == 0
					a.Access(pa, w)
					b.Access(pa, w)
				}
			}
			history(rng.Intn(60))
			sa, sb := a.Snapshot(), b.Snapshot()
			history(rng.Intn(20))

			pas := make([]uint64, rng.Intn(9))
			for j := range pas {
				pas[j] = pool[rng.Intn(len(pool))] + uint64(rng.Intn(8))*8
			}
			writes := uint64(rng.Intn(1 << len(pas)))
			rounds := uint64(rng.Intn(12))
			resident := true
			for _, pa := range pas {
				resident = resident && b.L1D.Contains(pa>>config.LineShift)
			}

			got, ok := a.RepeatHits(pas, writes, rounds)
			if ok != resident {
				t.Fatalf("ways=%d trial %d: RepeatHits ok=%v, all L1-resident=%v", ways, trial, ok, resident)
			}
			var want uint64
			if ok {
				fast++
				for r := uint64(0); r < rounds; r++ {
					for j, pa := range pas {
						want += b.Access(pa, writes>>uint(j)&1 != 0)
					}
				}
			} else {
				slow++
			}
			if got != want {
				t.Fatalf("ways=%d trial %d: cycles %d, sequential %d", ways, trial, got, want)
			}
			if a.Stats() != b.Stats() {
				t.Fatalf("ways=%d trial %d: stats %+v, sequential %+v", ways, trial, a.Stats(), b.Stats())
			}
			for _, lv := range [][2]*Cache{{a.L1D, b.L1D}, {a.L2, b.L2}, {a.LLC, b.LLC}} {
				if d := sameCache(lv[0], lv[1]); d != "" {
					t.Fatalf("ways=%d trial %d: %s differs in %s", ways, trial, lv[0].cfg.Name, d)
				}
			}
			if ra, rb := a.Restore(sa), b.Restore(sb); ra != rb {
				t.Fatalf("ways=%d trial %d: delta restore copied %d bytes, sequential %d", ways, trial, ra, rb)
			}
		}
		if fast == 0 || slow == 0 {
			t.Fatalf("ways=%d: %d fast-forwarded and %d refused tuples; want both", ways, fast, slow)
		}
	}
}

// TestLRUStackInclusion checks LRU's stack property metamorphically: with
// the set count and the line stream fixed, a level one way wider holds a
// superset of the lines, so every access that hits with W ways also hits
// with W+1, for W = 1..16. Each miss fills, as in the hierarchy.
func TestLRUStackInclusion(t *testing.T) {
	const sets = 4
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		// A hot region reused at short distances inside a wider one, so
		// the hit rate climbs over the whole range of associativities.
		stream := make([]uint64, 3000)
		hot, wide := 1+rng.Intn(sets*12), sets*(8+rng.Intn(32))
		for i := range stream {
			if rng.Intn(3) == 0 {
				stream[i] = uint64(rng.Intn(wide))
			} else {
				stream[i] = uint64(rng.Intn(hot))
			}
		}
		var prev []bool
		prevHits, grew := 0, false
		for w := 1; w <= 17; w++ {
			c := NewCache(config.CacheConfig{Name: "m", SizeBytes: sets * w * config.LineSize, Ways: w})
			hit, hits := make([]bool, len(stream)), 0
			for i, la := range stream {
				write := la%5 == 0
				if hit[i] = c.Lookup(la, write); hit[i] {
					hits++
				} else {
					c.Insert(la, write)
				}
				if prev != nil && prev[i] && !hit[i] {
					t.Fatalf("trial %d: access %d (line %d) hits with %d ways, misses with %d", trial, i, la, w-1, w)
				}
			}
			grew = grew || (prev != nil && hits > prevHits)
			prev, prevHits = hit, hits
		}
		if !grew {
			t.Fatalf("trial %d: hit count never grew with associativity; the stream tests nothing", trial)
		}
	}
}
