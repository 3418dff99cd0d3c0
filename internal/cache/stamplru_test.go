package cache

import (
	"math/rand"
	"slices"
	"testing"

	"memento/internal/config"
)

// refCache is the stamp-LRU cache level the recency-ordered sets replaced,
// kept as a differential oracle: every line carries the tick of its last
// use, a fill takes the first invalid way or else the lowest stamp (first
// strictly less), and the delta-snapshot bookkeeping follows the same
// rules as Cache — a hit or a fill marks its set, a present Invalidate
// marks its set, a miss only clears clean. The replay fast path is modeled
// as the sequential hits it stands for. It keeps the 8-byte tag words the
// stamp-LRU cache had, so a tag the 4-byte words would truncate shows.
type refCache struct {
	ways         int
	sets         uint64
	shift        uint
	lines        []refLine
	tick         uint64
	hits, misses uint64
	base         *refSnapshot
	clean        bool
	dirty        []bool
}

type refLine struct{ tagw, lru uint64 }

// The oracle's tag word: the full tag below the dirty and valid flags.
const (
	refValid   = 1 << 63
	refDirty   = 1 << 62
	refTagMask = refDirty - 1
)

// widen returns the oracle's tag word for Cache tag word w.
func widen(w uint32) uint64 {
	t := uint64(w & tagMask)
	if w&validBit != 0 {
		t |= refValid
	}
	if w&dirtyBit != 0 {
		t |= refDirty
	}
	return t
}

type refSnapshot struct {
	lines              []refLine
	tick, hits, misses uint64
}

func newRefCache(sets, ways int) *refCache {
	return &refCache{
		ways:  ways,
		sets:  uint64(sets),
		shift: uint(config.Log2(sets)),
		lines: make([]refLine, sets*ways),
		dirty: make([]bool, sets),
	}
}

func (c *refCache) set(la uint64) (uint64, []refLine, uint64) {
	set := la & (c.sets - 1)
	base := int(set) * c.ways
	return set, c.lines[base : base+c.ways], la>>c.shift | refValid
}

func (c *refCache) Lookup(la uint64, write bool) bool {
	set, ways, want := c.set(la)
	c.clean = false
	for i := range ways {
		if ways[i].tagw&^refDirty == want {
			c.tick++
			ways[i].lru = c.tick
			if write {
				ways[i].tagw |= refDirty
			}
			c.hits++
			c.dirty[set] = true
			return true
		}
	}
	c.misses++
	return false
}

func (c *refCache) Contains(la uint64) bool {
	_, ways, want := c.set(la)
	for _, w := range ways {
		if w.tagw&^refDirty == want {
			return true
		}
	}
	return false
}

func (c *refCache) repeatHits(pas []uint64, writes, rounds uint64) bool {
	for _, pa := range pas {
		if !c.Contains(pa >> config.LineShift) {
			return false
		}
	}
	for r := uint64(0); r < rounds; r++ {
		for j, pa := range pas {
			c.Lookup(pa>>config.LineShift, writes>>uint(j)&1 != 0)
		}
	}
	return true
}

func (c *refCache) Insert(la uint64, dirty bool) (victim uint64, victimDirty, evicted bool) {
	set, ways, want := c.set(la)
	c.tick++
	c.dirty[set] = true
	c.clean = false
	inv := -1
	li, lru := 0, ^uint64(0)
	for i := range ways {
		w := &ways[i]
		if w.tagw&^refDirty == want {
			w.lru = c.tick
			if dirty {
				w.tagw |= refDirty
			}
			return 0, false, false
		}
		if w.tagw&refValid == 0 {
			if inv < 0 {
				inv = i
			}
			continue
		}
		if w.lru < lru {
			li, lru = i, w.lru
		}
	}
	vi := inv
	if vi < 0 {
		vi = li
	}
	w := &ways[vi]
	if w.tagw&refValid != 0 {
		victim = (w.tagw&refTagMask)<<c.shift | set
		victimDirty = w.tagw&refDirty != 0
		evicted = true
	}
	tagw := want
	if dirty {
		tagw |= refDirty
	}
	*w = refLine{tagw: tagw, lru: c.tick}
	return victim, victimDirty, evicted
}

func (c *refCache) Invalidate(la uint64) (wasDirty, wasPresent bool) {
	set, ways, want := c.set(la)
	for i := range ways {
		if ways[i].tagw&^refDirty == want {
			d := ways[i].tagw&refDirty != 0
			ways[i] = refLine{}
			c.dirty[set] = true
			c.clean = false
			return d, true
		}
	}
	return false, false
}

func (c *refCache) rebase(s *refSnapshot) {
	c.base, c.clean = s, true
	clear(c.dirty)
}

func (c *refCache) Snapshot() *refSnapshot {
	if c.clean && c.base != nil {
		return c.base
	}
	s := &refSnapshot{lines: slices.Clone(c.lines), tick: c.tick, hits: c.hits, misses: c.misses}
	c.rebase(s)
	return s
}

// Restore copies s back and returns the bytes a stamp-LRU level copies: a
// 16-byte line per way and a 4-byte MRU hint per dirty set plus the tick
// and two counters, or the whole level for a snapshot other than the base.
func (c *refCache) Restore(s *refSnapshot) uint64 {
	if s == c.base {
		if c.clean {
			return 0
		}
		var copied uint64
		for set, d := range c.dirty {
			if d {
				base := set * c.ways
				copy(c.lines[base:base+c.ways], s.lines[base:base+c.ways])
				copied += uint64(c.ways)*16 + 4
			}
		}
		c.tick, c.hits, c.misses = s.tick, s.hits, s.misses
		c.clean = true
		clear(c.dirty)
		return copied + 24
	}
	c.lines = slices.Clone(s.lines)
	c.tick, c.hits, c.misses = s.tick, s.hits, s.misses
	c.rebase(s)
	return uint64(len(s.lines))*16 + c.sets*4 + 24
}

// recency returns set's valid tag words, most recently used first.
func (c *refCache) recency(set int) []uint64 {
	ways := slices.Clone(c.lines[set*c.ways : (set+1)*c.ways])
	ways = slices.DeleteFunc(ways, func(l refLine) bool { return l.tagw&refValid == 0 })
	slices.SortFunc(ways, func(a, b refLine) int {
		if a.lru == b.lru {
			panic("two valid lines share an LRU stamp")
		}
		if a.lru > b.lru {
			return -1
		}
		return 1
	})
	out := make([]uint64, len(ways))
	for i, l := range ways {
		out[i] = l.tagw
	}
	return out
}

// matchRef reports the first difference between c and its oracle r.
func matchRef(c *Cache, r *refCache) string {
	if c.hits != r.hits || c.misses != r.misses {
		return "counters"
	}
	if (c.lines.Clean() != nil) != r.clean {
		return "clean flag"
	}
	for set := 0; set < int(r.sets); set++ {
		if c.lines.Dirty(set) != r.dirty[set] {
			return "dirty-set bitmap"
		}
		want := r.recency(set)
		ways := c.setOf(uint64(set))
		for i, w := range want {
			if widen(ways[i]) != w {
				return "recency order"
			}
		}
		for _, w := range ways[len(want):] {
			if w != 0 {
				return "invalid ways not trailing as zero words"
			}
		}
	}
	return ""
}

// fuzzWays are the associativities the oracle tries: direct-mapped, small,
// odd, Table 3's L1D (8) and its iso-storage variant (9), the L2 TLB's 12,
// and the LLC's 16.
var fuzzWays = []int{1, 2, 3, 8, 9, 12, 16}

// cacheOracle drives a Cache and its stamp-LRU oracle through the operation
// stream in ops and fails at the first observable difference. geo picks
// the associativity and a set count of 1, 2 or 4; with its top bit set,
// every other row of tags moves to the top of the tag space (tags with bit
// 29 set, up to the largest), so sets mix the lowest and highest tags.
func cacheOracle(t *testing.T, geo uint8, ops []byte) {
	ways := fuzzWays[int(geo)%len(fuzzWays)]
	sets := 1 << (int(geo) / len(fuzzWays) % 3)
	cfg := config.CacheConfig{Name: "f", SizeBytes: sets * ways * config.LineSize, Ways: ways}
	c, r := NewCache(cfg), newRefCache(sets, ways)
	// Lines from a universe a few ways wider than the cache, so sets fill,
	// evict and re-fetch.
	universe := uint64(sets * (ways + 3))
	high := uint64(0)
	if geo&0x80 != 0 {
		high = (1<<config.CacheTagBits - uint64(ways+3)) * uint64(sets)
	}
	line := func(b byte) uint64 {
		la := uint64(b) % universe
		if la/uint64(sets)%2 == 1 {
			la += high
		}
		return la
	}

	// A donor pair of the same geometry supplies a foreign snapshot.
	dc, dr := NewCache(cfg), newRefCache(sets, ways)
	for i := uint64(0); i < universe; i += 2 {
		la := line(byte(i))
		dc.Insert(la, i%3 == 0)
		dr.Insert(la, i%3 == 0)
	}
	dc.Lookup(line(byte(universe-2)), true)
	dr.Lookup(line(byte(universe-2)), true)
	type pair struct {
		s *Snapshot
		r *refSnapshot
	}
	snaps := []pair{{dc.Snapshot(), dr.Snapshot()}}
	// base is the handle c was last captured to or restored from.
	var base *Snapshot

	next := func() byte {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return b
	}
	for step := 0; len(ops) > 0; step++ {
		op, arg := next(), next()
		la, write := line(arg), arg&0x80 != 0
		var what string
		switch op % 8 {
		case 0:
			what = "Lookup"
			if c.Lookup(la, write) != r.Lookup(la, write) {
				t.Fatalf("step %d: Lookup(%d) hit differs", step, la)
			}
		case 1:
			// The Hierarchy pattern: a Lookup miss, then the fill it causes,
			// which consumes the fill memo.
			what = "Lookup+Insert"
			hit := c.Lookup(la, write)
			if hit != r.Lookup(la, write) {
				t.Fatalf("step %d: Lookup(%d) hit differs", step, la)
			}
			if !hit {
				v, vd, ev := c.Insert(la, write)
				rv, rvd, rev := r.Insert(la, write)
				if v != rv || vd != rvd || ev != rev {
					t.Fatalf("step %d: Insert(%d) after miss = (%d,%v,%v), oracle (%d,%v,%v)", step, la, v, vd, ev, rv, rvd, rev)
				}
			}
		case 2:
			what = "Insert"
			v, vd, ev := c.Insert(la, write)
			rv, rvd, rev := r.Insert(la, write)
			if v != rv || vd != rvd || ev != rev {
				t.Fatalf("step %d: Insert(%d) = (%d,%v,%v), oracle (%d,%v,%v)", step, la, v, vd, ev, rv, rvd, rev)
			}
		case 3:
			what = "Invalidate"
			d, p := c.Invalidate(la)
			rd, rp := r.Invalidate(la)
			if d != rd || p != rp {
				t.Fatalf("step %d: Invalidate(%d) = (%v,%v), oracle (%v,%v)", step, la, d, p, rd, rp)
			}
		case 4:
			what = "Contains"
			if c.Contains(la) != r.Contains(la) {
				t.Fatalf("step %d: Contains(%d) differs", step, la)
			}
		case 5:
			what = "repeatHits"
			pas := make([]uint64, arg%6)
			for j := range pas {
				pas[j] = line(next())<<config.LineShift | uint64(j)*8
			}
			writes, rounds := uint64(next()), uint64(next()%5)
			if c.repeatHits(pas, writes, rounds) != r.repeatHits(pas, writes, rounds) {
				t.Fatalf("step %d: repeatHits(%v) accepted differs", step, pas)
			}
		case 6:
			what = "Snapshot"
			rb := r.base
			s, rs := c.Snapshot(), r.Snapshot()
			if (s == base) != (rs == rb) {
				t.Fatalf("step %d: Snapshot handle reuse %v, oracle %v", step, s == base, rs == rb)
			}
			base = s
			if s.Bytes() != uint64(len(rs.lines))*16+uint64(sets)*4+24 {
				t.Fatalf("step %d: Snapshot.Bytes = %d", step, s.Bytes())
			}
			snaps = append(snaps, pair{s, rs})
		case 7:
			what = "Restore"
			p := snaps[int(arg)%len(snaps)]
			if got, want := c.Restore(p.s), r.Restore(p.r); got != want {
				t.Fatalf("step %d: Restore copied %d metered bytes, oracle %d", step, got, want)
			}
			base = p.s
		}
		if d := matchRef(c, r); d != "" {
			t.Fatalf("step %d (%s of line %d): %s differs from the stamp-LRU oracle", step, what, la, d)
		}
		if above := c.linesAbove(c.hi); above != 0 {
			t.Fatalf("step %d (%s of line %d): %d valid lines above the watermark %d", step, what, la, above, c.hi)
		}
	}
}

// linesAbove counts c's valid lines whose line address exceeds hi.
func (c *Cache) linesAbove(hi uint64) int {
	n := 0
	for i, w := range c.lines.Live {
		if w&validBit != 0 && uint64(w&tagMask)<<c.shift|uint64(i/c.ways) > hi {
			n++
		}
	}
	return n
}

// TestTopTagBitRoundTrips drives lines whose tags set bit 29, the top bit
// of the 30-bit tag, up to the largest tag, through Table 3's L1D beside
// the stamp-LRU oracle, which keeps 64-bit tag words: misses and the fills
// that service them, evictions, write hits, invalidations and restores of
// the base and of a foreign snapshot. Every victim must be the line address
// the oracle evicts, and the two must agree after every step.
func TestTopTagBitRoundTrips(t *testing.T) {
	cfg := config.Default().L1D
	sets, ways := cfg.Sets(), cfg.Ways
	shift := config.Log2(sets)
	c, r := NewCache(cfg), newRefCache(sets, ways)
	var lines []uint64
	for i := uint64(0); i < uint64(ways)+4; i++ {
		for _, tag := range []uint64{1<<29 + i, 1<<config.CacheTagBits - 1 - i} {
			for _, set := range []uint64{0, 37, uint64(sets - 1)} {
				lines = append(lines, tag<<shift|set)
			}
		}
	}
	step := 0
	check := func(what string, la uint64) {
		t.Helper()
		step++
		if d := matchRef(c, r); d != "" {
			t.Fatalf("step %d (%s of line %#x): %s differs from the stamp-LRU oracle", step, what, la, d)
		}
	}
	evictions := 0
	access := func(la uint64, write bool) {
		t.Helper()
		hit := c.Lookup(la, write)
		if hit != r.Lookup(la, write) {
			t.Fatalf("Lookup(%#x) hit differs from the oracle", la)
		}
		if !hit {
			v, vd, ev := c.Insert(la, write)
			rv, rvd, rev := r.Insert(la, write)
			if v != rv || vd != rvd || ev != rev {
				t.Fatalf("Insert(%#x) = (%#x,%v,%v), oracle (%#x,%v,%v)", la, v, vd, ev, rv, rvd, rev)
			}
			if ev {
				evictions++
			}
		}
		check("access", la)
	}
	empty, rEmpty := c.Snapshot(), r.Snapshot()
	for i, la := range lines {
		access(la, i%3 == 0)
	}
	base, rBase := c.Snapshot(), r.Snapshot()
	for i, la := range lines {
		if i%5 == 0 {
			d, p := c.Invalidate(la)
			if rd, rp := r.Invalidate(la); d != rd || p != rp {
				t.Fatalf("Invalidate(%#x) = (%v,%v), oracle (%v,%v)", la, d, p, rd, rp)
			}
			check("Invalidate", la)
		}
		access(lines[len(lines)-1-i], i%2 == 0)
	}
	restore := func(s *Snapshot, rs *refSnapshot) {
		t.Helper()
		if got, want := c.Restore(s), r.Restore(rs); got != want {
			t.Fatalf("Restore copied %d metered bytes, oracle %d", got, want)
		}
		check("Restore", 0)
		// Evict every restored line: each victim must come back exact.
		for i := uint64(0); i < uint64(ways); i++ {
			for _, set := range []uint64{0, 37, uint64(sets - 1)} {
				access(i<<shift|set, false)
			}
		}
	}
	restore(base, rBase)
	restore(empty, rEmpty)
	restore(base, rBase)
	if evictions < len(lines) {
		t.Fatalf("%d evictions, want at least %d", evictions, len(lines))
	}
}

// FuzzCacheMatchesStampLRU checks the recency-ordered cache against the
// stamp-LRU model it replaced on random operation streams: every return
// value, the counters, the metered restore bytes, the dirty-set bitmap and
// each set's valid lines in recency order. No valid line may lie above the
// line watermark, whose early-outs the oracle does not have.
func FuzzCacheMatchesStampLRU(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for geo := 0; geo < 3*len(fuzzWays); geo++ {
		for _, n := range []int{64, 600} {
			for _, high := range []int{0, 0x80} {
				ops := make([]byte, n)
				rng.Read(ops)
				f.Add(uint8(geo|high), ops)
			}
		}
	}
	f.Fuzz(cacheOracle)
}
