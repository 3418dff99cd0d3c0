package tlb

import (
	"math/rand"
	"slices"
	"testing"

	"memento/internal/config"
)

// refTLB is the stamp-LRU TLB level the recency-ordered sets replaced,
// kept as a differential oracle: every entry carries the tick of its last
// use, a fill takes the last invalid way or else the lowest stamp, and the
// delta-snapshot bookkeeping follows the same rules as TLB — a hit or a
// fill marks its set, a present InvalidatePage marks its set, Flush marks
// every set, a miss only clears clean.
type refTLB struct {
	ways         int
	sets         uint64
	entries      []refEntry
	tick         uint64
	hits, misses uint64
	base         *refSnapshot
	clean        bool
	dirty        []bool
}

type refEntry struct{ vpnw, pfn, lru uint64 }

type refSnapshot struct {
	entries            []refEntry
	tick, hits, misses uint64
}

func newRefTLB(sets, ways int) *refTLB {
	return &refTLB{
		ways:    ways,
		sets:    uint64(sets),
		entries: make([]refEntry, sets*ways),
		dirty:   make([]bool, sets),
	}
}

func (t *refTLB) set(vpn uint64) (uint64, []refEntry) {
	set := (vpn ^ vpn>>7 ^ vpn>>14) & (t.sets - 1)
	base := int(set) * t.ways
	return set, t.entries[base : base+t.ways]
}

func (t *refTLB) Lookup(vpn uint64) (uint64, bool) {
	set, ways := t.set(vpn)
	t.clean = false
	for i := range ways {
		if ways[i].vpnw == vpn|validBit {
			t.tick++
			ways[i].lru = t.tick
			t.hits++
			t.dirty[set] = true
			return ways[i].pfn, true
		}
	}
	t.misses++
	return 0, false
}

func (t *refTLB) Insert(vpn, pfn uint64) {
	set, ways := t.set(vpn)
	t.tick++
	t.dirty[set] = true
	t.clean = false
	vi, lru := 0, ^uint64(0)
	for i := range ways {
		if ways[i].vpnw == vpn|validBit {
			ways[i].pfn = pfn
			ways[i].lru = t.tick
			return
		}
		if ways[i].vpnw&validBit == 0 {
			vi, lru = i, 0
			continue
		}
		if ways[i].lru < lru {
			vi, lru = i, ways[i].lru
		}
	}
	ways[vi] = refEntry{vpnw: vpn | validBit, pfn: pfn, lru: t.tick}
}

func (t *refTLB) InvalidatePage(vpn uint64) {
	set, ways := t.set(vpn)
	for i := range ways {
		if ways[i].vpnw == vpn|validBit {
			ways[i] = refEntry{}
			t.dirty[set] = true
			t.clean = false
		}
	}
}

func (t *refTLB) Flush() {
	clear(t.entries)
	for s := range t.dirty {
		t.dirty[s] = true
	}
	t.clean = false
}

func (t *refTLB) rebase(s *refSnapshot) {
	t.base, t.clean = s, true
	clear(t.dirty)
}

func (t *refTLB) Snapshot() *refSnapshot {
	if t.clean && t.base != nil {
		return t.base
	}
	s := &refSnapshot{entries: slices.Clone(t.entries), tick: t.tick, hits: t.hits, misses: t.misses}
	t.rebase(s)
	return s
}

// Restore copies s back and returns the bytes a stamp-LRU level copies: a
// 24-byte entry per way and a 4-byte MRU hint per dirty set plus the tick
// and two counters, or the whole level for a snapshot other than the base.
func (t *refTLB) Restore(s *refSnapshot) uint64 {
	if s == t.base {
		if t.clean {
			return 0
		}
		var copied uint64
		for set, d := range t.dirty {
			if d {
				base := set * t.ways
				copy(t.entries[base:base+t.ways], s.entries[base:base+t.ways])
				copied += uint64(t.ways)*24 + 4
			}
		}
		t.tick, t.hits, t.misses = s.tick, s.hits, s.misses
		t.clean = true
		clear(t.dirty)
		return copied + 24
	}
	t.entries = slices.Clone(s.entries)
	t.tick, t.hits, t.misses = s.tick, s.hits, s.misses
	t.rebase(s)
	return uint64(len(s.entries))*24 + t.sets*4 + 24
}

// recency returns set's valid entries, most recently used first.
func (t *refTLB) recency(set int) []entry {
	ways := slices.Clone(t.entries[set*t.ways : (set+1)*t.ways])
	ways = slices.DeleteFunc(ways, func(e refEntry) bool { return e.vpnw&validBit == 0 })
	slices.SortFunc(ways, func(a, b refEntry) int {
		if a.lru == b.lru {
			panic("two valid entries share an LRU stamp")
		}
		if a.lru > b.lru {
			return -1
		}
		return 1
	})
	out := make([]entry, len(ways))
	for i, e := range ways {
		out[i] = entry{vpnw: e.vpnw, pfn: e.pfn}
	}
	return out
}

// matchRef reports the first difference between t and its oracle r.
func matchRef(t *TLB, r *refTLB) string {
	if t.hits != r.hits || t.misses != r.misses {
		return "counters"
	}
	if (t.entries.Clean() != nil) != r.clean {
		return "clean flag"
	}
	for set := 0; set < int(r.sets); set++ {
		if t.entries.Dirty(set) != r.dirty[set] {
			return "dirty-set bitmap"
		}
		want := r.recency(set)
		ways := t.waysOf(uint64(set))
		if !slices.Equal(ways[:len(want)], want) {
			return "recency order"
		}
		for _, e := range ways[len(want):] {
			if e != (entry{}) {
				return "invalid ways not trailing as zero entries"
			}
		}
	}
	return ""
}

// fuzzWays are the associativities the oracle tries: direct-mapped, small,
// odd, and wide, among them Table 3's 12-way L2 TLB.
var fuzzWays = []int{1, 2, 3, 8, 9, 12, 16}

// tlbOracle drives a TLB and its stamp-LRU oracle through the operation
// stream in ops and fails at the first observable difference. geo picks
// the associativity and a set count of 1, 2 or 4.
func tlbOracle(t *testing.T, geo uint8, ops []byte) {
	ways := fuzzWays[int(geo)%len(fuzzWays)]
	sets := 1 << (int(geo) / len(fuzzWays) % 3)
	cfg := config.TLBConfig{Name: "f", Entries: sets * ways, Ways: ways}
	tl, r := New(cfg), newRefTLB(sets, ways)
	universe := uint64(sets * (ways + 3))

	// A donor pair of the same geometry supplies a foreign snapshot.
	dt, dr := New(cfg), newRefTLB(sets, ways)
	for v := uint64(0); v < universe; v += 2 {
		dt.Insert(v, v+100)
		dr.Insert(v, v+100)
	}
	dt.Lookup(universe - 2)
	dr.Lookup(universe - 2)
	type pair struct {
		s *Snapshot
		r *refSnapshot
	}
	snaps := []pair{{dt.Snapshot(), dr.Snapshot()}}
	// base is the handle tl was last captured to or restored from.
	var base *Snapshot

	next := func() byte {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return b
	}
	lookup := func(step int, vpn uint64) bool {
		pfn, ok := tl.Lookup(vpn)
		rpfn, rok := r.Lookup(vpn)
		if pfn != rpfn || ok != rok {
			t.Fatalf("step %d: Lookup(%d) = (%d,%v), oracle (%d,%v)", step, vpn, pfn, ok, rpfn, rok)
		}
		return ok
	}
	for step := 0; len(ops) > 0; step++ {
		op, arg, pb := next(), next(), next()
		vpn, pfn := uint64(arg)%universe, uint64(pb)
		var what string
		switch op % 7 {
		case 0:
			what = "Lookup"
			lookup(step, vpn)
		case 1:
			// The System pattern: a Lookup miss, then the fill it causes,
			// which consumes the fill memo.
			what = "Lookup+Insert"
			if !lookup(step, vpn) {
				tl.Insert(vpn, pfn)
				r.Insert(vpn, pfn)
			}
		case 2:
			what = "Insert"
			tl.Insert(vpn, pfn)
			r.Insert(vpn, pfn)
		case 3:
			what = "InvalidatePage"
			tl.InvalidatePage(vpn)
			r.InvalidatePage(vpn)
		case 4:
			// Rare: a flush empties everything the stream built up.
			what = "Flush"
			if arg < 16 {
				tl.Flush()
				r.Flush()
			}
		case 5:
			what = "Snapshot"
			rb := r.base
			s, rs := tl.Snapshot(), r.Snapshot()
			if (s == base) != (rs == rb) {
				t.Fatalf("step %d: Snapshot handle reuse %v, oracle %v", step, s == base, rs == rb)
			}
			base = s
			if s.Bytes() != uint64(len(rs.entries))*24+uint64(sets)*4+24 {
				t.Fatalf("step %d: Snapshot.Bytes = %d", step, s.Bytes())
			}
			snaps = append(snaps, pair{s, rs})
		case 6:
			what = "Restore"
			p := snaps[int(arg)%len(snaps)]
			if got, want := tl.Restore(p.s), r.Restore(p.r); got != want {
				t.Fatalf("step %d: Restore copied %d metered bytes, oracle %d", step, got, want)
			}
			base = p.s
		}
		if d := matchRef(tl, r); d != "" {
			t.Fatalf("step %d (%s of vpn %d): %s differs from the stamp-LRU oracle", step, what, vpn, d)
		}
	}
}

// FuzzTLBMatchesStampLRU checks the recency-ordered TLB against the
// stamp-LRU model it replaced on random operation streams: every returned
// PFN and hit, the counters, the metered restore bytes, the dirty-set
// bitmap and each set's valid entries in recency order.
func FuzzTLBMatchesStampLRU(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for geo := 0; geo < 3*len(fuzzWays); geo++ {
		for _, n := range []int{96, 900} {
			ops := make([]byte, n)
			rng.Read(ops)
			f.Add(uint8(geo), ops)
		}
	}
	f.Fuzz(tlbOracle)
}
