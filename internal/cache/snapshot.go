package cache

// Metered sizes: what a restore charges per line, per set and per level.
// They meter the modeled state of a stamp-LRU cache (a tag word and a
// 64-bit LRU stamp per line, an MRU way index per set, and the LRU tick
// and two counters per level), not the Go representation, which keeps one
// tag word per line in recency order. Restore byte counts feed the warm
// and fleet goldens, so they stay fixed when the host layout shrinks
// (DESIGN.md §16).
const (
	lineBytes   = 16
	setBytes    = 4
	scalarBytes = 3 * 8
)

// Snapshot is an immutable capture of one cache level's mutable state: the
// recency-ordered tag words and the counters. Geometry is immutable
// configuration and is not captured; a Snapshot may only be restored into a
// Cache built from the same CacheConfig.
//
// Snapshots are delta-aware (DESIGN.md §11): re-Snapshot of an unchanged
// cache returns the same handle (O(1)), Restore of the base copies back
// only dirtied sets, and Restore of a foreign snapshot is a full copy that
// rebases the cache onto it.
//
// The one-shot fill memo is deliberately NOT captured: it is only valid
// between a Lookup miss and the Insert that services it, and a snapshot is
// never taken mid-access. Restore clears it.
type Snapshot struct {
	lines        []uint32
	sets         uint64
	hits, misses uint64
	// hi is the line watermark at capture. It is host bookkeeping derived
	// from lines, so it is not metered.
	hi uint64
}

// Bytes returns the full metered size of the captured state — the cost of
// one deep restore, and the denominator for delta-restore savings.
func (s *Snapshot) Bytes() uint64 {
	return uint64(len(s.lines))*lineBytes + s.sets*setBytes + scalarBytes
}

// Snapshot captures the level's mutable state. The returned value is
// immutable and may be restored any number of times. If nothing mutated
// since the last capture or restore, the existing base snapshot is returned
// unchanged — an O(1) handle reuse with no copying.
func (c *Cache) Snapshot() *Snapshot {
	if s := c.lines.Clean(); s != nil {
		return s
	}
	s := &Snapshot{sets: c.setMask + 1, hits: c.hits, misses: c.misses, hi: c.hi}
	s.lines = c.lines.Capture(s)
	return s
}

// Restore replaces the level's state with a copy of s, invalidates the fill
// memo and takes s's line watermark. Restoring the base into an unchanged
// cache copies nothing and returns 0; otherwise it returns the metered
// bytes of the sets copied plus the counters.
func (c *Cache) Restore(s *Snapshot) uint64 {
	c.memoOK = false
	if s == c.lines.Clean() {
		return 0
	}
	lines, sets := c.lines.Restore(s, s.lines)
	c.hits = s.hits
	c.misses = s.misses
	c.hi = s.hi
	return uint64(lines)*lineBytes + uint64(sets)*setBytes + scalarBytes
}

// HierarchySnapshot captures the three cache levels plus the hierarchy
// counters. The DRAM model below the LLC is snapshotted separately (it is
// shared machine state, not hierarchy state).
type HierarchySnapshot struct {
	l1d, l2, llc *Snapshot
	stats        Stats
}

// Bytes returns the full captured size across all three levels.
func (s *HierarchySnapshot) Bytes() uint64 {
	return s.l1d.Bytes() + s.l2.Bytes() + s.llc.Bytes() + statsBytes
}

// statsBytes is the wire size of the Stats struct (9 uint64 counters).
const statsBytes = 9 * 8

// Snapshot captures all three levels and the hierarchy statistics. When no
// level changed since the previous capture the previous handle is returned.
func (h *Hierarchy) Snapshot() *HierarchySnapshot {
	l1d, l2, llc := h.L1D.Snapshot(), h.L2.Snapshot(), h.LLC.Snapshot()
	if b := h.base; b != nil && b.l1d == l1d && b.l2 == l2 && b.llc == llc && b.stats == h.stats {
		return b
	}
	s := &HierarchySnapshot{l1d: l1d, l2: l2, llc: llc, stats: h.stats}
	h.base = s
	return s
}

// Restore replaces the hierarchy's state with that of s, copying only what
// diverged from each level's base snapshot. The probe attachment is
// preserved; its cached flag is re-derived. Returns the bytes copied —
// zero when the hierarchy is already exactly in state s.
func (h *Hierarchy) Restore(s *HierarchySnapshot) uint64 {
	clean := s == h.base && h.stats == s.stats
	copied := h.L1D.Restore(s.l1d)
	copied += h.L2.Restore(s.l2)
	copied += h.LLC.Restore(s.llc)
	h.stats = s.stats
	h.base = s
	h.probed = h.probe != nil
	if clean && copied == 0 {
		return 0
	}
	return copied + statsBytes
}
