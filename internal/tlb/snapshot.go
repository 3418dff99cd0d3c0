package tlb

// Metered sizes: what a restore charges per entry, per set and per level.
// They meter the modeled state of a stamp-LRU TLB (VPN word, PFN and a
// 64-bit LRU stamp per entry, an MRU way index per set, and the LRU tick
// and two counters per level), not the Go representation, which keeps
// {vpn word, PFN} entries in recency order. Restore byte counts feed the
// warm and fleet goldens, so they stay fixed (DESIGN.md §16).
const (
	entryBytes  = 24
	setBytes    = 4
	scalarBytes = 3 * 8
)

// Snapshot is an immutable capture of one TLB level's mutable state.
// Geometry is immutable configuration and is not captured; a Snapshot may
// only be restored into a TLB built from the same TLBConfig.
//
// Snapshots are delta-aware (DESIGN.md §11): re-Snapshot of an unchanged
// TLB returns the same handle (O(1)), Restore of the base copies back only
// dirtied sets, and Restore of a foreign snapshot is a full copy that
// rebases the TLB onto it.
//
// The one-shot fill memo is deliberately NOT captured: it is only valid
// between a Lookup miss and the Insert that services it, and a snapshot is
// never taken mid-translation. Restore clears it.
type Snapshot struct {
	entries      []entry
	sets         uint64
	hits, misses uint64
}

// Bytes returns the full metered size of the captured state — the cost of
// one deep restore, and the denominator for delta-restore savings.
func (s *Snapshot) Bytes() uint64 {
	return uint64(len(s.entries))*entryBytes + s.sets*setBytes + scalarBytes
}

// Snapshot captures the level's mutable state. The returned value is
// immutable and may be restored any number of times. If nothing mutated
// since the last capture or restore, the existing base snapshot is returned
// unchanged — an O(1) handle reuse with no copying.
func (t *TLB) Snapshot() *Snapshot {
	if s := t.entries.Clean(); s != nil {
		return s
	}
	s := &Snapshot{sets: t.setMask + 1, hits: t.hits, misses: t.misses}
	s.entries = t.entries.Capture(s)
	return s
}

// Restore replaces the level's state with a copy of s and invalidates the
// fill memo. Restoring the base into an unchanged TLB copies nothing and
// returns 0; otherwise it returns the metered bytes of the sets copied plus
// the counters.
func (t *TLB) Restore(s *Snapshot) uint64 {
	t.memoOK = false
	if s == t.entries.Clean() {
		return 0
	}
	entries, sets := t.entries.Restore(s, s.entries)
	t.hits = s.hits
	t.misses = s.misses
	return uint64(entries)*entryBytes + uint64(sets)*setBytes + scalarBytes
}

// SystemSnapshot captures both TLB levels plus the translation counters.
type SystemSnapshot struct {
	l1, l2 *Snapshot
	stats  Stats
}

// statsBytes is the wire size of the Stats struct (7 uint64 counters).
const statsBytes = 7 * 8

// Bytes returns the full captured size across both levels.
func (s *SystemSnapshot) Bytes() uint64 {
	return s.l1.Bytes() + s.l2.Bytes() + statsBytes
}

// Snapshot captures both levels and the system statistics. When neither
// level changed since the previous capture the previous handle is returned.
func (s *System) Snapshot() *SystemSnapshot {
	// Capturing rebases L1, clearing the dirty mark a reused translation
	// relies on.
	s.lastOK = false
	l1, l2 := s.L1.Snapshot(), s.L2.Snapshot()
	if b := s.base; b != nil && b.l1 == l1 && b.l2 == l2 && b.stats == s.stats {
		return b
	}
	snap := &SystemSnapshot{l1: l1, l2: l2, stats: s.stats}
	s.base = snap
	return snap
}

// Restore replaces the system's state with that of snap, copying only what
// diverged from each level's base snapshot. The probe attachment is
// preserved; its cached flag is re-derived. Returns the bytes copied —
// zero when the system is already exactly in state snap.
func (s *System) Restore(snap *SystemSnapshot) uint64 {
	clean := snap == s.base && s.stats == snap.stats
	s.lastOK = false
	copied := s.L1.Restore(snap.l1)
	copied += s.L2.Restore(snap.l2)
	s.stats = snap.stats
	s.base = snap
	s.probed = s.probe != nil
	if clean && copied == 0 {
		return 0
	}
	return copied + statsBytes
}
