package dram

// scalarBytes covers lastBank, bankStreak, and the 7-counter Stats struct.
const scalarBytes = 8 + 8 + 7*8

// Snapshot is an immutable capture of a DRAM model's mutable state: the
// per-bank open rows, the bank-streak queue state, and the statistics.
// Geometry (banks, row size, decode shifts) is immutable configuration and
// is not captured; a Snapshot may only be restored into a DRAM built from
// the same DRAMConfig.
//
// Snapshots are delta-aware (DESIGN.md §11): re-Snapshot of an untouched
// model is an O(1) handle reuse and Restore of the base onto an untouched
// model copies nothing. The open rows are a few dozen words, so they are
// one block: any access makes a restore copy all of them.
type Snapshot struct {
	openRow    []int64
	lastBank   int
	bankStreak uint64
	stats      Stats
}

// Bytes returns the full size of the captured state in bytes.
func (s *Snapshot) Bytes() uint64 {
	return uint64(len(s.openRow))*8 + scalarBytes
}

// Snapshot captures the mutable state. The returned value is immutable and
// may be restored any number of times, including concurrently into
// different DRAM instances. If nothing mutated since the last capture or
// restore, the existing base snapshot is returned unchanged.
func (d *DRAM) Snapshot() *Snapshot {
	if s := d.openRow.Clean(); s != nil {
		return s
	}
	s := &Snapshot{lastBank: d.lastBank, bankStreak: d.bankStreak, stats: d.stats}
	s.openRow = d.openRow.Capture(s)
	return s
}

// Restore replaces the DRAM's mutable state with a copy of s. Restoring the
// base snapshot into an untouched model is a no-op. The probe attachment is
// preserved; its cached flag is re-derived. Returns the bytes copied.
func (d *DRAM) Restore(s *Snapshot) uint64 {
	if s == d.openRow.Clean() {
		return 0
	}
	rows, _ := d.openRow.Restore(s, s.openRow)
	d.lastBank = s.lastBank
	d.bankStreak = s.bankStreak
	d.stats = s.stats
	d.probed = d.probe != nil
	return uint64(rows)*8 + scalarBytes
}
