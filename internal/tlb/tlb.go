// Package tlb models the two-level TLB of Table 3 (L1: 64-entry 4-way,
// L2: 2048-entry 12-way) and the interface to a page walker. Address
// translation is on the critical path of both the baseline page-fault flow
// (Section 2.1) and Memento's first-touch arena backing (Section 3.2), so
// the reproduction models it explicitly.
package tlb

import (
	"memento/internal/config"
	"memento/internal/delta"
	"memento/internal/telemetry"
)

// entry is a cached VPN -> PFN translation, packed to 16 bytes: the valid
// flag rides in the top bit of the VPN word (VPNs are at most 52 bits), so
// a probe is a single compare against vpn|validBit per way. An invalid way
// is the zero entry.
type entry struct {
	// vpnw is vpn | validBit.
	vpnw uint64
	pfn  uint64
}

// validBit marks a populated entry in its packed vpn word.
const validBit = 1 << 63

// TLB is one set-associative translation cache level. Entry storage is one
// flat, set-major slice (set s occupies entries.Live[s*ways : (s+1)*ways]) so a
// probe walks contiguous memory instead of chasing a per-set pointer. Each
// set keeps its valid entries in recency order, most recent first, with
// invalid ways trailing, so LRU replacement needs no stamps (DESIGN.md §16).
type TLB struct {
	// entries is delta-tracked in blocks of one set: a change to a set marks
	// it, and a Lookup miss, which changes only the miss counter, touches
	// (see snapshot.go).
	entries delta.Array[entry, Snapshot]
	ways    int
	setMask uint64
	// Fill memo: a Lookup miss records the vpn it missed so the Insert that
	// services the miss can skip the scan for an existing entry. One-shot —
	// any mutation (Insert, InvalidatePage, Flush, another Lookup) clears it.
	memoVPN      uint64
	memoOK       bool
	hits, misses uint64
	lat          uint64
}

// New builds one TLB level. Entry count is rounded down to a whole number of
// sets; configurations whose entries do not divide by ways (e.g. 2048/12)
// keep the full associativity with fewer sets, like real sliced designs.
func New(cfg config.TLBConfig) *TLB {
	sets := cfg.Entries / cfg.Ways
	if sets < 1 {
		sets = 1
	}
	// Round down to a power of two for cheap indexing.
	sets = config.FloorPow2(sets)
	return &TLB{
		entries: delta.New[entry, Snapshot](sets*cfg.Ways, cfg.Ways),
		ways:    cfg.Ways,
		setMask: uint64(sets - 1),
		lat:     cfg.LatencyCycles,
	}
}

// waysOf returns set s's entries as a window into the flat storage.
func (t *TLB) waysOf(set uint64) []entry {
	base := int(set) * t.ways
	return t.entries.Live[base : base+t.ways]
}

// position returns the way holding vpn word want (vpn|validBit) in ways, or
// -1. The scan stops at the first invalid way: only invalid ways follow it.
func position(ways []entry, want uint64) int {
	for i := range ways {
		if ways[i].vpnw == want {
			return i
		}
		if ways[i].vpnw == 0 {
			break
		}
	}
	return -1
}

// toFront moves way i of ways to the front with PFN pfn.
func toFront(ways []entry, i int, pfn uint64) {
	e := entry{vpnw: ways[i].vpnw, pfn: pfn}
	copy(ways[1:i+1], ways[:i])
	ways[0] = e
}

// Latency returns the lookup latency in cycles.
func (t *TLB) Latency() uint64 { return t.lat }

// setOf computes the set index with XOR folding, as real TLBs do to break
// up power-of-two strides (e.g. Memento's size-class stripes, which are a
// constant number of pages apart and would otherwise alias one set).
func (t *TLB) setOf(vpn uint64) uint64 {
	return (vpn ^ vpn>>7 ^ vpn>>14) & t.setMask
}

// Lookup returns the PFN for vpn if cached, making it most recent.
func (t *TLB) Lookup(vpn uint64) (pfn uint64, ok bool) {
	set := t.setOf(vpn)
	ways := t.waysOf(set)
	t.memoOK = false
	// Every Lookup mutates either the hit or the miss counter, so the TLB
	// diverges from its base snapshot even when no set content changes.
	t.entries.Touch()
	// The front way is the most recent entry; most hits land there, and it
	// stays in place.
	if ways[0].vpnw == vpn|validBit {
		pfn = ways[0].pfn
	} else if i := position(ways, vpn|validBit); i >= 0 {
		pfn = ways[i].pfn
		toFront(ways, i, pfn)
	} else {
		t.misses++
		t.memoVPN, t.memoOK = vpn, true
		return 0, false
	}
	t.hits++
	// A hit marks its set even when nothing moves (see Cache.Lookup).
	t.entries.Mark(int(set))
	return pfn, true
}

// Insert caches a translation as the set's most recent, evicting the least
// recent if the set is full.
func (t *TLB) Insert(vpn, pfn uint64) {
	set := t.setOf(vpn)
	ways := t.waysOf(set)
	t.entries.Mark(int(set))
	// The fill memo says the immediately preceding Lookup missed this very
	// vpn, so there is no entry to update; otherwise look for one.
	memo := t.memoOK && t.memoVPN == vpn
	t.memoOK = false
	if !memo {
		if i := position(ways, vpn|validBit); i >= 0 {
			toFront(ways, i, pfn)
			return
		}
	}
	copy(ways[1:], ways)
	ways[0] = entry{vpnw: vpn | validBit, pfn: pfn}
}

// InvalidatePage drops the translation for vpn (a shootdown of one page).
// The ways behind it close up, so invalid ways stay trailing.
func (t *TLB) InvalidatePage(vpn uint64) {
	t.memoOK = false
	set := t.setOf(vpn)
	ways := t.waysOf(set)
	if i := position(ways, vpn|validBit); i >= 0 {
		copy(ways[i:], ways[i+1:])
		ways[len(ways)-1] = entry{}
		t.entries.Mark(int(set))
	}
}

// Flush clears all translations (context switch without ASIDs).
func (t *TLB) Flush() {
	t.memoOK = false
	clear(t.entries.Live)
	t.entries.MarkAll()
}

// Hits and Misses expose raw counters.
func (t *TLB) Hits() uint64   { return t.hits }
func (t *TLB) Misses() uint64 { return t.misses }

// Walker produces translations on TLB misses. The kernel's page tables and
// Memento's hardware page allocator each implement it; the MMU picks the
// walker by comparing the address against the MRS/MRE region registers.
type Walker interface {
	// Walk translates vpn, returning the PFN and the walk latency in
	// cycles (including any fault handling or hardware page allocation the
	// walk triggered). A non-nil error classifies the failure: it wraps
	// simerr.ErrSegfault when no mapping covers the address, and
	// simerr.ErrOutOfMemory when the page exists but could not be backed
	// with a physical frame.
	Walk(vpn uint64) (pfn uint64, cycles uint64, err error)
}

// Stats summarizes a System's translation activity.
type Stats struct {
	L1Hits, L1Misses uint64
	L2Hits, L2Misses uint64
	Walks            uint64
	WalkCycles       uint64
	Shootdowns       uint64
}

// Sub returns the field-wise difference s - o: the activity between two
// snapshots. Arithmetic wraps (uint64 modular), so sums of deltas match the
// cumulative counters exactly.
func (s Stats) Sub(o Stats) Stats {
	s.L1Hits -= o.L1Hits
	s.L1Misses -= o.L1Misses
	s.L2Hits -= o.L2Hits
	s.L2Misses -= o.L2Misses
	s.Walks -= o.Walks
	s.WalkCycles -= o.WalkCycles
	s.Shootdowns -= o.Shootdowns
	return s
}

// Add returns the field-wise sum s + o.
func (s Stats) Add(o Stats) Stats {
	s.L1Hits += o.L1Hits
	s.L1Misses += o.L1Misses
	s.L2Hits += o.L2Hits
	s.L2Misses += o.L2Misses
	s.Walks += o.Walks
	s.WalkCycles += o.WalkCycles
	s.Shootdowns += o.Shootdowns
	return s
}

// Counters returns the stats in their stable telemetry wire form.
func (s Stats) Counters() telemetry.TLBCounters {
	return telemetry.TLBCounters{
		L1Hits:     s.L1Hits,
		L1Misses:   s.L1Misses,
		L2Hits:     s.L2Hits,
		L2Misses:   s.L2Misses,
		Walks:      s.Walks,
		WalkCycles: s.WalkCycles,
		Shootdowns: s.Shootdowns,
	}
}

// System is the two-level TLB plus walker glue for one core.
type System struct {
	L1, L2 *TLB
	stats  Stats
	// base is the system-level snapshot handle reused while neither level
	// changes (see snapshot.go).
	base *SystemSnapshot
	// probe, when non-nil, observes walks and shootdowns. probed caches the
	// attachment state so the hot path tests one byte, not an interface.
	probe  telemetry.Probe
	probed bool
	// lastVPN and lastPFN are the last successful translation, valid while
	// lastOK holds. Any L1 miss, shootdown, flush, snapshot or restore
	// clears lastOK (DESIGN.md §17).
	lastVPN, lastPFN uint64
	lastOK           bool
}

// SetProbe attaches a telemetry probe (nil detaches).
func (s *System) SetProbe(p telemetry.Probe) {
	s.probe = p
	s.probed = p != nil
}

// NewSystem builds the Table 3 TLB pair.
func NewSystem(m config.Machine) *System {
	return &System{L1: New(m.TLB1), L2: New(m.TLB2)}
}

// Translate resolves vpn via L1 -> L2 -> walker, returning the PFN, the
// translation latency, and a typed error when the walk failed (see Walker
// for the classification). The L1 lookup is overlapped with the cache
// access, so an L1 hit costs its configured latency (0 by default).
func (s *System) Translate(vpn uint64, w Walker) (pfn uint64, cycles uint64, err error) {
	cycles = s.L1.Latency()
	// The page of the last successful translation, with the TLB untouched
	// since: its entry is at the front of its L1 set, the set is marked
	// dirty and the fill memo is clear, so this is that front hit and
	// changes the hit counters alone.
	if s.lastOK && s.lastVPN == vpn {
		s.L1.hits++
		s.stats.L1Hits++
		return s.lastPFN, cycles, nil
	}
	var ok bool
	if pfn, ok = s.L1.Lookup(vpn); ok {
		s.stats.L1Hits++
		s.lastVPN, s.lastPFN, s.lastOK = vpn, pfn, true
		return pfn, cycles, nil
	}
	s.lastOK = false
	s.stats.L1Misses++
	cycles += s.L2.Latency()
	if pfn, ok = s.L2.Lookup(vpn); ok {
		s.stats.L2Hits++
		s.L1.Insert(vpn, pfn)
		s.lastVPN, s.lastPFN, s.lastOK = vpn, pfn, true
		return pfn, cycles, nil
	}
	s.stats.L2Misses++
	pfn, walkCycles, err := w.Walk(vpn)
	s.stats.Walks++
	s.stats.WalkCycles += walkCycles
	cycles += walkCycles
	if s.probed {
		s.probe.Count(telemetry.CtrTLBWalk, 1, walkCycles)
	}
	if err != nil {
		return 0, cycles, err
	}
	s.L2.Insert(vpn, pfn)
	s.L1.Insert(vpn, pfn)
	s.lastVPN, s.lastPFN, s.lastOK = vpn, pfn, true
	return pfn, cycles, nil
}

// Shootdown invalidates one page in both levels and counts the event.
func (s *System) Shootdown(vpn uint64) {
	s.lastOK = false
	s.L1.InvalidatePage(vpn)
	s.L2.InvalidatePage(vpn)
	s.stats.Shootdowns++
	if s.probed {
		s.probe.Count(telemetry.CtrTLBShootdown, 1, 0)
	}
}

// FlushAll clears both levels (full context switch).
func (s *System) FlushAll() {
	s.lastOK = false
	s.L1.Flush()
	s.L2.Flush()
}

// Stats returns a copy of the counters.
func (s *System) Stats() Stats { return s.stats }
