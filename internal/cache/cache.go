// Package cache implements the simulated cache hierarchy of Table 3:
// a per-core L1D, a private L2, and a shared LLC slice, all set-associative
// with LRU replacement, write-back and write-allocate. The hierarchy charges
// every access with its cycle cost and routes misses to the DRAM model, which
// is how the reproduction accounts for the memory traffic that Memento's
// bypass mechanism removes (Section 3.3, Fig 10).
package cache

import (
	"memento/internal/config"
	"memento/internal/dram"
	"memento/internal/telemetry"
)

// line is one cache line's bookkeeping, packed to 16 bytes so a whole
// 16-way set spans four cache lines of host memory instead of six. The tag
// word carries the valid and dirty flags in its top bits; tags are line
// addresses shifted down by the set bits, far below 62 bits.
type line struct {
	// tagw is tag | validBit | dirtyBit.
	tagw uint64
	// lru is a per-set sequence number; the smallest is the LRU victim.
	lru uint64
}

const (
	validBit = 1 << 63
	dirtyBit = 1 << 62
	tagMask  = dirtyBit - 1
)

// Cache is one set-associative cache level. Set storage is one flat,
// set-major slice (set s occupies lines[s*ways : (s+1)*ways]) so a probe
// costs a single bounds-checked slice, not a pointer chase per set, and the
// set shift is precomputed instead of re-derived per lookup.
type Cache struct {
	cfg   config.CacheConfig
	lines []line
	ways  int
	// mru[s] is the way index of set s's most-recently-used line; it is the
	// first way probed on Lookup, the common hit for the streaming access
	// patterns the simulator replays.
	mru     []int32
	setMask uint64
	shift   uint
	tick    uint64
	// Fill memo: a Lookup miss records the victim way it scanned past so the
	// Insert that services the miss (the universal miss->fill pattern in
	// Hierarchy) can skip a second way scan. The memo is one-shot — any
	// mutation (Insert, Invalidate, another Lookup) clears it — so a consumed
	// memo is always the way the cold-path scan would have picked.
	memoLine uint64
	memoWay  int32
	memoOK   bool
	// Stats
	hits, misses uint64
	// Delta-snapshot state: base is the snapshot this cache's content was
	// last captured to or restored from, dirty is a per-set bitmap of sets
	// mutated since then, and clean reports no mutation at all (the dirty
	// bitmap alone cannot: a Lookup miss bumps the miss counter without
	// touching any set). See snapshot.go.
	base  *Snapshot
	clean bool
	dirty []uint64
}

// markDirty records that set's content diverged from the base snapshot.
func (c *Cache) markDirty(set uint64) {
	c.dirty[set>>6] |= 1 << (set & 63)
	c.clean = false
}

// NewCache builds a cache level from its configuration.
func NewCache(cfg config.CacheConfig) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.Sets()
	return &Cache{
		cfg:     cfg,
		lines:   make([]line, n*cfg.Ways),
		ways:    cfg.Ways,
		mru:     make([]int32, n),
		setMask: uint64(n - 1),
		shift:   uint(config.Log2(n)),
		dirty:   make([]uint64, (n+63)/64),
	}
}

// indexTag splits a line address (pa >> LineShift) into set index and tag.
func (c *Cache) indexTag(lineAddr uint64) (set uint64, tag uint64) {
	return lineAddr & c.setMask, lineAddr >> c.shift
}

// setOf returns set s's ways as a window into the flat storage.
func (c *Cache) setOf(set uint64) []line {
	base := int(set) * c.ways
	return c.lines[base : base+c.ways]
}

// Lookup probes for the line, updating LRU on a hit. If write is set and the
// line hits, it is marked dirty.
func (c *Cache) Lookup(lineAddr uint64, write bool) bool {
	set, tag := c.indexTag(lineAddr)
	ways := c.setOf(set)
	want := tag | validBit
	c.memoOK = false
	// Every Lookup mutates either the hit or the miss counter, so the cache
	// diverges from its base snapshot even when no set content changes.
	c.clean = false
	// MRU fast path: skip the way scan when the last-used way hits again.
	if w := &ways[c.mru[set]]; w.tagw&^dirtyBit == want {
		c.tick++
		w.lru = c.tick
		if write {
			w.tagw |= dirtyBit
		}
		c.hits++
		c.dirty[set>>6] |= 1 << (set & 63)
		return true
	}
	// Miss scans track the victim Insert would pick (first invalid way, else
	// lowest LRU with first-strictly-less tie-break) to seed the fill memo.
	inv := -1
	li, lru := 0, ^uint64(0)
	for i := range ways {
		w := &ways[i]
		if w.tagw&^dirtyBit == want {
			c.tick++
			w.lru = c.tick
			if write {
				w.tagw |= dirtyBit
			}
			c.hits++
			c.mru[set] = int32(i)
			c.dirty[set>>6] |= 1 << (set & 63)
			return true
		}
		if w.tagw&validBit == 0 {
			if inv < 0 {
				inv = i
			}
			continue
		}
		if w.lru < lru {
			li, lru = i, w.lru
		}
	}
	c.misses++
	vi := inv
	if vi < 0 {
		vi = li
	}
	c.memoLine, c.memoWay, c.memoOK = lineAddr, int32(vi), true
	return false
}

// find returns the index in lines of the resident copy of lineAddr, or -1,
// probing the set's MRU way first. It touches no state.
func (c *Cache) find(lineAddr uint64) int {
	set, tag := c.indexTag(lineAddr)
	want := tag | validBit
	base := int(set) * c.ways
	if i := base + int(c.mru[set]); c.lines[i].tagw&^dirtyBit == want {
		return i
	}
	for i, w := range c.setOf(set) {
		if w.tagw&^dirtyBit == want {
			return base + i
		}
	}
	return -1
}

// repeatHits applies rounds passes of the tuple pas (physical addresses),
// in order, as the Lookup hits they are when every line is resident: tick
// advances by rounds·len(pas), each line's lru becomes the tick of its
// access in the last round, a write (bit j of writes) sets the dirty bit,
// and mru and the dirty-set bitmap end as the sequential hits leave them.
// Hits neither fill nor evict, so residency holds for every round once it
// holds for the first. It reports false, changing nothing, when a line is
// not resident.
func (c *Cache) repeatHits(pas []uint64, writes, rounds uint64) bool {
	for _, pa := range pas {
		if c.find(pa>>config.LineShift) < 0 {
			return false
		}
	}
	n := uint64(len(pas))
	if rounds == 0 || n == 0 {
		return true
	}
	last := c.tick + (rounds-1)*n
	for j, pa := range pas {
		la := pa >> config.LineShift
		i, set := c.find(la), la&c.setMask
		c.lines[i].lru = last + uint64(j) + 1
		if writes>>uint(j)&1 != 0 {
			c.lines[i].tagw |= dirtyBit
		}
		c.mru[set] = int32(i - int(set)*c.ways)
		c.dirty[set>>6] |= 1 << (set & 63)
	}
	c.tick += rounds * n
	c.hits += rounds * n
	c.memoOK = false
	c.clean = false
	return true
}

// Contains probes without touching LRU or statistics.
func (c *Cache) Contains(lineAddr uint64) bool { return c.find(lineAddr) >= 0 }

// Insert places the line, evicting the LRU victim if the set is full.
// It returns the evicted line address and whether the victim was dirty.
func (c *Cache) Insert(lineAddr uint64, dirty bool) (victim uint64, victimDirty, evicted bool) {
	set, tag := c.indexTag(lineAddr)
	ways := c.setOf(set)
	c.tick++
	c.markDirty(set)
	want := tag | validBit
	// Fill-memo fast path: the immediately preceding Lookup missed this very
	// line and already picked the victim way; nothing has mutated since.
	if c.memoOK && c.memoLine == lineAddr {
		c.memoOK = false
		w := &ways[c.memoWay]
		if w.tagw&validBit != 0 {
			victim = ((w.tagw & tagMask) << c.shift) | set
			victimDirty = w.tagw&dirtyBit != 0
			evicted = true
		}
		tagw := want
		if dirty {
			tagw |= dirtyBit
		}
		*w = line{tagw: tagw, lru: c.tick}
		c.mru[set] = c.memoWay
		return victim, victimDirty, evicted
	}
	c.memoOK = false
	// Prefer an existing copy (refresh), then the first invalid way, else LRU.
	inv := -1
	li, lru := 0, ^uint64(0)
	for i := range ways {
		w := &ways[i]
		if w.tagw&^dirtyBit == want {
			w.lru = c.tick
			if dirty {
				w.tagw |= dirtyBit
			}
			c.mru[set] = int32(i)
			return 0, false, false
		}
		if w.tagw&validBit == 0 {
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
	if w.tagw&validBit != 0 {
		victim = ((w.tagw & tagMask) << c.shift) | set
		victimDirty = w.tagw&dirtyBit != 0
		evicted = true
	}
	tagw := want
	if dirty {
		tagw |= dirtyBit
	}
	*w = line{tagw: tagw, lru: c.tick}
	c.mru[set] = int32(vi)
	return victim, victimDirty, evicted
}

// Invalidate drops the line if present, returning whether it was dirty.
// A stale mru entry is harmless: the fast path re-checks validity and tag.
func (c *Cache) Invalidate(lineAddr uint64) (wasDirty, wasPresent bool) {
	c.memoOK = false
	set, tag := c.indexTag(lineAddr)
	ways := c.setOf(set)
	want := tag | validBit
	for i := range ways {
		if ways[i].tagw&^dirtyBit == want {
			d := ways[i].tagw&dirtyBit != 0
			ways[i] = line{}
			c.markDirty(set)
			return d, true
		}
	}
	return false, false
}

// HitRate returns the hit rate observed so far.
func (c *Cache) HitRate() float64 {
	t := c.hits + c.misses
	if t == 0 {
		return 0
	}
	return float64(c.hits) / float64(t)
}

// Hits and Misses expose the raw counters.
func (c *Cache) Hits() uint64   { return c.hits }
func (c *Cache) Misses() uint64 { return c.misses }

// Stats summarizes hierarchy activity.
type Stats struct {
	L1Hits, L1Misses   uint64
	L2Hits, L2Misses   uint64
	LLCHits, LLCMisses uint64
	// BypassFills counts lines instantiated zeroed at the LLC instead of
	// being fetched from DRAM (Section 3.3).
	BypassFills uint64
	// DRAMFillsAvoided equals BypassFills but is kept separate for clarity
	// in bandwidth reporting.
	DRAMFillsAvoided uint64
	// Writebacks counts dirty evictions that reached DRAM.
	Writebacks uint64
}

// Sub returns the field-wise difference s - o: the activity between two
// snapshots. Arithmetic wraps (uint64 modular), so sums of deltas match the
// cumulative counters exactly.
func (s Stats) Sub(o Stats) Stats {
	s.L1Hits -= o.L1Hits
	s.L1Misses -= o.L1Misses
	s.L2Hits -= o.L2Hits
	s.L2Misses -= o.L2Misses
	s.LLCHits -= o.LLCHits
	s.LLCMisses -= o.LLCMisses
	s.BypassFills -= o.BypassFills
	s.DRAMFillsAvoided -= o.DRAMFillsAvoided
	s.Writebacks -= o.Writebacks
	return s
}

// Add returns the field-wise sum s + o.
func (s Stats) Add(o Stats) Stats {
	s.L1Hits += o.L1Hits
	s.L1Misses += o.L1Misses
	s.L2Hits += o.L2Hits
	s.L2Misses += o.L2Misses
	s.LLCHits += o.LLCHits
	s.LLCMisses += o.LLCMisses
	s.BypassFills += o.BypassFills
	s.DRAMFillsAvoided += o.DRAMFillsAvoided
	s.Writebacks += o.Writebacks
	return s
}

// Counters returns the stats in their stable telemetry wire form.
func (s Stats) Counters() telemetry.CacheCounters {
	return telemetry.CacheCounters{
		L1Hits:      s.L1Hits,
		L1Misses:    s.L1Misses,
		L2Hits:      s.L2Hits,
		L2Misses:    s.L2Misses,
		LLCHits:     s.LLCHits,
		LLCMisses:   s.LLCMisses,
		BypassFills: s.BypassFills,
		Writebacks:  s.Writebacks,
	}
}

// Hierarchy composes L1D -> L2 -> LLC -> DRAM for one core.
// (The instruction cache of Table 3 is configured but, as the model is
// trace-driven, instruction fetch is folded into the instruction-cost model.)
type Hierarchy struct {
	L1D *Cache
	L2  *Cache
	LLC *Cache
	Mem *dram.DRAM

	l1Lat, l2Lat, llcLat uint64
	stats                Stats
	// base is the hierarchy-level snapshot handle reused while no level
	// changes (see snapshot.go).
	base *HierarchySnapshot
	// probe, when non-nil, observes bypass fills and writebacks. probed
	// caches the attachment state so the access paths test one byte instead
	// of an interface against nil.
	probe  telemetry.Probe
	probed bool
}

// SetProbe attaches a telemetry probe (nil detaches).
func (h *Hierarchy) SetProbe(p telemetry.Probe) {
	h.probe = p
	h.probed = p != nil
}

// NewHierarchy wires the three levels to a DRAM model.
func NewHierarchy(m config.Machine, mem *dram.DRAM) *Hierarchy {
	return &Hierarchy{
		L1D:    NewCache(m.L1D),
		L2:     NewCache(m.L2),
		LLC:    NewCache(m.LLC),
		Mem:    mem,
		l1Lat:  m.L1D.LatencyCycles,
		l2Lat:  m.L2.LatencyCycles,
		llcLat: m.LLC.LatencyCycles,
	}
}

// Access performs a data access to physical address pa and returns its
// latency in core cycles. The address is truncated to its cache line.
func (h *Hierarchy) Access(pa uint64, write bool) uint64 {
	la := pa >> config.LineShift
	cycles := h.l1Lat
	if h.L1D.Lookup(la, write) {
		h.stats.L1Hits++
		return cycles
	}
	h.stats.L1Misses++
	cycles += h.l2Lat
	if h.L2.Lookup(la, write) {
		h.stats.L2Hits++
		h.fillL1(la, write)
		return cycles
	}
	h.stats.L2Misses++
	cycles += h.llcLat
	if h.LLC.Lookup(la, write) {
		h.stats.LLCHits++
		h.fillL2(la, false)
		h.fillL1(la, write)
		return cycles
	}
	h.stats.LLCMisses++
	cycles += h.Mem.Read(la << config.LineShift)
	h.insertLLC(la, false)
	h.fillL2(la, false)
	h.fillL1(la, write)
	return cycles
}

// RepeatHits charges rounds repetitions of the access tuple pas (bit j of
// writes marks pas[j] a write), exactly as rounds·len(pas) further Access
// calls would when every line is L1-resident: all of them hit L1, which
// updates L1 alone. It reports false, changing nothing, when a line is not
// L1-resident; the caller then issues the accesses one by one. Teardown
// uses it to fast-forward the identical page-table walks of a run of
// unmapped VPNs (DESIGN.md §15).
func (h *Hierarchy) RepeatHits(pas []uint64, writes, rounds uint64) (uint64, bool) {
	if !h.L1D.repeatHits(pas, writes, rounds) {
		return 0, false
	}
	n := rounds * uint64(len(pas))
	h.stats.L1Hits += n
	return n * h.l1Lat, true
}

// InstallZero instantiates a never-before-accessed line directly in the LLC
// as a zeroed, dirty line, bypassing the DRAM fill (Section 3.3). The
// request still traverses L1 and L2 (miss each), matching the paper's
// decision to let the request propagate regularly to the LLC for coherence
// simplicity. Returns the latency.
func (h *Hierarchy) InstallZero(pa uint64, write bool) uint64 {
	la := pa >> config.LineShift
	// If the line is already cached anywhere, a plain access is correct.
	if h.L1D.Contains(la) || h.L2.Contains(la) || h.LLC.Contains(la) {
		return h.Access(pa, write)
	}
	h.stats.L1Misses++
	h.stats.L2Misses++
	h.stats.LLCMisses++
	h.stats.BypassFills++
	h.stats.DRAMFillsAvoided++
	cycles := h.l1Lat + h.l2Lat + h.llcLat
	if h.probed {
		h.probe.Count(telemetry.CtrCacheBypassFill, 1, cycles)
	}
	// The line is dirty at the LLC: its zeroed contents exist nowhere in
	// DRAM, so an eviction must write it back.
	h.insertLLC(la, true)
	h.fillL2(la, false)
	h.fillL1(la, write)
	return cycles
}

// FlushLine removes the line from all levels, writing back dirty copies.
// Used by arena reclamation.
func (h *Hierarchy) FlushLine(pa uint64) uint64 {
	la := pa >> config.LineShift
	var cycles uint64
	dirty := false
	if d, ok := h.L1D.Invalidate(la); ok && d {
		dirty = true
	}
	if d, ok := h.L2.Invalidate(la); ok && d {
		dirty = true
	}
	if d, ok := h.LLC.Invalidate(la); ok && d {
		dirty = true
	}
	if dirty {
		cycles += h.Mem.Write(la << config.LineShift)
		h.stats.Writebacks++
		if h.probed {
			h.probe.Count(telemetry.CtrCacheWriteback, 1, cycles)
		}
	}
	return cycles
}

// DropLine removes the line from all levels without writing back, used when
// the backing page is being discarded (e.g. arena free): the data is dead.
func (h *Hierarchy) DropLine(pa uint64) {
	la := pa >> config.LineShift
	h.L1D.Invalidate(la)
	h.L2.Invalidate(la)
	h.LLC.Invalidate(la)
}

// streamMLP is the write-combining depth of non-temporal stores: posted
// writes overlap, so only a fraction of each write's latency reaches the
// critical path.
const streamMLP = 4

// StreamZero models the kernel's non-temporal page-zeroing store to one
// line: any cached copy is discarded (the data is being overwritten), the
// zero goes straight to DRAM (full write traffic), and the critical-path
// cost is the posted-write latency divided by the write-combining depth.
// Unlike Access, the line does NOT warm the cache — the first application
// touch of a kernel-zeroed line misses, which is exactly the DRAM cost
// Memento's bypass removes (Section 3.3).
func (h *Hierarchy) StreamZero(pa uint64) uint64 {
	h.DropLine(pa)
	return h.Mem.Write(pa>>config.LineShift<<config.LineShift) / streamMLP
}

func (h *Hierarchy) fillL1(la uint64, write bool) {
	if v, d, ok := h.L1D.Insert(la, write); ok && d {
		// Dirty L1 victim falls to L2.
		h.fillL2(v, true)
	}
}

func (h *Hierarchy) fillL2(la uint64, dirty bool) {
	if v, d, ok := h.L2.Insert(la, dirty); ok && d {
		h.insertLLC(v, true)
	}
}

func (h *Hierarchy) insertLLC(la uint64, dirty bool) {
	if v, d, ok := h.LLC.Insert(la, dirty); ok && d {
		h.Mem.Write(v << config.LineShift)
		h.stats.Writebacks++
		if h.probed {
			// The eviction writeback is off the critical path (posted).
			h.probe.Count(telemetry.CtrCacheWriteback, 1, 0)
		}
	}
}

// Stats returns a copy of the hierarchy statistics.
func (h *Hierarchy) Stats() Stats { return h.stats }

// ResetStats zeroes hierarchy statistics (cache contents are kept).
func (h *Hierarchy) ResetStats() { h.stats = Stats{} }
