// Package cache implements the simulated cache hierarchy of Table 3:
// a per-core L1D, a private L2, and a shared LLC slice, all set-associative
// with LRU replacement, write-back and write-allocate. The hierarchy charges
// every access with its cycle cost and routes misses to the DRAM model, which
// is how the reproduction accounts for the memory traffic that Memento's
// bypass mechanism removes (Section 3.3, Fig 10).
package cache

import (
	"memento/internal/config"
	"memento/internal/delta"
	"memento/internal/dram"
	"memento/internal/telemetry"
)

// Line bookkeeping is one 4-byte tag word per way: the tag in the low
// config.CacheTagBits (30) bits, with the dirty and valid flags above it. A
// tag is a line address shifted down by the set bits; Machine.Validate
// rejects a DRAM whose last line's tag would not fit. An invalid way is the
// zero word.
const (
	tagMask  = 1<<config.CacheTagBits - 1
	dirtyBit = tagMask + 1
	validBit = dirtyBit << 1
)

// Cache is one set-associative cache level. Set storage is one flat,
// set-major slice of tag words (set s occupies lines.Live[s*ways :
// (s+1)*ways]), and each set keeps its valid lines in recency order, most
// recent first, with invalid ways trailing. LRU replacement therefore needs
// no stamps: a hit moves its line to the front, a fill enters at the front,
// and the victim of a full set is its last way (DESIGN.md §16).
type Cache struct {
	cfg config.CacheConfig
	// lines is delta-tracked in blocks of one set: a change to a set marks
	// it, and a Lookup miss, which changes only the miss counter, touches
	// (see snapshot.go).
	lines   delta.Array[uint32, Snapshot]
	ways    int
	setMask uint64
	shift   uint
	// Fill memo: a Lookup miss records the line it missed so the Insert that
	// services the miss (the universal miss->fill pattern in Hierarchy) can
	// skip the scan for an existing copy. The memo is one-shot — any
	// mutation (Insert, Invalidate, another Lookup) clears it.
	memoLine uint64
	memoOK   bool
	// hi is the line watermark: no valid line lies above it. Insert raises
	// it to the line it places and Restore takes the snapshot's. Lookup,
	// Contains, Invalidate and Insert's search for a copy answer for a line
	// above hi without scanning its set (DESIGN.md §17).
	hi uint64
	// Stats
	hits, misses uint64
}

// NewCache builds a cache level from its configuration.
func NewCache(cfg config.CacheConfig) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.Sets()
	return &Cache{
		cfg:     cfg,
		lines:   delta.New[uint32, Snapshot](n*cfg.Ways, cfg.Ways),
		ways:    cfg.Ways,
		setMask: uint64(n - 1),
		shift:   uint(config.Log2(n)),
	}
}

// indexTag splits a line address (pa >> LineShift) into set index and tag.
func (c *Cache) indexTag(lineAddr uint64) (set uint64, tag uint32) {
	return lineAddr & c.setMask, uint32(lineAddr >> c.shift)
}

// setOf returns set s's ways as a window into the flat storage.
func (c *Cache) setOf(set uint64) []uint32 {
	base := int(set) * c.ways
	return c.lines.Live[base : base+c.ways]
}

// position returns the way holding tag word want (tag|validBit) in ways, or
// -1. The scan stops at the first invalid way: only invalid ways follow it.
func position(ways []uint32, want uint32) int {
	for i, w := range ways {
		if w&^dirtyBit == want {
			return i
		}
		if w == 0 {
			break
		}
	}
	return -1
}

// toFront moves way i of ways to the front, or-ing in or.
func toFront(ways []uint32, i int, or uint32) {
	w := ways[i] | or
	copy(ways[1:i+1], ways[:i])
	ways[0] = w
}

// Lookup probes for the line, making it most recent on a hit. If write is
// set and the line hits, it is marked dirty.
func (c *Cache) Lookup(lineAddr uint64, write bool) bool {
	set, tag := c.indexTag(lineAddr)
	ways := c.setOf(set)
	c.memoOK = false
	// Every Lookup mutates either the hit or the miss counter, so the cache
	// diverges from its base snapshot even when no set content changes.
	c.lines.Touch()
	var or uint32
	if write {
		or = dirtyBit
	}
	// The front way is the most recent line, the common hit for the
	// streaming access patterns the simulator replays; it stays in place.
	if ways[0]&^dirtyBit == tag|validBit {
		ways[0] |= or
	} else if i := c.find(lineAddr, ways, tag); i >= 0 {
		toFront(ways, i, or)
	} else {
		c.misses++
		c.memoLine, c.memoOK = lineAddr, true
		return false
	}
	c.hits++
	// A hit marks its set even when nothing moves: the recency order is the
	// state a delta restore copies back.
	c.lines.Mark(int(set))
	return true
}

// repeatHits applies rounds passes of the tuple pas (physical addresses),
// in order, as the Lookup hits they are when every line is resident. Hits
// neither fill nor evict, so residency holds for every round once it holds
// for the first, and a second pass of moves-to-front leaves every set in
// the order the first left it: one pass in tuple order, with a write (bit j
// of writes) setting the dirty bit, is the state after all rounds. The hit
// counter advances by rounds·len(pas). It reports false, changing nothing,
// when a line is not resident.
func (c *Cache) repeatHits(pas []uint64, writes, rounds uint64) bool {
	for _, pa := range pas {
		if !c.Contains(pa >> config.LineShift) {
			return false
		}
	}
	n := uint64(len(pas))
	if rounds == 0 || n == 0 {
		return true
	}
	for j, pa := range pas {
		set, tag := c.indexTag(pa >> config.LineShift)
		ways := c.setOf(set)
		toFront(ways, position(ways, tag|validBit), uint32(writes>>uint(j)&1)*dirtyBit)
		c.lines.Mark(int(set))
	}
	c.hits += rounds * n
	c.memoOK = false
	return true
}

// find returns the way of ways (lineAddr's set) holding tag, or -1. A
// line above the watermark is absent without a scan.
func (c *Cache) find(lineAddr uint64, ways []uint32, tag uint32) int {
	if lineAddr > c.hi {
		return -1
	}
	return position(ways, tag|validBit)
}

// Contains probes without touching recency or statistics.
func (c *Cache) Contains(lineAddr uint64) bool {
	set, tag := c.indexTag(lineAddr)
	return c.find(lineAddr, c.setOf(set), tag) >= 0
}

// Insert places the line as the set's most recent, evicting the least
// recent if the set is full. It returns the evicted line address and
// whether the victim was dirty.
func (c *Cache) Insert(lineAddr uint64, dirty bool) (victim uint64, victimDirty, evicted bool) {
	set, tag := c.indexTag(lineAddr)
	ways := c.setOf(set)
	c.lines.Mark(int(set))
	tagw := tag | validBit
	if dirty {
		tagw |= dirtyBit
	}
	// The fill memo says the immediately preceding Lookup missed this very
	// line, so there is no copy to refresh; otherwise look for one.
	memo := c.memoOK && c.memoLine == lineAddr
	c.memoOK = false
	if !memo {
		if i := c.find(lineAddr, ways, tag); i >= 0 {
			toFront(ways, i, tagw)
			return 0, false, false
		}
	}
	c.hi = max(c.hi, lineAddr)
	if last := ways[len(ways)-1]; last != 0 {
		victim = uint64(last&tagMask)<<c.shift | set
		victimDirty = last&dirtyBit != 0
		evicted = true
	}
	copy(ways[1:], ways)
	ways[0] = tagw
	return victim, victimDirty, evicted
}

// Invalidate drops the line if present, returning whether it was dirty.
// The ways behind it close up, so invalid ways stay trailing.
func (c *Cache) Invalidate(lineAddr uint64) (wasDirty, wasPresent bool) {
	c.memoOK = false
	set, tag := c.indexTag(lineAddr)
	ways := c.setOf(set)
	i := c.find(lineAddr, ways, tag)
	if i < 0 {
		return false, false
	}
	wasDirty = ways[i]&dirtyBit != 0
	copy(ways[i:], ways[i+1:])
	ways[len(ways)-1] = 0
	c.lines.Mark(int(set))
	return wasDirty, true
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

// DropLine removes the line from all levels without writing back: the data
// is dead. It is one line of StreamZeroPage's drop, the step the per-line
// zeroing oracles repeat.
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

// linesPerPage is the number of cache lines in one page.
const linesPerPage = config.PageSize / config.LineSize

// StreamZeroPage models the kernel's non-temporal zeroing of the page that
// holds pa (clear_page): every cached copy of its lines is discarded (the
// data is being overwritten), each line's zero goes straight to DRAM (full
// write traffic), and each line's critical-path cost is its posted-write
// latency divided by the write-combining depth. Unlike Access, the lines do
// NOT warm the cache — the first application touch of a kernel-zeroed line
// misses, which is exactly the DRAM cost Memento's bypass removes (Section
// 3.3). State and cycles are those of dropping and writing the page's lines
// one by one (DESIGN.md §17).
func (h *Hierarchy) StreamZeroPage(pa uint64) uint64 {
	first := pa >> config.PageShift << (config.PageShift - config.LineShift)
	h.L1D.dropPage(first)
	h.L2.dropPage(first)
	h.LLC.dropPage(first)
	return h.Mem.WriteRun(first<<config.LineShift, linesPerPage, streamMLP)
}

// dropPage invalidates the page of lines starting at line first. A page
// whose first line lies above the watermark holds none of its lines, so of
// the invalidations only their clearing of the fill memo remains.
func (c *Cache) dropPage(first uint64) {
	if first > c.hi {
		c.memoOK = false
		return
	}
	for la := first; la < first+linesPerPage; la++ {
		c.Invalidate(la)
	}
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
