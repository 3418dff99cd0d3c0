package softalloc

import "fmt"

// The software allocators keep their state in value slabs indexed by int32
// (pools and arenas, runs and chunks, spans and arenas, the shared
// free-list and bitmap slabs), so a snapshot is a copy of those slices and
// a restore copies them back into the capacity the allocator already holds:
// a pooled allocator restored at steady state allocates nothing. The one
// map, the large path's live blocks, is cleared and refilled in place. A
// snapshot is immutable and can seed any number of allocators. Environment
// wiring (kernel, address space, VMem) is never captured: a restored
// allocator keeps the environment it was last attached to.
//
// Snapshot sizes are metered by the model below, counted once at capture.

func errSnapshotType(name string, s AllocSnapshot) error {
	return fmt.Errorf("softalloc: %s: restore of foreign snapshot %T", name, s)
}

// saStatsBytes is the wire size of the Stats struct (10 counters).
const saStatsBytes = 10 * 8

// ---- glibc large path ----

type largeSnapshot struct {
	bumpVA, endVA uint64
	bins          [largeBins][]uint64
	binSeen       uint32
	blocks        []largeEntry
	mmapped       int
	stats         Stats
	bytes         uint64
}

// largeEntry is one live block in a snapshot.
type largeEntry struct {
	va uint64
	b  largeBlock
}

func (*largeSnapshot) allocSnapshot() {}

// Bytes implements AllocSnapshot: bump cursors, the bins that have held a
// block, the live blocks with their mmap flags, and the counters.
func (s *largeSnapshot) Bytes() uint64 { return s.bytes }

func (l *LargeAlloc) snapshot() *largeSnapshot {
	s := &largeSnapshot{
		bumpVA:  l.bumpVA,
		endVA:   l.endVA,
		binSeen: l.binSeen,
		blocks:  make([]largeEntry, 0, len(l.blocks)),
		mmapped: l.mmapped,
		stats:   l.stats,
	}
	s.bytes = 2*8 + saStatsBytes + uint64(len(l.blocks))*16 + uint64(l.mmapped)*9
	for i := range l.bins {
		s.bins[i] = append([]uint64(nil), l.bins[i]...)
		if l.binSeen&(1<<i) != 0 {
			s.bytes += 8 + uint64(len(l.bins[i]))*8
		}
	}
	for va, b := range l.blocks {
		s.blocks = append(s.blocks, largeEntry{va, b})
	}
	return s
}

func (l *LargeAlloc) restore(s *largeSnapshot) {
	l.bumpVA, l.endVA = s.bumpVA, s.endVA
	for i := range l.bins {
		l.bins[i] = append(l.bins[i][:0], s.bins[i]...)
	}
	l.binSeen = s.binSeen
	clear(l.blocks)
	for _, e := range s.blocks {
		l.blocks[e.va] = e.b
	}
	l.mmapped = s.mmapped
	l.stats = s.stats
}

// Snapshot implements Allocator.
func (l *LargeAlloc) Snapshot() AllocSnapshot { return l.snapshot() }

// Restore implements Allocator.
func (l *LargeAlloc) Restore(s AllocSnapshot) error {
	ls, ok := s.(*largeSnapshot)
	if !ok {
		return errSnapshotType(l.Name(), s)
	}
	l.restore(ls)
	return nil
}

// ---- pymalloc ----

type pySnapshot struct {
	usedPools [pyNumClasses][]int32
	freePools []int32
	arenas    []pyArena
	pools     []pyPool
	live      []int32
	vacant    []int32
	free      []uint16
	large     *largeSnapshot
	stats     Stats
	bytes     uint64
}

func (*pySnapshot) allocSnapshot() {}

// pyPoolSnapBytes covers one pool's scalars: base, class, objSize,
// capacity, used, and the two list flags.
const pyPoolSnapBytes = 5*8 + 2

// Bytes implements AllocSnapshot: the mapped arenas and their pools (each
// with its free list and, once bound to a class, a live flag per slot), the
// used/free pool lists, the embedded large-path snapshot, and the counters.
func (s *pySnapshot) Bytes() uint64 { return s.bytes }

// Snapshot implements Allocator.
func (p *PyMalloc) Snapshot() AllocSnapshot {
	s := &pySnapshot{
		freePools: append([]int32(nil), p.freePools...),
		arenas:    append([]pyArena(nil), p.arenas...),
		pools:     append([]pyPool(nil), p.pools...),
		live:      append([]int32(nil), p.live...),
		vacant:    append([]int32(nil), p.vacant...),
		free:      append([]uint16(nil), p.free...),
		large:     p.large.snapshot(),
		stats:     p.stats,
	}
	s.bytes = s.large.Bytes() + saStatsBytes + uint64(len(p.freePools))*8
	for cls := range p.usedPools {
		s.usedPools[cls] = append([]int32(nil), p.usedPools[cls]...)
		s.bytes += uint64(len(p.usedPools[cls])) * 8
	}
	for _, a := range p.live {
		s.bytes += 2 * 8 // base + freePools
		pools := p.pools[a*pyPoolsPerAren:][:pyPoolsPerAren]
		for i := range pools {
			s.bytes += pyPoolSnapBytes + uint64(pools[i].nfree)*2 + uint64(pools[i].capacity)
		}
	}
	return s
}

// Restore implements Allocator.
func (p *PyMalloc) Restore(s AllocSnapshot) error {
	ps, ok := s.(*pySnapshot)
	if !ok {
		return errSnapshotType(p.Name(), s)
	}
	for cls := range p.usedPools {
		p.usedPools[cls] = append(p.usedPools[cls][:0], ps.usedPools[cls]...)
	}
	p.freePools = append(p.freePools[:0], ps.freePools...)
	p.arenas = append(p.arenas[:0], ps.arenas...)
	p.pools = append(p.pools[:0], ps.pools...)
	p.live = append(p.live[:0], ps.live...)
	p.vacant = append(p.vacant[:0], ps.vacant...)
	p.free = append(p.free[:0], ps.free...)
	p.large.restore(ps.large)
	p.stats = ps.stats
	return nil
}

// ---- jemalloc ----

type jeSnapshot struct {
	opts     JEMallocOpts
	chunks   []jeChunk
	tcache   [jeNumClasses][]uint64
	runs     [jeNumClasses][]int32
	slab     []jeRun
	free     []uint16
	bits     []uint64
	large    *largeSnapshot
	stats    Stats
	initDone bool
	bytes    uint64
}

func (*jeSnapshot) allocSnapshot() {}

// jeRunSnapBytes covers one run's scalars: base, class, objSize, capacity,
// and used.
const jeRunSnapBytes = 5 * 8

// Bytes implements AllocSnapshot: chunks, the thread cache, the carved runs
// with their free lists and run lists, the owned and cached objects, the
// embedded large-path snapshot, and the counters.
func (s *jeSnapshot) Bytes() uint64 { return s.bytes }

// Snapshot implements Allocator.
func (j *JEMalloc) Snapshot() AllocSnapshot {
	s := &jeSnapshot{
		opts:     j.opts,
		chunks:   append([]jeChunk(nil), j.chunks...),
		slab:     append([]jeRun(nil), j.slab...),
		free:     append([]uint16(nil), j.free...),
		bits:     append([]uint64(nil), j.bits...),
		large:    j.large.snapshot(),
		stats:    j.stats,
		initDone: j.initDone,
	}
	s.bytes = s.large.Bytes() + saStatsBytes + 8 + 1 // opts + initDone
	s.bytes += uint64(len(j.chunks)) * (3 * 8)
	for cls := range j.tcache {
		s.tcache[cls] = append([]uint64(nil), j.tcache[cls]...)
		s.runs[cls] = append([]int32(nil), j.runs[cls]...)
		s.bytes += uint64(len(j.tcache[cls]))*(8+8) + uint64(len(j.runs[cls]))*8
	}
	for i := range j.slab {
		if r := &j.slab[i]; r.capacity > 0 {
			s.bytes += 8 + jeRunSnapBytes + uint64(r.nfree)*2 + uint64(r.used)*16
		}
	}
	return s
}

// Restore implements Allocator.
func (j *JEMalloc) Restore(s AllocSnapshot) error {
	js, ok := s.(*jeSnapshot)
	if !ok {
		return errSnapshotType(j.Name(), s)
	}
	j.opts = js.opts
	j.chunks = append(j.chunks[:0], js.chunks...)
	for cls := range j.tcache {
		j.tcache[cls] = append(j.tcache[cls][:0], js.tcache[cls]...)
		j.runs[cls] = append(j.runs[cls][:0], js.runs[cls]...)
	}
	j.slab = append(j.slab[:0], js.slab...)
	j.free = append(j.free[:0], js.free...)
	j.bits = append(j.bits[:0], js.bits...)
	j.large.restore(js.large)
	j.stats = js.stats
	j.initDone = js.initDone
	return nil
}

// ---- Go runtime allocator ----

type goSnapshot struct {
	arenas  []goArena
	mcache  [goNumClasses][]int32
	spans   []goSpan
	free    []uint16
	bits    []uint64
	large   *largeSnapshot
	stats   Stats
	liveObj uint64
	bytes   uint64
}

func (*goSnapshot) allocSnapshot() {}

// goSpanSnapBytes covers one span's scalars: base, class, objSize,
// capacity, and used.
const goSpanSnapBytes = 5 * 8

// Bytes implements AllocSnapshot: arenas, the mcache lists, the carved
// spans with their free lists, the live objects, the embedded large-path
// snapshot, and the counters.
func (s *goSnapshot) Bytes() uint64 { return s.bytes }

// Snapshot implements Allocator.
func (g *GoAlloc) Snapshot() AllocSnapshot {
	s := &goSnapshot{
		arenas:  append([]goArena(nil), g.arenas...),
		spans:   append([]goSpan(nil), g.spans...),
		free:    append([]uint16(nil), g.free...),
		bits:    append([]uint64(nil), g.bits...),
		large:   g.large.snapshot(),
		stats:   g.stats,
		liveObj: g.liveObj,
	}
	s.bytes = s.large.Bytes() + saStatsBytes + 8 // liveObj
	s.bytes += uint64(len(g.arenas))*(2*8) + g.liveObj*16
	for cls := range g.mcache {
		s.mcache[cls] = append([]int32(nil), g.mcache[cls]...)
		s.bytes += uint64(len(g.mcache[cls])) * 8
	}
	for i := range g.spans {
		if sp := &g.spans[i]; sp.capacity > 0 {
			s.bytes += goSpanSnapBytes + uint64(sp.nfree)*2
		}
	}
	return s
}

// Restore implements Allocator.
func (g *GoAlloc) Restore(s AllocSnapshot) error {
	gs, ok := s.(*goSnapshot)
	if !ok {
		return errSnapshotType(g.Name(), s)
	}
	g.arenas = append(g.arenas[:0], gs.arenas...)
	for cls := range g.mcache {
		g.mcache[cls] = append(g.mcache[cls][:0], gs.mcache[cls]...)
	}
	g.spans = append(g.spans[:0], gs.spans...)
	g.free = append(g.free[:0], gs.free...)
	g.bits = append(g.bits[:0], gs.bits...)
	g.large.restore(gs.large)
	g.stats = gs.stats
	g.liveObj = gs.liveObj
	return nil
}
