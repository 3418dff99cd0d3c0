package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"memento/internal/config"
	"memento/internal/dram"
)

// streamZero is the per-line zeroing StreamZeroPage replaced, kept as its
// oracle: drop the line from every level, then post its write to DRAM.
func (h *Hierarchy) streamZero(pa uint64) uint64 {
	h.DropLine(pa)
	return h.Mem.Write(pa>>config.LineShift<<config.LineShift) / streamMLP
}

// streamZeroPerLine zeroes the page at pa one line at a time.
func (h *Hierarchy) streamZeroPerLine(pa uint64) uint64 {
	var cycles uint64
	for off := uint64(0); off < config.PageSize; off += config.LineSize {
		cycles += h.streamZero(pa + off)
	}
	return cycles
}

// zeroGeometries are the machines the zeroing oracle runs on: Table 3, and
// a small hierarchy whose sets each hold several lines of one page.
func zeroGeometries() []config.Machine {
	small := config.Default()
	small.L1D = config.CacheConfig{Name: "L1D", SizeBytes: 8 * 2 * config.LineSize, Ways: 2, LatencyCycles: 4}
	small.L2 = config.CacheConfig{Name: "L2", SizeBytes: 16 * 4 * config.LineSize, Ways: 4, LatencyCycles: 14}
	small.LLC = config.CacheConfig{Name: "LLC", SizeBytes: 32 * 8 * config.LineSize, Ways: 8, LatencyCycles: 40}
	return []config.Machine{config.Default(), small}
}

// zeroPages is the page universe of the oracle, so zeroed pages are both
// above every level's watermark and below it, and accessed lines collide.
const zeroPages = 8

// diffHierarchy names the first difference between two hierarchies: each
// level's lines, counters, fill memo, dirty bitmap, clean flag and
// watermark, the hierarchy counters, and the DRAM model's open rows, bank
// streak and counters.
func diffHierarchy(a, b *Hierarchy) string {
	for i, lv := range [][2]*Cache{{a.L1D, b.L1D}, {a.L2, b.L2}, {a.LLC, b.LLC}} {
		x, y := lv[0], lv[1]
		switch {
		case !slices.Equal(x.lines.Live, y.lines.Live):
			return fmt.Sprintf("level %d lines", i)
		case x.hits != y.hits || x.misses != y.misses:
			return fmt.Sprintf("level %d counters", i)
		case x.memoOK != y.memoOK || x.memoLine != y.memoLine:
			return fmt.Sprintf("level %d fill memo", i)
		case !sameMarks(x, y):
			return fmt.Sprintf("level %d dirty bitmap or clean flag", i)
		case x.hi != y.hi:
			return fmt.Sprintf("level %d watermark %d vs %d", i, x.hi, y.hi)
		}
	}
	if a.stats != b.stats {
		return "hierarchy counters"
	}
	if !reflect.DeepEqual(a.Mem, b.Mem) {
		return fmt.Sprintf("DRAM state %+v vs %+v", a.Mem.Stats(), b.Mem.Stats())
	}
	return ""
}

// zeroOracle drives two hierarchies, each on its own DRAM, through the
// operation stream in ops. They differ only in how a page is zeroed:
// StreamZeroPage on one, the per-line loop on the other. Every operation
// must return the same values and leave the same state.
func zeroOracle(t *testing.T, geo uint8, ops []byte) {
	m := zeroGeometries()[int(geo)%2]
	fast, slow := NewHierarchy(m, dram.New(m.DRAM)), NewHierarchy(m, dram.New(m.DRAM))
	// A donor of the same geometry supplies a foreign snapshot with dirty
	// lines on every page.
	donor := NewHierarchy(m, dram.New(m.DRAM))
	for p := uint64(0); p < zeroPages; p++ {
		for off := uint64(0); off < config.PageSize; off += 5 * config.LineSize {
			donor.Access(p<<config.PageShift+off, off&config.LineSize != 0)
		}
	}
	type snap struct{ fh, sh *HierarchySnapshot }
	snaps := []snap{{donor.Snapshot(), donor.Snapshot()}}
	dsnap := donor.Mem.Snapshot()

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
		page := uint64(arg) % zeroPages
		pa := page<<config.PageShift | uint64(next())%(config.PageSize/config.LineSize)<<config.LineShift
		write := arg&0x80 != 0
		var what string
		var cf, cs uint64
		switch op % 8 {
		case 0:
			what = "Access"
			cf, cs = fast.Access(pa, write), slow.Access(pa, write)
		case 1:
			what = "InstallZero"
			cf, cs = fast.InstallZero(pa, write), slow.InstallZero(pa, write)
		case 2:
			what = "FlushLine"
			cf, cs = fast.FlushLine(pa), slow.FlushLine(pa)
		case 3:
			// A level lookup leaves a fill memo for the zeroing to clear.
			what = "level Lookup"
			la := pa >> config.LineShift
			lv := [3]func(*Hierarchy) *Cache{
				func(h *Hierarchy) *Cache { return h.L1D },
				func(h *Hierarchy) *Cache { return h.L2 },
				func(h *Hierarchy) *Cache { return h.LLC },
			}[arg%3]
			if lv(fast).Lookup(la, write) != lv(slow).Lookup(la, write) {
				t.Fatalf("step %d: Lookup(%d) differs", step, la)
			}
		case 4:
			what = "Snapshot"
			snaps = append(snaps, snap{fast.Snapshot(), slow.Snapshot()})
		case 5:
			what = "Restore"
			i := int(arg) % len(snaps)
			cf, cs = fast.Restore(snaps[i].fh), slow.Restore(snaps[i].sh)
			if i == 0 {
				// The foreign snapshot carries its DRAM state too.
				fast.Mem.Restore(dsnap)
				slow.Mem.Restore(dsnap)
			}
		default:
			what = "StreamZeroPage"
			cf, cs = fast.StreamZeroPage(pa), slow.streamZeroPerLine(page<<config.PageShift)
		}
		if cf != cs {
			t.Fatalf("step %d: %s(%#x) = %d cycles, per-line oracle %d", step, what, pa, cf, cs)
		}
		if d := diffHierarchy(fast, slow); d != "" {
			t.Fatalf("step %d (%s of %#x): %s differs from the per-line oracle", step, what, pa, d)
		}
	}
}

// FuzzStreamZeroPage checks page-granular zeroing against the per-line
// drop-and-write it replaced, on random access, fill, flush, lookup,
// snapshot and restore sequences: cycles, every level's lines, counters,
// memo, dirty bitmap, clean flag and watermark, and the DRAM state.
func FuzzStreamZeroPage(f *testing.F) {
	// Ops are (op, arg, line) triples: op 6 and 7 zero page arg%8.
	f.Add(uint8(0), []byte{6, 0, 0, 6, 7, 0})                                     // pages above every watermark
	f.Add(uint8(1), []byte{0, 3, 9, 6, 1, 0, 6, 3, 0})                            // below the watermark but absent, then present
	f.Add(uint8(1), []byte{0, 0x82, 1, 0, 0x82, 2, 1, 0x82, 7, 6, 2, 0})          // present dirty lines
	f.Add(uint8(0), []byte{0, 0x81, 0, 4, 0, 0, 5, 0, 0, 6, 4, 0, 6, 1, 0})       // foreign restore, then zero
	f.Add(uint8(1), []byte{0, 5, 3, 4, 0, 0, 0, 6, 4, 6, 6, 0, 5, 1, 0, 7, 5, 0}) // zero, restore the base, zero again
	f.Add(uint8(0), []byte{3, 0x84, 5, 7, 4, 0})                                  // a level's fill memo before zeroing
	f.Add(uint8(0), []byte{0, 3, 0, 6, 3, 0})                                     // the watermark is the page's first line
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		ops := make([]byte, 3*(8+rng.Intn(64)))
		rng.Read(ops)
		f.Add(uint8(i), ops)
	}
	f.Fuzz(zeroOracle)
}
