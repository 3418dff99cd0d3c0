package tlb

import (
	"math/rand"
	"reflect"
	"testing"

	"memento/internal/config"
	"memento/internal/simerr"
)

// translateFull is Translate without the same-page reuse, the reference it
// is checked against: every translation looks up L1, then L2, then walks.
func (s *System) translateFull(vpn uint64, w Walker) (pfn uint64, cycles uint64, err error) {
	cycles = s.L1.Latency()
	var ok bool
	if pfn, ok = s.L1.Lookup(vpn); ok {
		s.stats.L1Hits++
		return pfn, cycles, nil
	}
	s.stats.L1Misses++
	cycles += s.L2.Latency()
	if pfn, ok = s.L2.Lookup(vpn); ok {
		s.stats.L2Hits++
		s.L1.Insert(vpn, pfn)
		return pfn, cycles, nil
	}
	s.stats.L2Misses++
	pfn, walkCycles, err := w.Walk(vpn)
	s.stats.Walks++
	s.stats.WalkCycles += walkCycles
	cycles += walkCycles
	if err != nil {
		return 0, cycles, err
	}
	s.L2.Insert(vpn, pfn)
	s.L1.Insert(vpn, pfn)
	return pfn, cycles, nil
}

// remapWalker maps vpn to vpn*3+gen, fails every seventh VPN, and shoots
// down shoot (when set) in the middle of every walk, as a fault that
// unmaps a page would. Bumping gen remaps every page.
type remapWalker struct {
	s     *System
	gen   uint64
	shoot *uint64
}

func (w *remapWalker) Walk(vpn uint64) (uint64, uint64, error) {
	if w.shoot != nil {
		w.s.Shootdown(*w.shoot)
	}
	if vpn%7 == 3 {
		return 0, 30, simerr.ErrSegfault
	}
	return vpn*3 + w.gen, 30 + vpn%5, nil
}

// TestTranslateReuseMatchesLookups interleaves translations (runs of
// repeats on one page among others), shootdowns, flushes, walks that shoot
// a page down, snapshots and restores (own and foreign) on two systems,
// one translating through Translate and one through full L1/L2 lookups.
// Every result and the full TLB state must agree after each operation.
func TestTranslateReuseMatchesLookups(t *testing.T) {
	m := config.Default()
	// Small levels so repeats alternate with evictions of the repeated page.
	m.TLB1 = config.TLBConfig{Name: "L1", Entries: 8, Ways: 2, LatencyCycles: 1}
	m.TLB2 = config.TLBConfig{Name: "L2", Entries: 32, Ways: 4, LatencyCycles: 7}
	donor := NewSystem(m)
	for vpn := uint64(0); vpn < 64; vpn += 3 {
		donor.translateFull(vpn, &remapWalker{s: donor, gen: 5})
	}
	foreign := donor.Snapshot()

	rng := rand.New(rand.NewSource(3))
	for run := 0; run < 50; run++ {
		fast, ref := NewSystem(m), NewSystem(m)
		var shoot uint64
		wf := &remapWalker{s: fast}
		wr := &remapWalker{s: ref}
		snaps := [][2]*SystemSnapshot{{foreign, foreign}}
		vpn := uint64(0)
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(20); {
			case op < 12:
				// Mostly the same page again, else a nearby one.
				if rng.Intn(3) == 0 {
					vpn = uint64(rng.Intn(48))
				}
				pf, cf, ef := fast.Translate(vpn, wf)
				pr, cr, er := ref.translateFull(vpn, wr)
				if pf != pr || cf != cr || (ef == nil) != (er == nil) {
					t.Fatalf("run %d step %d: Translate(%d) = %d,%d,%v, full lookups %d,%d,%v",
						run, step, vpn, pf, cf, ef, pr, cr, er)
				}
			case op < 14:
				v := uint64(rng.Intn(48))
				fast.Shootdown(v)
				ref.Shootdown(v)
			case op < 15:
				fast.FlushAll()
				ref.FlushAll()
			case op < 16:
				// The next walks shoot down a page, or stop doing so.
				if wf.shoot == nil {
					shoot = uint64(rng.Intn(48))
					wf.shoot, wr.shoot = &shoot, &shoot
				} else {
					wf.shoot, wr.shoot = nil, nil
				}
			case op < 17:
				wf.gen++
				wr.gen++
			case op < 18:
				snaps = append(snaps, [2]*SystemSnapshot{fast.Snapshot(), ref.Snapshot()})
			default:
				p := snaps[rng.Intn(len(snaps))]
				if bf, br := fast.Restore(p[0]), ref.Restore(p[1]); bf != br {
					t.Fatalf("run %d step %d: Restore copied %d bytes, reference %d", run, step, bf, br)
				}
			}
			if fast.stats != ref.stats || !reflect.DeepEqual(fast.L1, ref.L1) || !reflect.DeepEqual(fast.L2, ref.L2) {
				t.Fatalf("run %d step %d: TLB state diverges from full lookups", run, step)
			}
		}
	}
}
