package pagetable

import (
	"slices"
	"testing"

	"memento/internal/config"
)

// nopMem charges nothing; nextRun reads only the table.
type nopMem struct{}

func (nopMem) Access(pa uint64, write bool) uint64 { return 0 }

// hitAll accepts every repeat as free L1 hits, so ClearRange takes its
// fast-forward path.
type hitAll struct{}

func (hitAll) RepeatHits(pas []uint64, writes, rounds uint64) (uint64, bool) { return 0, true }

// TestNextRun pins the run boundaries the teardown walk of both stacks
// (munmap and FreeArena) clears by: zero PTEs up to the next present one or
// the leaf's end, present PTEs up to the end of their 64-byte line, and a
// missing table up to the end of its block.
func TestNextRun(t *testing.T) {
	tab := New(&FreeList{}, nil)
	frame := uint64(100)
	alloc := func() (uint64, uint64, error) {
		frame++
		return frame, 0, nil
	}
	base := uint64(3) << 27 // a fresh level-2 block: no tables yet
	vpns := []uint64{base + 1, base + 1024 + 3}
	for vpn := base + 1536 + 6; vpn < base+1536+16; vpn++ {
		vpns = append(vpns, vpn)
	}
	for _, vpn := range vpns {
		if _, err := tab.Install(vpn, 7, nopMem{}, alloc); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		vpn, end, n uint64
		m           int
		present     bool
	}{
		{base, base + 2048, 1, 3, false},
		{base + 1, base + 2048, 1, 4, true},
		{base + 2, base + 2048, 510, 3, false},
		{base + 512, base + 2048, 512, 3, false}, // missing leaf
		{base + 600, base + 700, 100, 3, false},  // cut at the range's end
		{base + 1024, base + 2048, 3, 3, false},
		{base + 1027, base + 2048, 1, 4, true},
		{base + 1536 + 6, base + 2048, 2, 4, true}, // cut at the PTE line's end
		{base + 1536 + 8, base + 2048, 8, 4, true},
		{base + 1536 + 16, base + 2048, 496, 3, false},
		{base + 1<<18, base + 3<<18, 1 << 18, 2, false}, // missing level-2 table
	} {
		n, m, leaf := tab.nextRun(c.vpn, c.end)
		if n != c.n || m != c.m || (leaf != nil) != c.present {
			t.Errorf("nextRun(base+%d): n=%d m=%d present=%v, want n=%d m=%d present=%v",
				c.vpn-base, n, m, leaf != nil, c.n, c.m, c.present)
		}
	}
}

// TestLargestFrameRoundTrips maps config.MaxPTEFrame, the largest frame a
// 32-bit leaf entry holds (pfn+1 = 2^32-1), and the frames just below it,
// and reads them back through every path that decodes an entry: Walk,
// Clear, ClearRange (per VPN, and fast-forwarded within a PTE line) and
// Drop.
func TestLargestFrameRoundTrips(t *testing.T) {
	const top = config.MaxPTEFrame
	frame := uint64(100)
	alloc := func() (uint64, uint64, error) {
		frame++
		return frame, 0, nil
	}
	base := uint64(5) << 27
	for _, rep := range []HitRepeater{nil, hitAll{}} {
		tab := New(&FreeList{}, nil)
		for i := uint64(0); i < ptesPerLine; i++ {
			if _, err := tab.Install(base+i, top-i, nopMem{}, alloc); err != nil {
				t.Fatal(err)
			}
		}
		for i := uint64(0); i < ptesPerLine; i++ {
			if pfn, _, ok := tab.Walk(base+i, nopMem{}); !ok || pfn != top-i {
				t.Fatalf("Walk(base+%d) = %d, %v; want %d", i, pfn, ok, uint64(top-i))
			}
		}
		if pfn, _, ok := tab.Clear(base, nopMem{}); !ok || pfn != top {
			t.Fatalf("Clear(base) = %d, %v; want %d", pfn, ok, uint64(top))
		}
		cleared := 0
		_, err := tab.ClearRange(base+1, base+ptesPerLine, nopMem{}, rep, func(vpn, pfn uint64) (uint64, error) {
			if want := top - (vpn - base); pfn != want {
				t.Errorf("ClearRange (repeater %v) handed vpn base+%d frame %d, want %d", rep != nil, vpn-base, pfn, want)
			}
			cleared++
			return 0, nil
		})
		if err != nil || cleared != ptesPerLine-1 {
			t.Fatalf("ClearRange (repeater %v) cleared %d pages (%v), want %d", rep != nil, cleared, err, ptesPerLine-1)
		}
		if _, err := tab.Install(base, top, nopMem{}, alloc); err != nil {
			t.Fatal(err)
		}
		if frames := tab.Drop(nil); !slices.Contains(frames, top) {
			t.Fatalf("Drop returned %v, missing frame %d", frames, uint64(top))
		}
	}
}
