package pagetable

import "testing"

// nopMem charges nothing; nextRun reads only the table.
type nopMem struct{}

func (nopMem) Access(pa uint64, write bool) uint64 { return 0 }

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
