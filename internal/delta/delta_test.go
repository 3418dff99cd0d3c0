package delta

import (
	"math/rand"
	"slices"
	"testing"
)

// snap is a test owner's snapshot: the frozen slice and nothing else.
type snap struct{ frozen []uint16 }

type array = Array[uint16, snap]

// capture is what an owner's Snapshot does: reuse a clean base, or capture
// a new one.
func capture(a *array) *snap {
	if s := a.Clean(); s != nil {
		return s
	}
	s := new(snap)
	s.frozen = a.Capture(s)
	return s
}

// filled returns an array of n elements holding 1, 2, ..., n.
func filled(n, block int) array {
	a := New[uint16, snap](n, block)
	for i := range a.Live {
		a.Live[i] = uint16(i + 1)
	}
	return a
}

// write sets element i to v and marks its block, as an owner does.
func write(a *array, i int, v uint16) {
	a.Live[i] = v
	a.Mark(i / a.block)
}

func checkRestore(t *testing.T, a *array, s *snap, elems, blocks int) {
	t.Helper()
	e, b := a.Restore(s, s.frozen)
	if e != elems || b != blocks {
		t.Fatalf("Restore copied %d elements in %d blocks, want %d in %d", e, b, elems, blocks)
	}
	if !slices.Equal(a.Live, s.frozen) {
		t.Fatalf("restored %v, want %v", a.Live, s.frozen)
	}
	if a.Clean() != s {
		t.Fatal("a restored array is not clean on its snapshot")
	}
}

// TestRunAcrossBitmapWord restores a run of dirty blocks that crosses from
// one 64-bit bitmap word into the next.
func TestRunAcrossBitmapWord(t *testing.T) {
	a := filled(200, 1)
	s := capture(&a)
	for i := 60; i <= 70; i++ {
		write(&a, i, 0)
	}
	write(&a, 199, 0)
	checkRestore(t, &a, s, 12, 12)
	if capture(&a) != s {
		t.Fatal("re-capture after restoring the base made a new handle")
	}
}

// TestPartialLastBlock restores a last block shorter than the block size,
// by delta and in full.
func TestPartialLastBlock(t *testing.T) {
	a := filled(10, 4)
	s := capture(&a)
	write(&a, 9, 0)
	checkRestore(t, &a, s, 2, 1)

	b := New[uint16, snap](10, 4)
	checkRestore(t, &b, s, 10, 3)
	write(&b, 0, 0)
	write(&b, 8, 0)
	checkRestore(t, &b, s, 6, 2)
}

// TestGrowThenTruncatingRestore grows an array past its base, dirties
// blocks on both sides of the base's length, restores the base and grows
// again: the restore copies only the block below the length, and the
// regrown tail reads zero, not what the first growth left there.
func TestGrowThenTruncatingRestore(t *testing.T) {
	a := filled(8, 4)
	s := capture(&a)
	a.Grow(20)
	if a.Clean() != nil {
		t.Fatal("growth left the array clean")
	}
	if !slices.Equal(a.Live[8:], make([]uint16, 12)) {
		t.Fatalf("grown tail %v, want zeros", a.Live[8:])
	}
	write(&a, 5, 99)
	write(&a, 15, 77)
	checkRestore(t, &a, s, 4, 1)
	a.Grow(16)
	if !slices.Equal(a.Live[8:], make([]uint16, 8)) {
		t.Fatalf("regrown tail %v, want zeros", a.Live[8:])
	}
	for b := 0; b < 4; b++ {
		if a.Dirty(b) {
			t.Fatalf("block %d still marked after the restore", b)
		}
	}
}

// refArray is the reference Array: every restore copies everything, and the
// marks are a set of block indices.
type refArray struct {
	live    []uint16
	block   int
	base    *snap
	changed bool
	marked  map[int]bool
}

func (r *refArray) blocks(n int) int { return (n + r.block - 1) / r.block }

func (r *refArray) rebase(s *snap) {
	r.base, r.changed = s, false
	clear(r.marked)
}

// restore returns the elements and blocks a delta restore must report.
func (r *refArray) restore(s *snap) (elems, blocks int) {
	n := len(s.frozen)
	if s != r.base {
		elems, blocks = n, r.blocks(n)
	} else {
		for b := range r.marked {
			if b*r.block < n {
				elems += min((b+1)*r.block, n) - b*r.block
				blocks++
			}
		}
	}
	r.live = slices.Clone(s.frozen)
	r.rebase(s)
	return elems, blocks
}

// FuzzArrayMatchesFullCopy drives an Array and a reference that copies
// everything on restore through random writes, touches, whole-array marks,
// growth, captures and restores of its own and of a donor's snapshots. After
// every step the contents, the clean handle and every dirty bit must agree;
// a capture must reuse the handle exactly when nothing changed, and each
// restore must report the elements and blocks the reference derives from
// its marks.
func FuzzArrayMatchesFullCopy(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{16, 200, 1000} {
		ops := make([]byte, n)
		rng.Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		block := 1 + next()%13
		a := New[uint16, snap](next(), block)
		r := &refArray{live: slices.Clone(a.Live), block: block, changed: true, marked: map[int]bool{}}
		// A donor of its own length supplies a foreign snapshot.
		donor := New[uint16, snap](next()*2, block)
		for i := range donor.Live {
			donor.Live[i] = uint16(next())
		}
		snaps := []*snap{capture(&donor)}
		for step := 0; len(ops) > 0; step++ {
			op, arg := next()%8, next()
			switch op {
			case 0, 1, 2:
				if len(a.Live) > 0 {
					i := (arg*7 + next()) % len(a.Live)
					write(&a, i, uint16(step))
					r.live[i] = uint16(step)
					r.marked[i/block], r.changed = true, true
				}
			case 3:
				a.Touch()
				r.changed = true
			case 4:
				n := len(a.Live) + arg%70
				a.Grow(n)
				if n > len(r.live) {
					r.live = append(r.live, make([]uint16, n-len(r.live))...)
					r.changed = true
				}
			case 5:
				if arg < 16 {
					a.MarkAll()
					for b := 0; b < r.blocks(len(r.live)); b++ {
						r.marked[b], r.changed = true, true
					}
				}
			case 6:
				reuse := !r.changed && r.base != nil
				s := capture(&a)
				if (s == r.base) != reuse {
					t.Fatalf("step %d: capture reused the handle: %v, want %v", step, s == r.base, reuse)
				}
				if !reuse {
					r.rebase(s)
					snaps = append(snaps, s)
				}
			case 7:
				s := snaps[arg%len(snaps)]
				we, wb := r.restore(s)
				if e, b := a.Restore(s, s.frozen); e != we || b != wb {
					t.Fatalf("step %d: Restore copied %d elements in %d blocks, want %d in %d", step, e, b, we, wb)
				}
			}
			if !slices.Equal(a.Live, r.live) {
				t.Fatalf("step %d (op %d): contents %v, want %v", step, op, a.Live, r.live)
			}
			want := r.base
			if r.changed {
				want = nil
			}
			if a.Clean() != want {
				t.Fatalf("step %d (op %d): clean handle %p, want %p", step, op, a.Clean(), want)
			}
			for b := 0; b <= r.blocks(len(r.live)); b++ {
				if a.Dirty(b) != r.marked[b] {
					t.Fatalf("step %d (op %d): block %d marked %v, want %v", step, op, b, a.Dirty(b), r.marked[b])
				}
			}
		}
	})
}
