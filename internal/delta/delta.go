// Package delta is the copy-on-restore bookkeeping the hardware models
// share: a slice tracked, in blocks of a fixed number of elements, against
// the frozen copy it was last captured to or restored from, so that a
// restore copies back only the blocks that changed (DESIGN.md §11).
package delta

import "math/bits"

// Array is a live slice of T divided into blocks of a fixed number of
// elements and tracked against its base: the frozen slice it was last
// captured to or restored from, named by the owner's snapshot handle of
// type *S. The owner marks the block of every element it writes (Mark) and
// reports a change to its own scalars with Touch; Restore of the base then
// copies back only the marked blocks. The last block may be partial, and
// the length may grow after a capture (Grow).
//
// Array meters nothing. Restore returns the elements and blocks it copied,
// and each owner prices them in its own units.
type Array[T, S any] struct {
	// Live is the current contents. The owner reads and writes elements in
	// place and marks the block of each element it writes; only Grow and
	// Restore change the length.
	Live  []T
	block int
	base  *S
	// clean reports no Mark, Touch or Grow since the base was established;
	// dirty has one bit per block marked since then.
	clean bool
	dirty []uint64
}

// New returns an array of n zero elements in blocks of block elements. It
// has no base until its first Capture or Restore.
func New[T, S any](n, block int) Array[T, S] {
	a := Array[T, S]{Live: make([]T, n), block: block}
	a.fit()
	return a
}

// fit sizes the dirty bitmap to cover every block of Live.
func (a *Array[T, S]) fit() {
	words := ((len(a.Live)+a.block-1)/a.block + 63) / 64
	if words > len(a.dirty) {
		a.dirty = append(a.dirty, make([]uint64, words-len(a.dirty))...)
	}
}

// Mark records that block diverged from the base.
func (a *Array[T, S]) Mark(block int) {
	a.dirty[uint(block)>>6] |= 1 << (uint(block) & 63)
	a.clean = false
}

// MarkAll marks every block.
func (a *Array[T, S]) MarkAll() {
	for b := 0; b*a.block < len(a.Live); b++ {
		a.Mark(b)
	}
}

// Touch records that the owner's scalars diverged from the base while no
// element did.
func (a *Array[T, S]) Touch() { a.clean = false }

// Clean returns the base handle while nothing changed since the base was
// established, and nil otherwise: re-capturing a clean array reuses the
// handle, and restoring its base copies nothing.
func (a *Array[T, S]) Clean() *S {
	if a.clean {
		return a.base
	}
	return nil
}

// Dirty reports whether block is marked. Tests use it to compare the
// bitmap against their oracles.
func (a *Array[T, S]) Dirty(block int) bool {
	w := block >> 6
	return w < len(a.dirty) && a.dirty[w]>>(block&63)&1 == 1
}

// Grow extends Live to n elements, the new ones zero. A delta restore cuts
// Live back to the base's length, so blocks past it are never copied.
func (a *Array[T, S]) Grow(n int) {
	if n <= len(a.Live) {
		return
	}
	a.Live = append(a.Live, make([]T, n-len(a.Live))...)
	a.fit()
	a.clean = false
}

// Capture copies Live into a new frozen slice for the owner's snapshot h
// and makes h the base. The owner checks Clean first to reuse an unchanged
// base.
func (a *Array[T, S]) Capture(h *S) []T {
	frozen := append([]T(nil), a.Live...)
	a.rebase(h)
	return frozen
}

// rebase makes h, whose frozen slice equals Live, the base.
func (a *Array[T, S]) rebase(h *S) {
	a.base = h
	a.clean = true
	clear(a.dirty)
}

// Restore makes Live equal frozen, the slice of the owner's snapshot h, and
// returns the number of elements and of blocks it copied. When h is the
// base, Live is cut to len(frozen) and only the marked blocks below that
// length are copied, each run of consecutive marked blocks with one copy.
// Any other h is copied in full and becomes the base.
func (a *Array[T, S]) Restore(h *S, frozen []T) (elems, blocks int) {
	if h != a.base {
		a.Live = append(a.Live[:0], frozen...)
		a.fit()
		a.rebase(h)
		return len(frozen), (len(frozen) + a.block - 1) / a.block
	}
	n := len(frozen)
	a.Live = a.Live[:n]
	for wi, word := range a.dirty {
		for word != 0 {
			lo := bits.TrailingZeros64(word)
			run := bits.TrailingZeros64(^(word >> lo))
			word &^= (1<<run - 1) << lo
			from := (wi<<6 + lo) * a.block
			if from >= n {
				continue
			}
			to := from + run*a.block
			if to > n {
				to, run = n, (n-from+a.block-1)/a.block
			}
			copy(a.Live[from:to], frozen[from:to])
			elems += to - from
			blocks += run
		}
		a.dirty[wi] = 0
	}
	a.clean = true
	return elems, blocks
}
