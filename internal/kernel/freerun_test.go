package kernel

import (
	"math/rand"
	"reflect"
	"testing"
)

// freeRunCase replays one op stream on two buddy allocators: allocations
// (mostly single frames, so long runs of allocated order-0 blocks form) and
// single frees, then a checkpoint, then one run [start, start+n) freed by
// FreeRun on one side and by ascending Free calls (stopping at the first
// error) on the other. The run may cover free frames, larger blocks and
// untracked offsets, so the fallback and error paths are exercised too.
// It returns how many blocks of two or more frames FreeRun took at once.
func freeRunCase(t *testing.T, ops []byte) (multi int) {
	t.Helper()
	fast, slow := NewBuddy(64, 4096), NewBuddy(64, 4096)
	var live []uint64
	i := 0
	next := func() byte {
		if i >= len(ops) {
			return 0
		}
		i++
		return ops[i-1]
	}
	for steps := int(next()) + 1; steps > 0 && i < len(ops); steps-- {
		op := next()
		switch {
		case op < 160:
			order := 0
			if op >= 144 {
				order = int(op % 4)
			}
			n := 1 + int(next()%32)
			for ; n > 0; n-- {
				ff, okf := fast.Alloc(order)
				fs, oks := slow.Alloc(order)
				if ff != fs || okf != oks {
					t.Fatalf("alloc diverged: %d,%v vs %d,%v", ff, okf, fs, oks)
				}
				if okf {
					live = append(live, ff)
				}
			}
		case len(live) > 0:
			j := int(next()) % len(live)
			if ef, es := fast.Free(live[j]), slow.Free(live[j]); (ef == nil) != (es == nil) {
				t.Fatalf("free diverged: %v vs %v", ef, es)
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	fast.snapshot()
	slow.snapshot()

	var start uint64
	if len(live) > 0 {
		start = live[int(next())%len(live)] - uint64(next()%4)
	} else {
		start = 64 + uint64(next())
	}
	n := 1 + uint64(next())%200
	for off := start - fast.base; off < start-fast.base+n; {
		k := 0
		for k < MaxOrder && off&(2<<k-1) == 0 && off+2<<k <= start-fast.base+n {
			k++
		}
		if k > 0 && fast.allocatedSingles(fast.base+off, 1<<k) {
			multi++
		}
		off += 1 << k
	}
	errFast := fast.FreeRun(start, n)
	var errSlow error
	for f := start; f < start+n && errSlow == nil; f++ {
		errSlow = slow.Free(f)
	}
	if (errFast == nil) != (errSlow == nil) || (errFast != nil && errFast.Error() != errSlow.Error()) {
		t.Fatalf("FreeRun(%d, %d) = %v, ascending Free = %v", start, n, errFast, errSlow)
	}
	equalBuddies(t, fast, slow)
	return multi
}

// equalBuddies compares everything a later operation or restore can read:
// the states, each free list in order, the heads' prev links, the counters,
// and the dirty windows. (prev and next elsewhere are stale scratch.)
func equalBuddies(t *testing.T, fast, slow *Buddy) {
	t.Helper()
	if fast.freeFrames != slow.freeFrames || fast.watermark != slow.watermark || fast.head != slow.head {
		t.Fatalf("counters or heads diverge: free %d/%d watermark %d/%d heads %v/%v",
			fast.freeFrames, slow.freeFrames, fast.watermark, slow.watermark, fast.head, slow.head)
	}
	if !reflect.DeepEqual(fast.state, slow.state) {
		t.Fatal("block states diverge")
	}
	for o := 0; o <= MaxOrder; o++ {
		f, s := fast.head[o], slow.head[o]
		if f != noFrame && fast.prev[f] != slow.prev[s] {
			t.Fatalf("order %d head prev %d vs %d", o, fast.prev[f], slow.prev[s])
		}
		for f != noFrame || s != noFrame {
			if f != s {
				t.Fatalf("order %d list diverges at %d vs %d", o, f, s)
			}
			f, s = fast.next[f], slow.next[s]
		}
	}
	if !reflect.DeepEqual(fast.dirty, slow.dirty) || fast.clean != slow.clean {
		t.Fatal("dirty windows diverge")
	}
	if err := fast.checkIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestFreeRunMatchesFrees checks FreeRun against ascending Free calls over
// 3000 random buddy states.
func TestFreeRunMatchesFrees(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	multi := 0
	for c := 0; c < 3000; c++ {
		ops := make([]byte, 8+rng.Intn(120))
		rng.Read(ops)
		multi += freeRunCase(t, ops)
	}
	if multi < 500 {
		t.Errorf("only %d multi-frame blocks freed at once; the cases miss the fast path", multi)
	}
}

// FuzzFreeRunMatchesFrees is TestFreeRunMatchesFrees driven by the fuzzer.
func FuzzFreeRunMatchesFrees(f *testing.F) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 16; i++ {
		ops := make([]byte, 8+rng.Intn(120))
		rng.Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		freeRunCase(t, ops)
	})
}
