package fleet

import (
	"math/rand"
	"reflect"
	"testing"

	"memento/internal/config"
	"memento/internal/machine"
)

// newIndexEngine builds a bare engine around an empty cluster, the way
// Run does, so tests can drive the mutation primitives (warmAdd,
// warmRemove, setRunning, setUsed) directly and cross-check the indexes
// against the reference scans on arbitrary states.
func newIndexEngine(hosts, cores, perCore int, memPages uint64, workloads []string) *engine {
	costs := make([]Cost, len(workloads))
	for i := range costs {
		costs[i] = Cost{RunCycles: 1, FootprintPages: 10}
	}
	e := newEngine(Hosts{Count: hosts, Cores: cores, MemPages: memPages}, perCore, workloads, costs)
	e.res = &Result{}
	return e
}

// TestIndexedAccessorsDifferential generates seeded randomized cluster
// states through the engine's own mutation primitives and checks, at
// every state, that each indexed accessor (LeastLoadedHost, BestWarmHost,
// WarmFreshest, OldestWarm) agrees with its retained reference linear
// scan on (host, warm index, victim). Ties are made common on purpose:
// the clock often stalls (equal IdleSince across and within hosts) and
// used pages snap to a coarse grid (equal free-pages tie-breaks).
func TestIndexedAccessorsDifferential(t *testing.T) {
	workloads := []string{"wa", "wb", "wc", "wd"}
	rng := rand.New(rand.NewSource(42))
	states := 0
	for trial := 0; trial < 30; trial++ {
		hosts := 1 + rng.Intn(13)
		cores := 1 + rng.Intn(3)
		perCore := 1 + rng.Intn(2)
		memPages := uint64(1000)
		e := newIndexEngine(hosts, cores, perCore, memPages, workloads)
		clock := uint64(0)
		for step := 0; step < 50; step++ {
			h := rng.Intn(hosts)
			host := &e.c.hosts[h]
			switch rng.Intn(6) {
			case 0, 1: // idle a new warm instance; clock may stall for ties
				if rng.Intn(3) > 0 {
					clock += uint64(rng.Intn(3))
				}
				e.c.now = clock
				e.warmAdd(h, warmInst{
					wid: int32(rng.Intn(len(workloads))), pages: 10, idleSince: clock, expireAt: NoExpiry,
				})
			case 2: // consume or evict a random pool entry
				if n := e.c.WarmCount(h); n > 0 {
					e.warmRemove(h, rng.Intn(n))
				}
			case 3: // dispatch / complete
				if rng.Intn(2) == 0 && host.running < cores*perCore {
					e.setRunning(h, 1)
				} else if host.running > 0 {
					e.setRunning(h, -1)
				}
			case 4, 5: // charge / release memory on a coarse tie-prone grid
				delta := int64(100 * (rng.Intn(5) - 2))
				if next := int64(host.used) + delta; next >= 0 && next <= int64(memPages) {
					e.setUsed(h, delta)
				}
			}
			if err := e.verifyIndexes(); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			states++
		}
	}
	if states < 1000 {
		t.Fatalf("differential check covered %d states, want >= 1000", states)
	}
}

// TestWarmRingHeadCompaction drives the warm pool's head-indexed ring
// through its compaction paths — long head-pop streaks (LRU victims) with
// interleaved middle removals (warm consumes) — and verifies the indexes
// after every mutation.
func TestWarmRingHeadCompaction(t *testing.T) {
	e := newIndexEngine(1, 4, 1, 1_000_000, []string{"wa", "wb"})
	add := func(w int32, idle uint64) {
		e.c.now = idle
		e.warmAdd(0, warmInst{wid: w, pages: 1, idleSince: idle, expireAt: NoExpiry})
	}
	for i := 0; i < 300; i++ {
		w := int32(0)
		if i%3 == 0 {
			w = 1
		}
		add(w, uint64(i/2)) // every other pair ties on idleSince
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 280; i++ {
		n := e.c.WarmCount(0)
		idx := 0 // LRU victim: head pop
		if i%4 == 0 {
			idx = rng.Intn(n) // warm consume: middle splice
		}
		e.warmRemove(0, idx)
		if err := e.verifyIndexes(); err != nil {
			t.Fatalf("removal %d: %v", i, err)
		}
	}
	host := &e.c.hosts[0]
	if len(host.warm)-host.whead != 20 {
		t.Fatalf("pool size = %d, want 20", len(host.warm)-host.whead)
	}
	if host.whead >= 128 {
		t.Fatalf("ring never compacted: whead = %d", host.whead)
	}
}

// TestPendingRingFIFOAndCapacityRelease pins the pending-queue fix: the
// head-indexed ring preserves FIFO order through its compactions, and a
// fully drained queue releases its backing array instead of pinning the
// burst-peak capacity for the rest of the run (the old
// `pending = pending[1:]` reslice kept the whole array reachable).
func TestPendingRingFIFOAndCapacityRelease(t *testing.T) {
	var q pendingRing
	const n = 5000
	next := 0
	for i := 0; i < n; i++ {
		q.push(Invocation{ID: i})
		// Interleaved partial drains exercise the mid-stream compaction.
		if i%3 == 2 {
			if got := q.front().ID; got != next {
				t.Fatalf("front = %d, want %d", got, next)
			}
			q.pop()
			next++
		}
	}
	for q.len() > 0 {
		if got := q.front().ID; got != next {
			t.Fatalf("front = %d, want %d", got, next)
		}
		q.pop()
		next++
	}
	if next != n {
		t.Fatalf("drained %d invocations, want %d", next, n)
	}
	if q.buf != nil {
		t.Fatalf("drained queue retains cap %d; want backing array released", cap(q.buf))
	}

	// A small queue keeps its (bounded) capacity for reuse instead of
	// reallocating on every burst.
	for i := 0; i < 4; i++ {
		q.push(Invocation{ID: i})
	}
	for q.len() > 0 {
		q.pop()
	}
	if cap(q.buf) == 0 || cap(q.buf) > 64 {
		t.Fatalf("small drained queue cap = %d, want reused capacity in (0, 64]", cap(q.buf))
	}
}

// TestEngineDifferentialRandomized is the tentpole's differential gate at
// whole-run granularity: on randomized seeded clusters — every arrival
// pattern, shipped policy, tight and loose memory, exclusive and
// time-shared cores — the indexed engine and the retained reference-scan
// engine must produce deeply equal Results, eviction log included.
func TestEngineDifferentialRandomized(t *testing.T) {
	policies := []func() Policy{
		AlwaysCold,
		func() Policy { return KeepAlive(40_000_000) },
		LRU,
	}
	// Equal footprints everywhere make free-pages ties constant; the
	// staticCosts mix makes them rare. Both backends are exercised.
	flat := &StaticBackend{Default: Cost{
		RunCycles: 9_000_000, SetupCycles: 2_000_000, ColdExtraCycles: 2_000_000,
		FootprintPages: 800, SharedPages: 600, RestoreBytes: 100, SnapshotBytes: 4000,
	}}
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 12; trial++ {
		hosts := Hosts{
			Count:    1 + rng.Intn(6),
			Cores:    1 + rng.Intn(3),
			MemPages: uint64(2000 + rng.Intn(4)*2000),
		}
		n := 150 + rng.Intn(150)
		gap := uint64(2_000_000 + rng.Intn(5)*1_000_000)
		seed := rng.Int63n(1000) + 1
		var arr Arrivals
		switch trial % 3 {
		case 0:
			arr = Poisson(n, gap, seed)
		case 1:
			arr = Bursty(n, gap, seed)
		default:
			arr = Diurnal(n, gap, seed)
		}
		opts := []Option{WithArrivals(arr), WithHosts(hosts), WithPolicy(policies[trial%len(policies)]())}
		if trial%4 == 3 {
			opts = append(opts, WithTimeShare(2, 1500))
		}
		var be Backend = staticCosts()
		if trial%2 == 1 {
			be = flat
		}
		opts = append(opts, WithBackend(be))

		indexed, err := New(config.Default(), opts...).Run(machine.Memento)
		if err != nil {
			t.Fatalf("trial %d (indexed): %v", trial, err)
		}
		ref, err := New(config.Default(), append(opts, WithReferenceScans())...).Run(machine.Memento)
		if err != nil {
			t.Fatalf("trial %d (reference): %v", trial, err)
		}
		if !reflect.DeepEqual(indexed, ref) {
			t.Fatalf("trial %d (%s, %d hosts, pattern %s): indexed engine diverges from reference scans\nindexed: %+v\nreference: %+v",
				trial, indexed.Policy, hosts.Count, indexed.Pattern, indexed, ref)
		}
	}
}

// TestWithoutLatencies: dropping the raw sample vector must not change a
// single aggregate — same percentiles, mean, memory, and eviction log —
// only Latencies goes nil.
func TestWithoutLatencies(t *testing.T) {
	opts := []Option{
		WithArrivals(Poisson(300, 4_000_000, 6)),
		WithHosts(Hosts{Count: 2, Cores: 2, MemPages: 2400}),
		WithPolicy(LRU()),
		WithBackend(staticCosts()),
	}
	full, err := New(config.Default(), opts...).Run(machine.Memento)
	if err != nil {
		t.Fatal(err)
	}
	lean, err := New(config.Default(), append(opts, WithoutLatencies())...).Run(machine.Memento)
	if err != nil {
		t.Fatal(err)
	}
	if lean.Latencies != nil {
		t.Fatalf("WithoutLatencies kept %d samples", len(lean.Latencies))
	}
	if len(full.Latencies) != full.Invocations {
		t.Fatalf("full run kept %d of %d samples", len(full.Latencies), full.Invocations)
	}
	full.Latencies = nil
	if !reflect.DeepEqual(full, lean) {
		t.Fatalf("WithoutLatencies changed aggregates:\nfull: %+v\nlean: %+v", full, lean)
	}
}

// TestTreesAgainstScans checks the least-loaded 8-ary tournament tree and
// a warm heap against linear scans at host counts around the tree's
// fan-out edges (a lone leaf, one partial node, exactly one full node, one
// past it) and at scale. Keys are drawn from tiny ranges so running
// counts, free pages and idle times tie constantly, and eligibility flips
// often. After every update best() must equal the scan. Every internal
// tree node must equal its children's winner by a plain left-to-right
// scan, so the early exits never leave an ancestor stale; the heap must
// hold exactly the eligible hosts, every parent must beat its children,
// and pos must invert it.
func TestTreesAgainstScans(t *testing.T) {
	type llLeaf struct {
		running  int
		free     uint64
		eligible bool
	}
	type warmLeaf struct {
		idle     uint64
		eligible bool
	}
	for _, hosts := range []int{1, 7, 8, 9, 64, 1000, 10000} {
		rng := rand.New(rand.NewSource(int64(hosts)))
		ll, warm := newLLTree(hosts), newWarmHeap(hosts)
		lls, warms := make([]llLeaf, hosts), make([]warmLeaf, hosts)
		for h := range lls {
			lls[h] = llLeaf{free: 100, eligible: true}
			ll.update(h, 0, 100, true)
		}
		for step := 0; step < 3000; step++ {
			// Mostly touch a small hot set so updates collide and tie.
			h := rng.Intn(hosts)
			if rng.Intn(2) == 0 {
				h = rng.Intn(min(hosts, 20))
			}
			lls[h] = llLeaf{running: rng.Intn(3), free: uint64(100 * rng.Intn(3)), eligible: rng.Intn(4) > 0}
			ll.update(h, lls[h].running, lls[h].free, lls[h].eligible)
			warms[h] = warmLeaf{idle: uint64(rng.Intn(4)), eligible: rng.Intn(3) > 0}
			warm.update(h, warms[h].idle, warms[h].eligible)

			wantLL := -1
			for i, l := range lls {
				if l.eligible && (wantLL < 0 || l.running < lls[wantLL].running ||
					(l.running == lls[wantLL].running && l.free > lls[wantLL].free)) {
					wantLL = i
				}
			}
			if got := ll.best(); got != wantLL {
				t.Fatalf("%d hosts, step %d: llTree best = %d, scan = %d", hosts, step, got, wantLL)
			}
			wantWarm, eligible := -1, 0
			for i, w := range warms {
				if w.eligible {
					eligible++
					if wantWarm < 0 || w.idle > warms[wantWarm].idle {
						wantWarm = i
					}
				}
			}
			if got := warm.best(); got != wantWarm {
				t.Fatalf("%d hosts, step %d: warmHeap best = %d, scan = %d", hosts, step, got, wantWarm)
			}
			if len(warm.nodes) != eligible {
				t.Fatalf("%d hosts, step %d: warm heap holds %d hosts, %d eligible", hosts, step, len(warm.nodes), eligible)
			}
			if step%100 == 0 || hosts <= 64 {
				checkLLTree(t, ll)
				checkWarmHeap(t, warm, func(h int) (uint64, bool) { return warms[h].idle, warms[h].eligible })
			}
		}
	}
}

// checkLLTree recomputes every internal node of the least-loaded tree from
// its children by a left-to-right scan keeping the first strictly better
// child, and fails on any node that differs.
func checkLLTree(t *testing.T, tr *llTree) {
	t.Helper()
	better := func(c, best llNode) bool {
		return c.host >= 0 && (best.host < 0 || c.running < best.running ||
			(c.running == best.running && c.free > best.free))
	}
	for l := 1; l < len(tr.off)-1; l++ {
		for j := 0; j < tr.off[l+1]-tr.off[l]; j++ {
			lo := tr.off[l-1] + 8*j
			want := tr.nodes[lo]
			for _, c := range tr.nodes[lo+1 : min(lo+8, tr.off[l])] {
				if better(c, want) {
					want = c
				}
			}
			if got := tr.nodes[tr.off[l]+j]; got != want {
				t.Fatalf("level %d node %d = %+v, children's winner %+v", l, j, got, want)
			}
		}
	}
}

// checkWarmHeap fails unless every parent of the warm heap beats its
// children, pos inverts the heap, and each host is present exactly when
// leaf reports it eligible, keyed by leaf's idle time.
func checkWarmHeap(t *testing.T, hp *warmHeap, leaf func(h int) (idle uint64, eligible bool)) {
	t.Helper()
	for i, n := range hp.nodes {
		if i > 0 && !warmBeats(hp.nodes[(i-1)/2], n) {
			t.Fatalf("heap node %d %+v beats its parent %+v", i, n, hp.nodes[(i-1)/2])
		}
		if int(hp.pos[n.host]) != i {
			t.Fatalf("pos[%d] = %d, but host %d sits at %d", n.host, hp.pos[n.host], n.host, i)
		}
	}
	for h, i := range hp.pos {
		idle, eligible := leaf(h)
		switch {
		case !eligible && i != -1:
			t.Fatalf("ineligible host %d sits at %d", h, i)
		case eligible && (i < 0 || hp.nodes[i] != warmNode{idle: idle, host: int32(h)}):
			t.Fatalf("eligible host %d (idle %d) at %d", h, idle, i)
		}
	}
}
