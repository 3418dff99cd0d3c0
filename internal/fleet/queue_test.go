package fleet

import (
	"math/rand"
	"testing"

	"memento/internal/config"
	"memento/internal/machine"
)

// TestEventQueueDifferential drives the event queue with seeded random
// push/pop interleavings and checks every pop against a sorted reference
// (a plain list popped by linear min-search on (time, seq)). Times sit on
// a coarse grid so equal times are common; the fifo pushes alternate
// between phases of a fixed offset (in-order deadlines, the lane) and a
// varying one (out-of-order deadlines that must fall back to the heap);
// pop-heavy phases drain the lane to empty; every popped slot is released
// and reused. The popped (time, seq) sequence and each payload must match
// the reference exactly, and peek must name each key before it pops.
func TestEventQueueDifferential(t *testing.T) {
	type ref struct {
		time, seq uint64
		uid       int
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q eventQueue
		var want []ref
		var now, seq uint64
		var pops, fallbacks, laneDrains, maxLive int
		popOne := func() {
			i := 0
			for j := range want {
				if want[j].time < want[i].time || (want[j].time == want[i].time && want[j].seq < want[i].seq) {
					i = j
				}
			}
			w := want[i]
			want = append(want[:i], want[i+1:]...)
			laneWas := q.llen
			pk, ok := q.peek()
			k := q.pop()
			if !ok || pk != k {
				t.Fatalf("seed %d pop %d: peek gave %+v (ok %v), pop %+v", seed, pops, pk, ok, k)
			}
			if k.time != w.time || k.seq != w.seq {
				t.Fatalf("seed %d pop %d: got (%d, %d), want (%d, %d)", seed, pops, k.time, k.seq, w.time, w.seq)
			}
			if got := q.slab[k.slot].uid; got != w.uid {
				t.Fatalf("seed %d pop %d: payload uid %d, want %d", seed, pops, got, w.uid)
			}
			if laneWas == 1 && q.llen == 0 {
				laneDrains++
			}
			q.release(k.slot)
			now = k.time
			pops++
		}
		for step := 0; step < 3000; step++ {
			phase := (step / 250) % 3 // 0: in-order deadlines, 1: varying, 2: drain
			if len(want) > 0 && (phase == 2 && rng.Intn(4) > 0 || rng.Intn(3) == 0) {
				popOne()
				continue
			}
			fifo := rng.Intn(2) == 0
			at := now + 10*uint64(rng.Intn(8)) // completions: any order, ties common
			if fifo {
				at = now + 50 // fixed TTL: deadlines arrive in order
				if phase == 1 {
					at = now + 10*uint64(rng.Intn(10))
				}
			}
			heapWas := len(q.heap)
			q.push(at, event{uid: int(seq)}, fifo)
			if fifo && len(q.heap) > heapWas {
				fallbacks++
			}
			want = append(want, ref{time: at, seq: seq, uid: int(seq)})
			seq++
			if q.len() != len(want) {
				t.Fatalf("seed %d: len %d, want %d", seed, q.len(), len(want))
			}
			maxLive = max(maxLive, len(want))
		}
		for len(want) > 0 {
			popOne()
		}
		if q.len() != 0 {
			t.Fatalf("seed %d: %d keys left after draining", seed, q.len())
		}
		if len(q.slab) > maxLive {
			t.Fatalf("seed %d: slab grew to %d slots for at most %d live events; slots not reused", seed, len(q.slab), maxLive)
		}
		if fallbacks == 0 || laneDrains == 0 {
			t.Fatalf("seed %d: coverage gap: %d lane->heap fallbacks, %d lane drains", seed, fallbacks, laneDrains)
		}
	}
}

// TestEventQueueFixedTTLStaysInLane pins the point of the lane: in-order
// deadlines never enter the heap, however many are pending, and the ring
// keeps their order across its growth and wrap-around.
func TestEventQueueFixedTTLStaysInLane(t *testing.T) {
	var q eventQueue
	var now uint64
	for i := 0; i < 1000; i++ {
		q.push(now+500, event{uid: i}, true)
		if i%3 == 0 {
			k := q.pop()
			now = max(now, k.time)
			q.release(k.slot)
		}
		now += 7
	}
	if len(q.heap) != 0 {
		t.Fatalf("%d in-order deadlines fell back to the heap", len(q.heap))
	}
	prev := -1
	for q.len() > 0 {
		k := q.pop()
		if uid := q.slab[k.slot].uid; uid <= prev {
			t.Fatalf("lane popped uid %d after %d", uid, prev)
		} else {
			prev = uid
		}
		q.release(k.slot)
	}
}

// varyingTTL keeps each instance warm for a TTL that depends on the
// invocation, so keep-alive deadlines reach the event queue out of time
// order and exercise its lane-to-heap fallback.
type varyingTTL struct{}

func (varyingTTL) Name() string                                  { return "varying-ttl" }
func (varyingTTL) Place(c *Cluster, inv Invocation) int          { return PlaceWarmFirst(c, inv) }
func (varyingTTL) KeepWarmTTL(_ *Cluster, inv Invocation) uint64 { return ttlOf(inv) }
func (varyingTTL) Victim(c *Cluster, h int) int                  { return VictimLRU(c, h) }

func ttlOf(inv Invocation) uint64 { return uint64(1+inv.ID*7%11) * 3_000_000 }

// deadlineProbe records each completion's keep-alive deadline in
// completion order, which is the order the engine pushes them, and the
// time of every completion and eviction in the order they fire.
type deadlineProbe struct{ deadlines, times []uint64 }

func (p *deadlineProbe) Invocation(d InvocationDone) {
	p.deadlines = append(p.deadlines, d.End+ttlOf(d.Invocation))
	p.times = append(p.times, d.End)
}
func (p *deadlineProbe) Eviction(ev Eviction)  { p.times = append(p.times, ev.Time) }
func (p *deadlineProbe) MemSample(_, _ uint64) {}

// TestVaryingTTLHeapFallback runs a policy whose TTL varies per invocation
// through Conformance — index self-checks after every event, determinism,
// and deep equality with WithReferenceScans — and confirms the run really
// pushed out-of-order deadlines, so the queue's heap fallback carried
// expiries rather than the lane alone. Events popped out of order would
// run the clock backwards, so completions and evictions must fire in
// non-decreasing time.
func TestVaryingTTLHeapFallback(t *testing.T) {
	if err := Conformance(func() Policy { return varyingTTL{} }); err != nil {
		t.Fatal(err)
	}
	p := &deadlineProbe{}
	r, err := New(config.Default(),
		WithArrivals(Poisson(300, 4_000_000, 7)),
		WithHosts(Hosts{Count: 3, Cores: 2, MemPages: 8192}),
		WithPolicy(varyingTTL{}),
		WithBackend(conformanceCost()),
		WithProbe(p),
	).Run(machine.Memento)
	if err != nil {
		t.Fatal(err)
	}
	outOfOrder := 0
	for i := 1; i < len(p.deadlines); i++ {
		if p.deadlines[i] < p.deadlines[i-1] {
			outOfOrder++
		}
	}
	ttl := 0
	for _, ev := range r.Evictions {
		if ev.Reason == "ttl" {
			ttl++
		}
	}
	for i := 1; i < len(p.times); i++ {
		if p.times[i] < p.times[i-1] {
			t.Fatalf("clock ran backwards: event %d at %d after one at %d", i, p.times[i], p.times[i-1])
		}
	}
	if outOfOrder == 0 || ttl == 0 {
		t.Fatalf("fallback not exercised: %d out-of-order deadlines, %d ttl evictions", outOfOrder, ttl)
	}
}
