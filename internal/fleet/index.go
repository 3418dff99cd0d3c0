package fleet

// Incremental indexes for the scheduling hot path. The scan-per-event
// engine spent O(hosts x warm instances) on every arrival; these
// structures answer the same queries in O(1)-O(log N) and are maintained
// on each engine mutation. Determinism is the contract: every tie-break
// reproduces the corresponding linear scan exactly (the trees break equal
// keys toward the lower host index, the first maximum a low-to-high scan
// keeps), which reference.go checks differentially.

// tree8 is the shape the tournament trees share: an 8-ary tree over n
// leaves, stored level by level from the leaves up in one slice with no
// padding. Level 0 holds the n leaves (leaf h is host h) and each level
// above holds ceil(width/8) nodes, so a node's eight 16-byte children sit
// side by side in 128 bytes and a 10k-host update walks 5 levels instead
// of a binary tree's 14.
//
// A node holds the winner of its subtree under a total order that ends in
// the lower host index, which is what a low-to-high scan keeping the
// first best returns. An update replaces one leaf and walks up, knowing
// at each level the child's old and new winner: a new winner that beats
// the parent's takes its place; a parent whose winner came from another
// child keeps it; only when the parent's own winner got worse are its
// children rescanned, left to right. The walk stops as soon as a parent
// comes out unchanged, because every ancestor above it was computed from
// that same value.
type tree8 struct {
	off []int // level l spans nodes[off[l]:off[l+1]]; the root is at off[len(off)-2]
}

func newTree8(n int) tree8 {
	off := []int{0, n}
	for w := n; w > 1; {
		w = (w + 7) / 8
		off = append(off, off[len(off)-1]+w)
	}
	return tree8{off: off}
}

// size is the node count over all levels.
func (t tree8) size() int { return t.off[len(t.off)-1] }

// root is the root node's position.
func (t tree8) root() int { return t.off[len(t.off)-2] }

// llNode is one node of the least-loaded tournament tree: the best
// placement candidate in the node's host range, or host == -1 when no
// host in range has a free core slot.
type llNode struct {
	free    uint64 // host's free pages (tie-break)
	running int32  // host's running count (primary key)
	host    int32  // winning host index, -1 = none eligible
}

// llBeats reports whether a wins over b: fewer running invocations, then
// more free pages, then the lower host index — PlaceLeastLoaded's scan
// order. An ineligible node (host -1) never wins.
func llBeats(a, b llNode) bool {
	switch {
	case a.host < 0:
		return false
	case b.host < 0:
		return true
	case a.running != b.running:
		return a.running < b.running
	}
	return a.free > b.free || (a.free == b.free && a.host < b.host)
}

// llTree indexes hosts for PlaceLeastLoaded; see tree8 for the update
// rule. The best host is read off the root in O(1).
type llTree struct {
	tree8
	nodes []llNode
}

func newLLTree(hosts int) *llTree {
	t := &llTree{tree8: newTree8(hosts)}
	t.nodes = make([]llNode, t.size())
	for i := range t.nodes {
		t.nodes[i].host = -1
	}
	return t
}

// update re-keys host h. eligible is false when the host has no free core
// slot, removing it from every query until a slot frees up.
func (t *llTree) update(h int, running int, free uint64, eligible bool) {
	n := llNode{host: -1}
	if eligible {
		n = llNode{running: int32(running), free: free, host: int32(h)}
	}
	old := t.nodes[h]
	if old == n {
		return
	}
	t.nodes[h] = n
	for l, i := 1, h; l < len(t.off)-1; l++ {
		i >>= 3
		p := &t.nodes[t.off[l]+i]
		switch w := *p; {
		case llBeats(n, w):
		case w.host != old.host:
			return // the winner sits in another child and still wins
		default: // the winner's own subtree got worse: rescan
			lo := t.off[l-1] + i<<3
			n = llNode{host: -1}
			for _, c := range t.nodes[lo:min(lo+8, t.off[l])] {
				if llBeats(c, n) {
					n = c
				}
			}
		}
		if old = *p; old == n {
			return
		}
		*p = n
	}
}

// best returns the host PlaceLeastLoaded would choose, or -1.
func (t *llTree) best() int { return int(t.nodes[t.root()].host) }

// warmNode is one node of a per-workload warm tournament tree: the host
// in range holding the freshest idle warm instance of the workload while
// also having a free core slot.
type warmNode struct {
	idle uint64
	host int32 // -1 = none eligible in this subtree
}

// warmBeats reports whether a wins over b: the strictly fresher instance,
// then the lower host index — PlaceWarmFirst's scan order. An ineligible
// node never wins.
func warmBeats(a, b warmNode) bool {
	return a.host >= 0 && (b.host < 0 || a.idle > b.idle || (a.idle == b.idle && a.host < b.host))
}

// warmTree indexes, for one workload, each host's freshest idle warm
// instance (hosts without a free slot are ineligible, exactly like the
// PlaceWarmFirst scan skips them). One tree exists per workload that has
// ever gone warm; they are created lazily. See tree8 for the update rule.
type warmTree struct {
	tree8
	nodes []warmNode
}

func newWarmTree(hosts int) *warmTree {
	t := &warmTree{tree8: newTree8(hosts)}
	t.nodes = make([]warmNode, t.size())
	for i := range t.nodes {
		t.nodes[i].host = -1
	}
	return t
}

func (t *warmTree) update(h int, idle uint64, eligible bool) {
	n := warmNode{host: -1}
	if eligible {
		n = warmNode{idle: idle, host: int32(h)}
	}
	old := t.nodes[h]
	if old == n {
		return
	}
	t.nodes[h] = n
	for l, i := 1, h; l < len(t.off)-1; l++ {
		i >>= 3
		p := &t.nodes[t.off[l]+i]
		switch w := *p; {
		case warmBeats(n, w):
		case w.host != old.host:
			return
		default:
			lo := t.off[l-1] + i<<3
			n = warmNode{host: -1}
			for _, c := range t.nodes[lo:min(lo+8, t.off[l])] {
				if warmBeats(c, n) {
					n = c
				}
			}
		}
		if old = *p; old == n {
			return
		}
		*p = n
	}
}

func (t *warmTree) best() int { return int(t.nodes[t.root()].host) }

// pendingRing is the FIFO queue of invocations awaiting capacity, as a
// head-indexed ring: pops advance the head instead of reslicing, so the
// backing array is not pinned for the run's lifetime the way
// `pending = pending[1:]` pinned it. A fully drained queue releases a
// large backing array outright; a part-drained one compacts once the dead
// prefix dominates.
type pendingRing struct {
	buf  []Invocation
	head int
}

func (q *pendingRing) len() int          { return len(q.buf) - q.head }
func (q *pendingRing) front() Invocation { return q.buf[q.head] }

func (q *pendingRing) push(inv Invocation) { q.buf = append(q.buf, inv) }

func (q *pendingRing) pop() {
	q.buf[q.head] = Invocation{} // release the entry's strings
	q.head++
	if q.head == len(q.buf) {
		if cap(q.buf) > 64 {
			q.buf = nil // a burst's queue must not pin memory once drained
		} else {
			q.buf = q.buf[:0]
		}
		q.head = 0
		return
	}
	if q.head >= 1024 && q.head*2 >= len(q.buf) {
		live := make([]Invocation, len(q.buf)-q.head)
		copy(live, q.buf[q.head:])
		q.buf, q.head = live, 0
	}
}

// evKey is an event queue entry: the (time, seq) order the engine
// processes events in, plus the slab slot holding the event's payload.
// At 24 bytes it is what the heap moves, never the payload itself.
type evKey struct {
	time uint64
	seq  uint64
	slot int32
}

// before orders keys by time, then by push order. seq is unique, so this
// is a total order: any correct queue pops the same sequence.
func (a evKey) before(b evKey) bool {
	return a.time < b.time || (a.time == b.time && a.seq < b.seq)
}

// eventQueue holds the pending completions and expiries. Payloads live in
// a slab with a free list; keys are ordered by two structures whose
// minimum is the next event:
//
//   - a FIFO lane, a ring of keys that arrived in order. A push flagged
//     fifo (keep-alive deadlines) is appended here when it does not sort
//     below the lane's tail. Under a fixed TTL every deadline is now plus
//     the same constant and the clock never goes back, so expiries never
//     touch the heap.
//   - a binary min-heap over keys for everything else, including a fifo
//     push that arrives out of order (a policy whose TTL varies). Sifts
//     move the displaced keys into a hole instead of swapping.
//
// container/heap would box every event through an interface value, one
// allocation per push, so the queue is hand-rolled.
type eventQueue struct {
	heap  []evKey
	lane  []evKey // ring buffer, length 0 or a power of two
	lhead int     // lane's first key
	llen  int     // lane's key count
	// slab holds the payloads by slot. A popped event's slot is not reused
	// until release, so the handler may keep reading it through a pointer
	// while it pushes: if a push grows the slab, the pointer still refers
	// to the old backing array, which holds the same unchanged payload.
	slab []event
	free []int32
	seq  uint64
}

func (q *eventQueue) len() int { return len(q.heap) + q.llen }

// push schedules ev at time t, ordered after every earlier push at the
// same time. fifo marks a key the caller expects to arrive in time order.
func (q *eventQueue) push(t uint64, ev event, fifo bool) {
	var slot int32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
		q.slab[slot] = ev
	} else {
		slot = int32(len(q.slab))
		q.slab = append(q.slab, ev)
	}
	k := evKey{time: t, seq: q.seq, slot: slot}
	q.seq++
	if fifo && (q.llen == 0 || q.lane[(q.lhead+q.llen-1)&(len(q.lane)-1)].time <= t) {
		if q.llen == len(q.lane) {
			q.growLane()
		}
		q.lane[(q.lhead+q.llen)&(len(q.lane)-1)] = k
		q.llen++
		return
	}
	h := append(q.heap, k)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !k.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = k
	q.heap = h
}

// growLane doubles the lane ring, unrolling it to start at index 0.
func (q *eventQueue) growLane() {
	buf := make([]evKey, max(64, 2*len(q.lane)))
	for i := 0; i < q.llen; i++ {
		buf[i] = q.lane[(q.lhead+i)&(len(q.lane)-1)]
	}
	q.lane, q.lhead = buf, 0
}

// laneFirst reports whether the lane head is the earliest pending key.
func (q *eventQueue) laneFirst() bool {
	return q.llen > 0 && (len(q.heap) == 0 || q.lane[q.lhead].before(q.heap[0]))
}

// peek returns the earliest pending key; ok is false when the queue is
// empty.
func (q *eventQueue) peek() (k evKey, ok bool) {
	switch {
	case q.laneFirst():
		return q.lane[q.lhead], true
	case len(q.heap) > 0:
		return q.heap[0], true
	}
	return evKey{}, false
}

// pop removes the earliest pending key and returns it. The payload stays
// in q.slab[k.slot] until the caller releases the slot.
func (q *eventQueue) pop() evKey {
	if q.laneFirst() {
		k := q.lane[q.lhead]
		q.lhead = (q.lhead + 1) & (len(q.lane) - 1)
		q.llen--
		return k
	}
	h := q.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	q.heap = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = last
	return top
}

// release returns a handled event's slot to the free list.
func (q *eventQueue) release(slot int32) {
	q.slab[slot] = event{} // drop the payload's string reference
	q.free = append(q.free, slot)
}
