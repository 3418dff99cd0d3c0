package fleet

// Incremental indexes for the scheduling hot path. The scan-per-event
// engine spent O(hosts x warm instances) on every arrival; these
// structures answer the same queries in O(1)-O(log N) and are maintained
// on each engine mutation. Determinism is the contract: every tie-break
// reproduces the corresponding linear scan exactly (the least-loaded tree
// and the warm heaps break equal keys toward the lower host index, the
// first best a low-to-high scan keeps), which reference.go checks
// differentially.

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

// llTree indexes hosts for PlaceLeastLoaded. It is an 8-ary tournament
// tree over the hosts, stored level by level from the leaves up in one
// slice with no padding. Level 0 holds the leaves (leaf h is host h) and
// each level above holds ceil(width/8) nodes, so a node's eight 16-byte
// children sit side by side in 128 bytes and a 10k-host update walks 5
// levels instead of a binary tree's 14. The best host is read off the
// root in O(1).
//
// A node holds the winner of its subtree under llBeats, a total order
// that ends in the lower host index, which is what a low-to-high scan
// keeping the first best returns. An update replaces one leaf and walks
// up, knowing at each level the child's old and new winner: a new winner
// that beats the parent's takes its place; a parent whose winner came from
// another child keeps it; only when the parent's own winner got worse are
// its children rescanned, left to right. The walk stops as soon as a
// parent comes out unchanged, because every ancestor above it was computed
// from that same value.
type llTree struct {
	off   []int // level l spans nodes[off[l]:off[l+1]]; the root is at off[len(off)-2]
	nodes []llNode
}

func newLLTree(hosts int) *llTree {
	t := &llTree{off: []int{0, hosts}}
	for w := hosts; w > 1; {
		w = (w + 7) / 8
		t.off = append(t.off, t.off[len(t.off)-1]+w)
	}
	t.nodes = make([]llNode, t.off[len(t.off)-1])
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
func (t *llTree) best() int { return int(t.nodes[t.off[len(t.off)-2]].host) }

// warmNode is one entry of a per-workload warm heap: a host holding an
// idle warm instance of the workload while also having a free core slot,
// keyed by that host's freshest instance.
type warmNode struct {
	idle uint64
	host int32
}

// warmBeats reports whether a wins over b: the strictly fresher instance,
// then the lower host index — PlaceWarmFirst's scan order. Hosts are
// unique, so this is a total order over a heap's entries.
func warmBeats(a, b warmNode) bool {
	return a.idle > b.idle || (a.idle == b.idle && a.host < b.host)
}

// warmHeap indexes, for one workload, each eligible host's freshest idle
// warm instance (hosts without a free slot are ineligible, exactly like
// the PlaceWarmFirst scan skips them). It is an indexed binary max-heap
// under warmBeats holding only the eligible hosts, so it is sized to the
// workload's warm pool rather than the cluster: its unique maximum is the
// scan's answer, and an update is O(log entries). pos inverts the heap.
type warmHeap struct {
	nodes []warmNode
	pos   []int32 // host -> index in nodes, -1 when the host is absent
}

func newWarmHeap(hosts int) *warmHeap {
	t := &warmHeap{pos: make([]int32, hosts)}
	for i := range t.pos {
		t.pos[i] = -1
	}
	return t
}

// update re-keys host h: its freshest idle time when eligible, absent
// otherwise.
func (t *warmHeap) update(h int, idle uint64, eligible bool) {
	i := int(t.pos[h])
	switch {
	case !eligible:
		if i >= 0 {
			t.remove(i)
		}
	case i < 0:
		t.nodes = append(t.nodes, warmNode{idle: idle, host: int32(h)})
		t.up(len(t.nodes) - 1)
	case idle > t.nodes[i].idle:
		t.nodes[i].idle = idle
		t.up(i)
	case idle < t.nodes[i].idle:
		t.nodes[i].idle = idle
		t.down(i)
	}
}

// remove drops the entry at index i, filling the hole with the last one.
func (t *warmHeap) remove(i int) {
	t.pos[t.nodes[i].host] = -1
	last := len(t.nodes) - 1
	t.nodes[i] = t.nodes[last]
	t.nodes = t.nodes[:last]
	if i < last {
		t.down(i)
		t.up(i)
	}
}

// up moves the entry at i toward the root while it beats its parent.
func (t *warmHeap) up(i int) {
	n := t.nodes[i]
	for i > 0 {
		p := (i - 1) / 2
		if !warmBeats(n, t.nodes[p]) {
			break
		}
		t.nodes[i] = t.nodes[p]
		t.pos[t.nodes[i].host] = int32(i)
		i = p
	}
	t.nodes[i] = n
	t.pos[n.host] = int32(i)
}

// down moves the entry at i toward the leaves while a child beats it.
func (t *warmHeap) down(i int) {
	n := t.nodes[i]
	for {
		c := 2*i + 1
		if c >= len(t.nodes) {
			break
		}
		if c+1 < len(t.nodes) && warmBeats(t.nodes[c+1], t.nodes[c]) {
			c++
		}
		if !warmBeats(t.nodes[c], n) {
			break
		}
		t.nodes[i] = t.nodes[c]
		t.pos[t.nodes[i].host] = int32(i)
		i = c
	}
	t.nodes[i] = n
	t.pos[n.host] = int32(i)
}

// best returns the host PlaceWarmFirst's warm scan would choose, or -1.
func (t *warmHeap) best() int {
	if len(t.nodes) == 0 {
		return -1
	}
	return int(t.nodes[0].host)
}

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
// processes events in, plus the slab slot holding the event's payload and
// the lane the key was pushed to. At 24 bytes it is what the queue moves,
// never the payload itself.
type evKey struct {
	time uint64
	seq  uint64
	slot int32
	lane int32
}

// before orders keys by time, then by push order. seq is unique, so this
// is a total order: any correct queue pops the same sequence.
func (a evKey) before(b evKey) bool {
	return a.time < b.time || (a.time == b.time && a.seq < b.seq)
}

// keyHeap is a binary min-heap of keys under before. Sifts move the
// displaced keys into a hole instead of swapping.
type keyHeap []evKey

func (h *keyHeap) push(k evKey) {
	s := append(*h, k)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !k.before(s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = k
	*h = s
}

// replaceTop puts k in place of the minimum and sifts it down.
func (h keyHeap) replaceTop(k evKey) {
	i, n := 0, len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(k) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = k
}

// pop removes the minimum.
func (h *keyHeap) pop() {
	s := *h
	n := len(s) - 1
	last := s[n]
	s = s[:n]
	if n > 0 {
		s.replaceTop(last)
	}
	*h = s
}

// keyRing is one lane: a FIFO ring of keys pushed in (time, seq) order.
type keyRing struct {
	buf  []evKey // length 0 or a power of two
	head int
	n    int
}

func (r *keyRing) tail() evKey { return r.buf[(r.head+r.n-1)&(len(r.buf)-1)] }

func (r *keyRing) push(k evKey) {
	if r.n == len(r.buf) {
		// Double the ring, unrolling it to start at index 0.
		buf := make([]evKey, max(16, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = k
	r.n++
}

// eventQueue holds the pending completions and expiries. Payloads live in
// a slab with a free list; keys are ordered by three structures whose
// minimum is the next event:
//
//   - lanes, one FIFO ring of keys per delay class. A completion's delay is
//     fixed by its workload, warm or cold, and co-residency degree, and a
//     fixed keep-alive TTL fixes an expiry's; the clock never goes back, so
//     each class's keys arrive in (time, seq) order. A push is appended to
//     its lane when it does not sort below the lane's tail.
//   - heads, a min-heap over the head keys of the non-empty lanes: the
//     earliest lane key is its root, and a pop re-keys it with the lane's
//     next key. It holds one key per class, so it stays a few levels deep
//     however many events are pending.
//   - heap, a binary min-heap over every key that arrived out of order in
//     its lane (a policy whose TTL varies).
//
// container/heap would box every event through an interface value, one
// allocation per push, so the queue is hand-rolled.
type eventQueue struct {
	heap  keyHeap
	heads keyHeap
	lanes []keyRing // by lane index, grown on first use
	nlane int       // keys held in lanes
	// slab holds the payloads by slot. A popped event's slot is not reused
	// until release, so the handler may keep reading it through a pointer
	// while it pushes: if a push grows the slab, the pointer still refers
	// to the old backing array, which holds the same unchanged payload.
	slab []event
	free []int32
	seq  uint64
}

func (q *eventQueue) len() int { return len(q.heap) + q.nlane }

// push schedules ev at time t, ordered after every earlier push at the
// same time. lane names the key's delay class; a key that sorts below its
// lane's tail goes to the heap instead.
func (q *eventQueue) push(t uint64, ev event, lane int) {
	var slot int32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
		q.slab[slot] = ev
	} else {
		slot = int32(len(q.slab))
		q.slab = append(q.slab, ev)
	}
	k := evKey{time: t, seq: q.seq, slot: slot, lane: int32(lane)}
	q.seq++
	if lane >= len(q.lanes) {
		q.lanes = append(q.lanes, make([]keyRing, lane+1-len(q.lanes))...)
	}
	r := &q.lanes[lane]
	switch {
	case r.n == 0:
		q.heads.push(k)
	case r.tail().time > t:
		q.heap.push(k)
		return
	}
	r.push(k)
	q.nlane++
}

// laneFirst reports whether the earliest lane head is the earliest pending
// key.
func (q *eventQueue) laneFirst() bool {
	return len(q.heads) > 0 && (len(q.heap) == 0 || q.heads[0].before(q.heap[0]))
}

// peek returns the earliest pending key; ok is false when the queue is
// empty.
func (q *eventQueue) peek() (k evKey, ok bool) {
	switch {
	case q.laneFirst():
		return q.heads[0], true
	case len(q.heap) > 0:
		return q.heap[0], true
	}
	return evKey{}, false
}

// pop removes the earliest pending key and returns it. The payload stays
// in q.slab[k.slot] until the caller releases the slot.
func (q *eventQueue) pop() evKey {
	if !q.laneFirst() {
		k := q.heap[0]
		q.heap.pop()
		return k
	}
	k := q.heads[0]
	r := &q.lanes[k.lane]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	q.nlane--
	if r.n > 0 {
		q.heads.replaceTop(r.buf[r.head])
	} else {
		q.heads.pop()
	}
	return k
}

// release returns a handled event's slot to the free list.
func (q *eventQueue) release(slot int32) {
	q.slab[slot] = event{} // drop the payload's string reference
	q.free = append(q.free, slot)
}
