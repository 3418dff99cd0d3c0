// Package pagetable is the 4-level radix page table both memory-management
// stacks build: the kernel's per-process table and the Memento page table
// the hardware page allocator grows at the MPTR register during flagged
// page walks (Section 3.2). Table pages are real simulated frames, so walks
// and edits produce memory traffic at the right addresses. What backs a new
// table page is the caller's business: the kernel takes a zeroed buddy
// frame, the Memento allocator pops its pool.
//
// Warm-start snapshots alias a frozen tree instead of copying it (Freeze);
// every mutator copies the frozen path it writes through (copy-on-write).
package pagetable

import "memento/internal/config"

// Mem is the physically-addressed memory table walks and edits go through
// (the cache hierarchy).
type Mem interface {
	// Access performs one data access at physical address pa and returns
	// its latency in cycles.
	Access(pa uint64, write bool) uint64
}

// HitRepeater is the cache hierarchy's fast path for repeating an access
// tuple whose lines are all L1-resident (cache.Hierarchy.RepeatHits).
type HitRepeater interface {
	RepeatHits(pas []uint64, writes, rounds uint64) (uint64, bool)
}

// levels is the number of table levels (x86-64 4-level paging: PGD, PUD,
// PMD, PTE).
const levels = 4

// fanout is entries per table page (512 8-byte entries in a 4 KiB page).
const fanout = 512

// ptesPerLine is the number of PTEs in one 64-byte cache line.
const ptesPerLine = config.LineSize / 8

// Node is one table page. Interior nodes hold children; the leaf level
// holds PTEs encoded as pfn+1 (0 = not present), mirroring hardware present
// bits. The simulated entry is 8 bytes (entryPA); the host keeps it in 32
// bits, which config.Machine.Validate guarantees holds every frame
// (config.MaxPTEFrame), so a leaf costs 2 KiB of host memory.
//
// shared marks a node frozen into a snapshot: any number of snapshots and
// live tables may alias it. Mutators clone a shared node (and the path
// above it) before writing — copy-on-write path copying. A shared node's
// descendants are always shared (Freeze marks whole subtrees, and a mutator
// never links a private child under a shared parent), so one flag check
// per level suffices.
type Node struct {
	pfn      uint64
	children []*Node  // nil at leaf level
	pte      []uint32 // nil at interior levels
	shared   bool
}

// FreeList recycles private nodes, so a warm invocation's table churn
// reuses entry arrays instead of allocating them. A private node that
// a table unlinks is unreachable: it has one parent and no snapshot holds
// it. Shared nodes are never recycled, since other snapshots and machines
// may still read them. Each machine's kernel owns one free list, which both
// of its tables use; it is not safe for concurrent use.
type FreeList struct {
	leaves, dirs []*Node
}

// put recycles n unless it is shared.
func (f *FreeList) put(n *Node) {
	switch {
	case n.shared:
	case n.pte != nil:
		f.leaves = append(f.leaves, n)
	default:
		f.dirs = append(f.dirs, n)
	}
}

// get returns a private node of the given kind; its entries are stale.
func (f *FreeList) get(leaf bool) *Node {
	l := &f.dirs
	if leaf {
		l = &f.leaves
	}
	if i := len(*l) - 1; i >= 0 {
		n := (*l)[i]
		(*l)[i] = nil
		*l = (*l)[:i]
		return n
	}
	if leaf {
		return &Node{pte: make([]uint32, fanout)}
	}
	return &Node{children: make([]*Node, fanout)}
}

// fresh returns an empty private node backed by frame pfn.
func (f *FreeList) fresh(pfn uint64, leaf bool) *Node {
	n := f.get(leaf)
	n.pfn = pfn
	clear(n.pte)
	clear(n.children)
	return n
}

// clone returns a private copy of n: same pfn and entries, child pointers
// still aliasing the (shared) originals.
func (f *FreeList) clone(n *Node) *Node {
	c := f.get(n.pte != nil)
	c.pfn = n.pfn
	copy(c.pte, n.pte)
	copy(c.children, n.children)
	return c
}

// Table is one radix page table. Build it with New.
type Table struct {
	root  *Node
	nodes *FreeList
	// acc holds the access tuple of the teardown run in flight; owning it
	// keeps the tuple off the heap when it crosses the HitRepeater
	// interface.
	acc [levels]uint64
}

// New returns a table rooted at root — nil for an empty table, or a tree
// returned by Freeze, which the table then aliases copy-on-write — whose
// private nodes come from and go back to nodes.
func New(nodes *FreeList, root *Node) Table {
	return Table{root: root, nodes: nodes}
}

// index extracts the entry index for the given level (3 = root) from a VPN.
func index(vpn uint64, level int) uint64 {
	return (vpn >> uint(9*level)) & (fanout - 1)
}

// entryPA is the physical address of entry idx in node n's table page.
func entryPA(n *Node, idx uint64) uint64 {
	return n.pfn<<config.PageShift + idx*8
}

// Walk traverses the table reading each level's entry through mem and
// returns the mapped PFN, if vpn is present.
func (t *Table) Walk(vpn uint64, mem Mem) (pfn, cycles uint64, ok bool) {
	node := t.root
	if node == nil {
		return 0, 0, false
	}
	for level := levels - 1; level >= 1; level-- {
		idx := index(vpn, level)
		cycles += mem.Access(entryPA(node, idx), false)
		node = node.children[idx]
		if node == nil {
			return 0, cycles, false
		}
	}
	idx := index(vpn, 0)
	cycles += mem.Access(entryPA(node, idx), false)
	if node.pte[idx] == 0 {
		return 0, cycles, false
	}
	return uint64(node.pte[idx]) - 1, cycles, true
}

// Install maps vpn -> pfn through mem, creating missing levels on the way.
// alloc backs each new table page with a frame and returns that frame and
// what getting it cost; Install fails, returning the cycles spent so far,
// only when alloc does.
func (t *Table) Install(vpn, pfn uint64, mem Mem, alloc func() (frame, cycles uint64, err error)) (uint64, error) {
	var cycles uint64
	if t.root == nil {
		f, c, err := alloc()
		if err != nil {
			return cycles, err
		}
		t.root = t.nodes.fresh(f, false)
		cycles += c
	} else if t.root.shared {
		t.root = t.nodes.clone(t.root)
	}
	node := t.root
	for level := levels - 1; level >= 1; level-- {
		idx := index(vpn, level)
		cycles += mem.Access(entryPA(node, idx), false)
		if node.children[idx] == nil {
			f, c, err := alloc()
			if err != nil {
				return cycles, err
			}
			cycles += c
			// Write the new entry into this level.
			cycles += mem.Access(entryPA(node, idx), true)
			node.children[idx] = t.nodes.fresh(f, level == 1)
		} else if node.children[idx].shared {
			// Copy-on-write: privatize the path before the PTE write below.
			// Host-side bookkeeping only — the simulated frame is unchanged,
			// so no cycles are charged.
			node.children[idx] = t.nodes.clone(node.children[idx])
		}
		node = node.children[idx]
	}
	idx := index(vpn, 0)
	cycles += mem.Access(entryPA(node, idx), true)
	node.pte[idx] = uint32(pfn + 1)
	return cycles, nil
}

// Clear unmaps vpn through mem, returning the old PFN and the cycle cost.
// It leaves empty table pages in place; see Reap.
func (t *Table) Clear(vpn uint64, mem Mem) (pfn, cycles uint64, ok bool) {
	node := t.root
	if node == nil {
		return 0, 0, false
	}
	for level := levels - 1; level >= 1; level-- {
		idx := index(vpn, level)
		cycles += mem.Access(entryPA(node, idx), false)
		node = node.children[idx]
		if node == nil {
			return 0, cycles, false
		}
	}
	idx := index(vpn, 0)
	if node.pte[idx] == 0 {
		return 0, cycles, false
	}
	pfn = uint64(node.pte[idx]) - 1
	if node.shared {
		// Copy-on-write: a shared leaf implies a shared path (a private node
		// is never linked under a shared parent), so privatize the whole
		// path before the PTE write. Host bookkeeping only, no cycles.
		node = t.ownPath(vpn)
	}
	node.pte[idx] = 0
	cycles += mem.Access(entryPA(node, idx), true)
	return pfn, cycles, true
}

// ownPath privatizes every node on vpn's walk path, cloning shared nodes,
// and returns the (now private) leaf. Callers must know the path exists.
func (t *Table) ownPath(vpn uint64) *Node {
	if t.root.shared {
		t.root = t.nodes.clone(t.root)
	}
	node := t.root
	for level := levels - 1; level >= 1; level-- {
		idx := index(vpn, level)
		if node.children[idx].shared {
			node.children[idx] = t.nodes.clone(node.children[idx])
		}
		node = node.children[idx]
	}
	return node
}

// nextRun measures the teardown run at vpn (< end): the n consecutive VPNs
// whose Clear issues the same accesses with the same outcome. It writes
// those accesses to t.acc[:m] (the walk's reads, then the PTE write when
// the run's PTEs are present) and returns the run's leaf when they are. A
// run is the VPNs under one missing table, up to the end of that entry's
// block; or a run of zero PTEs in one leaf; or present PTEs within one
// 64-byte PTE line. Host bookkeeping only: nothing is charged or changed.
func (t *Table) nextRun(vpn, end uint64) (n uint64, m int, leaf *Node) {
	node := t.root
	if node == nil {
		return end - vpn, 0, nil
	}
	for level := levels - 1; level >= 1; level-- {
		idx := index(vpn, level)
		t.acc[m] = entryPA(node, idx)
		m++
		if node = node.children[idx]; node == nil {
			shift := uint(9 * level)
			return min(end, (vpn>>shift+1)<<shift) - vpn, m, nil
		}
	}
	idx := index(vpn, 0)
	lim := min(end-vpn, fanout-idx)
	present := node.pte[idx] != 0
	if present {
		t.acc[m] = entryPA(node, idx)
		m++
		lim = min(lim, ptesPerLine-idx%ptesPerLine)
		leaf = node
	}
	n = 1
	for n < lim && (node.pte[idx+n] != 0) == present {
		n++
	}
	return n, m, leaf
}

// ClearRange clears every VPN in [start, end) and hands each present one to
// page, in VPN order, right after its PTE write; page returns its own
// cycles, and its error stops the walk. The range is walked in runs (see
// nextRun): a run's first VPN is cleared through mem; the others repeat its
// accesses, which rep fast-forwards as L1 hits when it can, leaving only
// their side effects. Otherwise, or with rep nil, they are cleared one by
// one. Either way the cycles, the simulated memory state and the table come
// out the same.
func (t *Table) ClearRange(start, end uint64, mem Mem, rep HitRepeater,
	page func(vpn, pfn uint64) (uint64, error)) (cycles uint64, err error) {
	for vpn := start; vpn < end; {
		n, m, leaf := t.nextRun(vpn, end)
		next := vpn + n
		c, err := t.clearOne(vpn, mem, page)
		cycles += c
		if err != nil {
			return cycles, err
		}
		vpn++
		if vpn < next && rep != nil {
			var writes uint64
			if leaf != nil {
				writes = 1 << (m - 1)
			}
			if c, ok := rep.RepeatHits(t.acc[:m], writes, next-vpn); ok {
				cycles += c
				if leaf != nil && leaf.shared {
					// The first clear privatized the path.
					leaf = t.ownPath(vpn)
				}
				for ; leaf != nil && vpn < next; vpn++ {
					e := &leaf.pte[index(vpn, 0)]
					pfn := uint64(*e) - 1
					*e = 0
					c, err := page(vpn, pfn)
					cycles += c
					if err != nil {
						return cycles, err
					}
				}
				vpn = next
			}
		}
		for ; vpn < next; vpn++ {
			c, err := t.clearOne(vpn, mem, page)
			cycles += c
			if err != nil {
				return cycles, err
			}
		}
	}
	return cycles, nil
}

// clearOne is ClearRange's per-VPN reference: the PTE clear through mem,
// then page when the PTE was present.
func (t *Table) clearOne(vpn uint64, mem Mem, page func(vpn, pfn uint64) (uint64, error)) (uint64, error) {
	pfn, c, present := t.Clear(vpn, mem)
	if !present {
		return c, nil
	}
	u, err := page(vpn, pfn)
	return c + u, err
}

// Reap unlinks the table pages that no longer hold any valid entry, as
// munmap does when "relevant page tables become empty" (Section 2.1),
// children before parents and the root last. free is handed each reaped
// page's frame; the private nodes are recycled. A shared node on the way is
// cloned before a child is unlinked from it (copy-on-write, host
// bookkeeping only); a reaped node itself is not mutated, so a snapshot
// aliasing it keeps its own view of the frame.
func (t *Table) Reap(free func(pfn uint64)) {
	if t.root == nil {
		return
	}
	root, empty := t.reap(t.root, free)
	if empty {
		free(root.pfn)
		t.nodes.put(root)
		root = nil
	}
	t.root = root
}

// reap reaps n's empty subtrees and returns n, or the clone of n that must
// replace it in its parent, and whether n is now empty.
func (t *Table) reap(n *Node, free func(pfn uint64)) (*Node, bool) {
	if n.pte != nil {
		for _, e := range n.pte {
			if e != 0 {
				return n, false
			}
		}
		return n, true
	}
	allEmpty := true
	for i, c := range n.children {
		if c == nil {
			continue
		}
		nc, empty := t.reap(c, free)
		if empty {
			free(nc.pfn)
			t.nodes.put(nc)
			if n.shared {
				n = t.nodes.clone(n)
			}
			n.children[i] = nil
			continue
		}
		allEmpty = false
		if nc != c {
			if n.shared {
				n = t.nodes.clone(n)
			}
			n.children[i] = nc
		}
	}
	return n, allEmpty
}

// Drop empties the table and appends to frames, in post order, every frame
// it held: for each node its children's first, then the pages its leaf
// PTEs still map, then its own table page. The private nodes are recycled.
func (t *Table) Drop(frames []uint64) []uint64 {
	frames = t.drop(t.root, frames)
	t.root = nil
	return frames
}

func (t *Table) drop(n *Node, frames []uint64) []uint64 {
	if n == nil {
		return frames
	}
	for _, c := range n.children {
		frames = t.drop(c, frames)
	}
	for _, e := range n.pte {
		if e != 0 {
			frames = append(frames, uint64(e)-1)
		}
	}
	frames = append(frames, n.pfn)
	t.nodes.put(n)
	return frames
}

// Freeze marks the whole tree shared, so snapshots and live tables can
// alias it, and returns its root and simulated size: one page per node.
func (t *Table) Freeze() (root *Node, bytes uint64) {
	freeze(t.root)
	return t.root, countBytes(t.root)
}

// freeze marks a subtree shared. It prunes at already-shared nodes: an
// earlier freeze made their subtrees immutable, and re-marking them would
// race with concurrent restores reading the flag.
func freeze(n *Node) {
	if n == nil || n.shared {
		return
	}
	n.shared = true
	for _, c := range n.children {
		freeze(c)
	}
}

// countBytes returns the simulated size of a subtree: one page per node.
func countBytes(n *Node) uint64 {
	if n == nil {
		return 0
	}
	b := uint64(config.PageSize)
	for _, c := range n.children {
		b += countBytes(c)
	}
	return b
}
