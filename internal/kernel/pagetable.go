package kernel

import (
	"memento/internal/config"
)

// Mem is the memory the kernel's metadata operations go through. The cache
// hierarchy implements it; kernel page-table walks, PTE installs, and page
// zeroing all generate real simulated traffic.
type Mem interface {
	// Access performs one data access at physical address pa and returns
	// its latency in cycles.
	Access(pa uint64, write bool) uint64
}

// ptLevels is the number of page-table levels (x86-64 4-level paging:
// PGD, PUD, PMD, PTE).
const ptLevels = 4

// ptFanout is entries per table page (512 8-byte entries in a 4 KiB page).
const ptFanout = 512

// ptNode is one page-table page. Interior nodes hold children; the leaf
// level holds PTEs encoded as pfn+1 (0 = not present), mirroring hardware
// present bits.
//
// shared marks a node captured into an AddressSpaceSnapshot: it is frozen
// and may be aliased by any number of snapshots and live address spaces.
// Mutators clone a shared node (and the path above it) before writing —
// copy-on-write path copying. A shared node's descendants are always shared
// (the capture walk marks whole subtrees, and a mutator never links a
// private child under a shared parent), so one flag check per level
// suffices.
type ptNode struct {
	pfn      uint64
	children []*ptNode // nil at leaf level
	pte      []uint64  // nil at interior levels
	shared   bool
}

// ptFree recycles private page-table nodes, so a warm invocation's table
// churn reuses 4 KiB entry arrays instead of allocating them. A private node
// that reapEmpty unlinks is unreachable: it has one parent and no snapshot
// holds it. Snapshot-frozen (shared) nodes are never recycled, since other
// snapshots and machines may still read them. Each Kernel owns one, so no
// locking is needed.
type ptFree struct {
	leaves, dirs []*ptNode
}

// put recycles n unless it is shared.
func (f *ptFree) put(n *ptNode) {
	switch {
	case n.shared:
	case n.pte != nil:
		f.leaves = append(f.leaves, n)
	default:
		f.dirs = append(f.dirs, n)
	}
}

// get returns a private node of the given kind; its entries are stale.
func (f *ptFree) get(leaf bool) *ptNode {
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
		return &ptNode{pte: make([]uint64, ptFanout)}
	}
	return &ptNode{children: make([]*ptNode, ptFanout)}
}

// fresh returns an empty private node backed by frame pfn.
func (f *ptFree) fresh(pfn uint64, leaf bool) *ptNode {
	n := f.get(leaf)
	n.pfn = pfn
	clear(n.pte)
	clear(n.children)
	return n
}

// clone returns a private copy of n: same pfn and entries, child pointers
// still aliasing the (shared) originals.
func (f *ptFree) clone(n *ptNode) *ptNode {
	c := f.get(n.pte != nil)
	c.pfn = n.pfn
	copy(c.pte, n.pte)
	copy(c.children, n.children)
	return c
}

// markSharedPT freezes a subtree for snapshot aliasing. The walk prunes at
// already-shared nodes: their whole subtree was frozen by an earlier capture
// and is immutable, so re-marking (which would race with concurrent
// restores reading the flag) is never needed.
func markSharedPT(n *ptNode) {
	if n == nil || n.shared {
		return
	}
	n.shared = true
	for _, c := range n.children {
		markSharedPT(c)
	}
}

// countPTBytes returns the simulated size of a subtree: one page per node.
func countPTBytes(n *ptNode) uint64 {
	if n == nil {
		return 0
	}
	b := uint64(config.PageSize)
	for _, c := range n.children {
		b += countPTBytes(c)
	}
	return b
}

// PageTable is a 4-level page table whose table pages are real simulated
// frames, so walks and edits produce memory traffic at the right addresses.
type PageTable struct {
	root *ptNode
	// nodes is the owning kernel's node recycler.
	nodes *ptFree
	// tablePages counts allocated page-table pages (kernel memory, Fig 11).
	tablePages uint64
}

// newPTNode allocates one table page from the buddy allocator and zeroes it
// through mem (kernels zero new page-table pages), returning the node and
// the cycle cost. The error wraps simerr.ErrOutOfMemory.
func (k *Kernel) newPTNode(leaf bool) (*ptNode, uint64, error) {
	frame, err := k.allocFrame(0)
	if err != nil {
		return nil, 0, err
	}
	cycles := k.cfg.InstrCycles(k.cfg.Cost.BuddyAllocInstrs)
	cycles += k.zeroPage(frame)
	n := k.nodes.fresh(frame, leaf)
	k.stats.KernelPagesAllocated++
	k.stats.PageTablePages++
	return n, cycles, nil
}

// streamZeroer is the non-temporal zeroing path the cache hierarchy offers.
type streamZeroer interface {
	StreamZero(pa uint64) uint64
}

// zeroPage clears a frame the way clear_page does: non-temporal stores that
// stream to DRAM without warming the cache, when the memory model supports
// it; otherwise ordinary writes (simple Mem fakes in tests).
func (k *Kernel) zeroPage(frame uint64) uint64 {
	base := frame << config.PageShift
	var cycles uint64
	if sz, ok := k.mem.(streamZeroer); ok {
		for off := uint64(0); off < config.PageSize; off += config.LineSize {
			cycles += sz.StreamZero(base + off)
		}
		return cycles + k.cfg.InstrCycles(64)
	}
	for off := uint64(0); off < config.PageSize; off += config.LineSize {
		cycles += k.mem.Access(base+off, true)
	}
	return cycles
}

// ptIndex extracts the index for the given level (3 = root) from a VPN.
func ptIndex(vpn uint64, level int) uint64 {
	return (vpn >> uint(9*level)) & (ptFanout - 1)
}

// walk traverses the table reading each level's entry through mem. It
// returns the mapped PFN (ok) or the deepest node reached (for installs).
func (pt *PageTable) walk(vpn uint64, mem Mem) (pfn uint64, cycles uint64, ok bool) {
	node := pt.root
	if node == nil {
		return 0, 0, false
	}
	for level := ptLevels - 1; level >= 1; level-- {
		idx := ptIndex(vpn, level)
		cycles += mem.Access(node.pfn<<config.PageShift+idx*8, false)
		node = node.children[idx]
		if node == nil {
			return 0, cycles, false
		}
	}
	idx := ptIndex(vpn, 0)
	cycles += mem.Access(node.pfn<<config.PageShift+idx*8, false)
	if node.pte[idx] == 0 {
		return 0, cycles, false
	}
	return node.pte[idx] - 1, cycles, true
}

// install maps vpn -> pfn, creating intermediate levels as needed. Returns
// the cycle cost. Fails only when physical memory for table pages runs out
// (the error wraps simerr.ErrOutOfMemory).
func (k *Kernel) install(pt *PageTable, vpn, pfn uint64) (uint64, error) {
	var cycles uint64
	if pt.root == nil {
		n, c, err := k.newPTNode(false)
		if err != nil {
			return cycles, err
		}
		pt.root = n
		cycles += c
	} else if pt.root.shared {
		pt.root = k.nodes.clone(pt.root)
	}
	node := pt.root
	for level := ptLevels - 1; level >= 1; level-- {
		idx := ptIndex(vpn, level)
		cycles += k.mem.Access(node.pfn<<config.PageShift+idx*8, false)
		if node.children[idx] == nil {
			leaf := level == 1
			n, c, err := k.newPTNode(leaf)
			if err != nil {
				return cycles, err
			}
			cycles += c
			// Write the new entry into this level.
			cycles += k.mem.Access(node.pfn<<config.PageShift+idx*8, true)
			node.children[idx] = n
		} else if node.children[idx].shared {
			// Copy-on-write: privatize the path before the PTE write below.
			// Host-side bookkeeping only — the simulated frame is unchanged,
			// so no cycles are charged.
			node.children[idx] = k.nodes.clone(node.children[idx])
		}
		node = node.children[idx]
	}
	idx := ptIndex(vpn, 0)
	cycles += k.mem.Access(node.pfn<<config.PageShift+idx*8, true)
	node.pte[idx] = pfn + 1
	return cycles, nil
}

// clear unmaps vpn, returning the old PFN and the cycle cost of the PTE
// write. Empty page-table pages are freed recursively by munmap's sweep
// (clear itself leaves structure in place for speed; see reapEmpty).
func (pt *PageTable) clear(vpn uint64, mem Mem) (pfn uint64, cycles uint64, ok bool) {
	node := pt.root
	if node == nil {
		return 0, 0, false
	}
	for level := ptLevels - 1; level >= 1; level-- {
		idx := ptIndex(vpn, level)
		cycles += mem.Access(node.pfn<<config.PageShift+idx*8, false)
		node = node.children[idx]
		if node == nil {
			return 0, cycles, false
		}
	}
	idx := ptIndex(vpn, 0)
	if node.pte[idx] == 0 {
		return 0, cycles, false
	}
	pfn = node.pte[idx] - 1
	if node.shared {
		// Copy-on-write: a shared leaf implies a shared path (a private node
		// is never linked under a shared parent), so privatize the whole
		// path before the PTE write. Host bookkeeping only, no cycles.
		node = pt.ownPath(vpn)
	}
	node.pte[idx] = 0
	cycles += mem.Access(node.pfn<<config.PageShift+idx*8, true)
	return pfn, cycles, true
}

// ptesPerLine is the number of PTEs in one 64-byte cache line.
const ptesPerLine = config.LineSize / 8

// nextRun measures the teardown run at vpn (< end): the n consecutive VPNs
// whose clear issues the same accesses with the same outcome. It writes
// those accesses to acc[:m] (the walk's reads, then the PTE write when the
// run's PTEs are present) and returns the run's leaf when they are. A run
// is the VPNs under one missing table, up to the end of that entry's
// block; or a run of zero PTEs in one leaf; or present PTEs within one
// 64-byte PTE line. Host bookkeeping only: nothing is charged or changed.
func (pt *PageTable) nextRun(vpn, end uint64, acc *[ptLevels]uint64) (n uint64, m int, leaf *ptNode) {
	node := pt.root
	if node == nil {
		return end - vpn, 0, nil
	}
	for level := ptLevels - 1; level >= 1; level-- {
		idx := ptIndex(vpn, level)
		acc[m] = node.pfn<<config.PageShift + idx*8
		m++
		if node = node.children[idx]; node == nil {
			shift := uint(9 * level)
			return min(end, (vpn>>shift+1)<<shift) - vpn, m, nil
		}
	}
	idx := ptIndex(vpn, 0)
	lim := min(end-vpn, ptFanout-idx)
	present := node.pte[idx] != 0
	if present {
		acc[m] = node.pfn<<config.PageShift + idx*8
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

// ownPath privatizes every node on vpn's walk path, cloning shared nodes,
// and returns the (now private) leaf. Callers must know the path exists.
func (pt *PageTable) ownPath(vpn uint64) *ptNode {
	if pt.root.shared {
		pt.root = pt.nodes.clone(pt.root)
	}
	node := pt.root
	for level := ptLevels - 1; level >= 1; level-- {
		idx := ptIndex(vpn, level)
		if node.children[idx].shared {
			node.children[idx] = pt.nodes.clone(node.children[idx])
		}
		node = node.children[idx]
	}
	return node
}

// reapEmpty frees page-table pages that no longer contain any valid entry,
// as munmap does when "relevant page tables become empty" (Section 2.1).
// It returns the number of table pages freed and the cycle cost. Freed
// private nodes are recycled (see ptFree).
func (k *Kernel) reapEmpty(pt *PageTable) (freed uint64, cycles uint64) {
	if pt.root == nil {
		return 0, 0
	}
	// rec returns the (possibly cloned) node and whether its subtree is
	// empty. Dropping an empty child mutates the parent, so a shared parent
	// is cloned first and the clone bubbles up to be re-linked (CoW path
	// copying, host bookkeeping only). The freed child node itself is not
	// mutated — only its frame returns to the live buddy allocator; any
	// snapshot aliasing it keeps its own consistent view of that frame.
	var rec func(n *ptNode) (*ptNode, bool)
	rec = func(n *ptNode) (*ptNode, bool) {
		if n.pte != nil {
			for _, e := range n.pte {
				if e != 0 {
					return n, false
				}
			}
			return n, true
		}
		allEmpty := true
		for i := range n.children {
			c := n.children[i]
			if c == nil {
				continue
			}
			nc, empty := rec(c)
			if empty {
				if err := k.buddy.Free(nc.pfn); err == nil {
					freed++
					k.stats.PageTablePages--
					cycles += k.buddyFreeCycles
				}
				k.nodes.put(nc)
				if n.shared {
					n = k.nodes.clone(n)
				}
				n.children[i] = nil
				continue
			}
			allEmpty = false
			if nc != c {
				if n.shared {
					n = k.nodes.clone(n)
				}
				n.children[i] = nc
			}
		}
		return n, allEmpty
	}
	root, empty := rec(pt.root)
	if empty {
		if err := k.buddy.Free(root.pfn); err == nil {
			freed++
			k.stats.PageTablePages--
			cycles += k.buddyFreeCycles
		}
		k.nodes.put(root)
		pt.root = nil
	} else {
		pt.root = root
	}
	return freed, cycles
}
