package kernel

import (
	"math/bits"

	"memento/internal/pagetable"
)

// Snapshotting the kernel splits along ownership lines: machine-wide state
// (the buddy allocator and the cumulative counters) lives in Snapshot, while
// per-process state (page tables, VMAs, cursors, residency gauges) lives in
// AddressSpaceSnapshot. Probe and fault-injection hook attachments are NOT
// captured — they are observation wiring owned by the caller, which re-arms
// them after a restore; the cached probe flag is re-derived.
//
// Both snapshot kinds are delta-aware. The buddy allocator tracks dirty
// 256-frame windows of its intrusive-list arrays, so restoring the base
// snapshot copies only windows touched since capture and re-capturing an
// untouched allocator reuses the previous handle. Address-space snapshots
// alias the page-table tree behind copy-on-write (see pagetable.Node) instead
// of deep-cloning it on every capture and restore.

// buddyScalarBytes covers watermark, freeFrames, and the per-order heads.
const buddyScalarBytes = 8 + 8 + (MaxOrder+1)*4

// buddySnapshot is an immutable capture of the buddy allocator's state.
type buddySnapshot struct {
	watermark  uint64
	freeFrames uint64
	head       [MaxOrder + 1]int32
	prev       []int32
	next       []int32
	state      []uint8
}

// bytes returns the full captured size: the three tracking arrays (9 bytes
// per covered frame offset) plus the scalars.
func (s *buddySnapshot) bytes() uint64 {
	return uint64(len(s.state))*9 + buddyScalarBytes
}

func (b *Buddy) rebase(s *buddySnapshot) {
	b.snapBase = s
	b.clean = true
	for i := range b.dirty {
		b.dirty[i] = 0
	}
}

func (b *Buddy) snapshot() *buddySnapshot {
	if b.clean && b.snapBase != nil {
		return b.snapBase
	}
	s := &buddySnapshot{
		watermark:  b.watermark,
		freeFrames: b.freeFrames,
		head:       b.head,
		prev:       append([]int32(nil), b.prev...),
		next:       append([]int32(nil), b.next...),
		state:      append([]uint8(nil), b.state...),
	}
	b.rebase(s)
	return s
}

// restore brings the allocator back to s, returning the bytes copied. When
// s is the base snapshot only dirty windows are copied back; the live
// arrays are truncated to the snapshot's length if the watermark region
// grew them since capture (grow never re-extends in place — it allocates
// fresh arrays and copies only the visible length — so the stale tail
// beyond the truncated length is never observed).
func (b *Buddy) restore(s *buddySnapshot) uint64 {
	if s == b.snapBase {
		if b.clean {
			return 0
		}
		n := uint64(len(s.state))
		b.prev = b.prev[:n]
		b.next = b.next[:n]
		b.state = b.state[:n]
		var copied uint64
		for wi, word := range b.dirty {
			for word != 0 {
				blk := uint64(wi)<<6 + uint64(bits.TrailingZeros64(word))
				word &= word - 1
				lo := blk << dirtyBlockShift
				if lo >= n {
					// Window born after capture; gone with the truncation.
					continue
				}
				hi := lo + (1 << dirtyBlockShift)
				if hi > n {
					hi = n
				}
				copy(b.prev[lo:hi], s.prev[lo:hi])
				copy(b.next[lo:hi], s.next[lo:hi])
				copy(b.state[lo:hi], s.state[lo:hi])
				copied += (hi - lo) * 9
			}
			b.dirty[wi] = 0
		}
		b.watermark = s.watermark
		b.freeFrames = s.freeFrames
		b.head = s.head
		b.clean = true
		return copied + buddyScalarBytes
	}
	b.watermark = s.watermark
	b.freeFrames = s.freeFrames
	b.head = s.head
	b.prev = append(b.prev[:0], s.prev...)
	b.next = append(b.next[:0], s.next...)
	b.state = append(b.state[:0], s.state...)
	b.rebase(s)
	return s.bytes()
}

// kstatsBytes is the wire size of the kernel Stats struct (10 counters)
// plus frameAllocs and the forcePopulate flag.
const kstatsBytes = 10*8 + 8 + 1

// Snapshot is an immutable capture of the kernel's machine-wide state. It
// may be restored any number of times; a Snapshot may only be restored into
// a Kernel built from the same configuration.
type Snapshot struct {
	buddy         *buddySnapshot
	stats         Stats
	frameAllocs   uint64
	forcePopulate bool
}

// Bytes returns the full size of the captured state in bytes.
func (s *Snapshot) Bytes() uint64 { return s.buddy.bytes() + kstatsBytes }

// Snapshot captures the buddy allocator, counters, and mode flags. If
// nothing changed since the previous capture the previous handle is
// returned unchanged.
func (k *Kernel) Snapshot() *Snapshot {
	bs := k.buddy.snapshot()
	if b := k.base; b != nil && b.buddy == bs && b.stats == k.stats &&
		b.frameAllocs == k.frameAllocs && b.forcePopulate == k.forcePopulate {
		return b
	}
	s := &Snapshot{
		buddy:         bs,
		stats:         k.stats,
		frameAllocs:   k.frameAllocs,
		forcePopulate: k.forcePopulate,
	}
	k.base = s
	return s
}

// Restore replaces the kernel's machine-wide state with that of s, copying
// only what diverged from the base snapshot. The probe and alloc-hook
// attachments are preserved (callers re-arm them per run); the cached probe
// flag is re-derived. Returns the bytes copied.
func (k *Kernel) Restore(s *Snapshot) uint64 {
	clean := s == k.base && k.stats == s.stats &&
		k.frameAllocs == s.frameAllocs && k.forcePopulate == s.forcePopulate
	copied := k.buddy.restore(s.buddy)
	k.stats = s.stats
	k.frameAllocs = s.frameAllocs
	k.forcePopulate = s.forcePopulate
	k.probed = k.probe != nil
	k.base = s
	if clean && copied == 0 {
		return 0
	}
	return copied + kstatsBytes
}

// vmaBytes is the wire size of one vma (two VPNs + flag, padded).
const vmaBytes = 24

// asScalarBytes is the metered size of an address space's scalars: cursor,
// metaFrame, residentPages, peakResident and vmasCreated, plus one word
// for the page-table root.
const asScalarBytes = 6 * 8

// AddressSpaceSnapshot is an immutable capture of one process's
// address-space state: the 4-level page table, the sorted VMA list, the
// mmap cursor, and the residency gauges. The page-table tree is aliased,
// not copied: capture freezes it and both the snapshot and any live address
// space restored from it share the nodes until a mutation clones the
// affected path (copy-on-write). The Shootdown callback is NOT captured (it
// points at the restoring machine's TLBs); the caller re-wires it after
// restore.
type AddressSpaceSnapshot struct {
	root      *pagetable.Node
	vmas      []vma
	cursor    uint64
	metaFrame uint64

	residentPages uint64
	peakResident  uint64
	vmasCreated   uint64

	// treeBytes is the simulated size of the aliased page-table tree,
	// counted once at capture.
	treeBytes uint64
}

// Bytes returns the full size of the captured state — what a deep-copy
// restore would cost.
func (s *AddressSpaceSnapshot) Bytes() uint64 {
	return s.treeBytes + uint64(len(s.vmas))*vmaBytes + asScalarBytes
}

// CopiedBytes returns the bytes a restore actually copies (VMAs + scalars).
func (s *AddressSpaceSnapshot) CopiedBytes() uint64 {
	return uint64(len(s.vmas))*vmaBytes + asScalarBytes
}

// SharedBytes returns the bytes a restore aliases instead of copying (the
// frozen page-table tree).
func (s *AddressSpaceSnapshot) SharedBytes() uint64 { return s.treeBytes }

// ResidentPages returns the captured process's resident page count — the
// post-setup memory image warm-started instances share copy-on-write.
func (s *AddressSpaceSnapshot) ResidentPages() uint64 { return s.residentPages }

// Snapshot captures the address space. The returned value is immutable and
// may be restored any number of times. The page-table tree is frozen and
// aliased rather than cloned; an unchanged re-Snapshot is an O(1) handle
// reuse.
func (as *AddressSpace) Snapshot() *AddressSpaceSnapshot {
	if !as.mutated && as.base != nil {
		return as.base
	}
	root, treeBytes := as.pt.Freeze()
	s := &AddressSpaceSnapshot{
		root:          root,
		vmas:          append([]vma(nil), as.vmas...),
		cursor:        as.cursor,
		metaFrame:     as.metaFrame,
		residentPages: as.residentPages,
		peakResident:  as.peakResident,
		vmasCreated:   as.vmasCreated,
		treeBytes:     treeBytes,
	}
	as.base = s
	as.mutated = false
	return s
}

// RestoreAddressSpace materializes a new AddressSpace from a snapshot,
// without charging any cycles or allocating any frames: the snapshot's
// frames (data pages, page-table pages, the metadata frame) are already
// accounted as allocated in the kernel Snapshot taken alongside it. The
// page-table tree is aliased (copy-on-write), so the restore copies only
// the VMA list and scalars — s.CopiedBytes() of state, with
// s.SharedBytes() aliased. The caller must set the Shootdown callback
// before use.
func (k *Kernel) RestoreAddressSpace(s *AddressSpaceSnapshot) *AddressSpace {
	as := new(AddressSpace)
	k.RestoreAddressSpaceInto(as, s)
	return as
}

// RestoreAddressSpaceInto is RestoreAddressSpace into an existing
// AddressSpace value, whatever machine it last served: its VMA list's
// capacity is reused and the rest of its state is replaced.
func (k *Kernel) RestoreAddressSpaceInto(as *AddressSpace, s *AddressSpaceSnapshot) {
	*as = AddressSpace{
		k:             k,
		pt:            pagetable.New(&k.nodes, s.root),
		vmas:          append(as.vmas[:0], s.vmas...),
		cursor:        s.cursor,
		metaFrame:     s.metaFrame,
		residentPages: s.residentPages,
		peakResident:  s.peakResident,
		vmasCreated:   s.vmasCreated,
		base:          s,
	}
}

// Detach drops the address space's state and its references to the kernel
// it served, keeping only its VMA list's capacity for a later
// RestoreAddressSpaceInto.
func (as *AddressSpace) Detach() {
	*as = AddressSpace{vmas: as.vmas[:0]}
}
