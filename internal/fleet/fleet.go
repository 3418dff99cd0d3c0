package fleet

import (
	"fmt"
	"slices"
	"sync"

	"memento/internal/config"
	"memento/internal/machine"
	"memento/internal/stats"
)

// Hosts sizes the simulated host pool.
type Hosts struct {
	// Count is the number of hosts.
	Count int
	// Cores is the number of core slots per host; each slot runs one
	// invocation (or, with WithTimeShare, up to perCore co-residents).
	Cores int
	// MemPages is each host's memory capacity in 4 KiB pages, shared by
	// running instances and the warm pool.
	MemPages uint64
}

// DefaultHosts is the host pool used when WithHosts is not given:
// 4 hosts x 2 cores x 64 MiB.
func DefaultHosts() Hosts {
	return Hosts{Count: 4, Cores: 2, MemPages: 64 << 20 / config.PageSize}
}

// Fleet is a configured cluster simulation. Build one with New and
// functional options, then Run it per stack; a Fleet is reusable and every
// Run with the same configuration produces the identical Result.
type Fleet struct {
	cfg         config.Machine
	hosts       Hosts
	arr         Arrivals
	policy      Policy
	probe       Probe
	backend     Backend
	workers     int
	perCore     int
	quantum     int
	naive       bool
	noLatencies bool
	selfCheck   bool
}

// Option configures a Fleet.
type Option func(*Fleet)

// WithArrivals selects the invocation arrival trace (see Poisson, Bursty,
// Diurnal).
func WithArrivals(a Arrivals) Option { return func(f *Fleet) { f.arr = a } }

// WithHosts sizes the host pool.
func WithHosts(h Hosts) Option { return func(f *Fleet) { f.hosts = h } }

// WithPolicy selects the placement and keep-warm/eviction policy.
func WithPolicy(p Policy) Option { return func(f *Fleet) { f.policy = p } }

// WithProbe attaches an observer to every completion, eviction, and
// aggregate-memory change (nil detaches).
func WithProbe(p Probe) Option { return func(f *Fleet) { f.probe = p } }

// WithBackend replaces the cost model (nil restores the default
// machine-backed SimBackend). Tests use StaticBackend for canned costs.
func WithBackend(b Backend) Option { return func(f *Fleet) { f.backend = b } }

// WithMeasureWorkers bounds the parallel fan-out of the cost-model
// measurement (<= 0 selects one worker per distinct workload).
func WithMeasureWorkers(n int) Option { return func(f *Fleet) { f.workers = n } }

// WithReferenceScans selects the retained scan-per-event reference
// scheduling path: every placement helper and engine lookup runs the
// O(hosts x warm pool) linear scans the indexed engine replaced. Results
// are identical by contract — the differential suite enforces it — so the
// option exists only to let benchmarks and conformance tests compare the
// two engines.
func WithReferenceScans() Option { return func(f *Fleet) { f.naive = true } }

// WithoutLatencies drops the per-invocation latency vector from the
// Result: percentiles and the mean are still computed (by sorting the
// samples in place instead of a copy), but Result.Latencies comes back
// nil. At million-invocation scale the raw samples dominate the result's
// footprint; fleet-scale sweeps that only read the aggregates opt out.
func WithoutLatencies() Option { return func(f *Fleet) { f.noLatencies = true } }

// WithTimeShare lets every core slot co-schedule up to perCore
// invocations, round-robin with the given quantum (trace events), the way
// machine.Sched time-shares a core. A co-scheduled invocation's service
// time stretches by the co-residency degree at dispatch plus the
// context-switch surcharge the backend calibrates through machine.Sched —
// a first-order model of the §6.6 oversubscription study at fleet scale.
func WithTimeShare(perCore, quantum int) Option {
	return func(f *Fleet) {
		if perCore < 1 {
			perCore = 1
		}
		f.perCore, f.quantum = perCore, quantum
	}
}

// New builds a Fleet over the machine configuration with the given
// options. Defaults: DefaultHosts, Poisson(1000 invocations, mean gap 5M
// cycles, seed 1) over all workloads, the LRU policy, and the
// machine-backed cost model.
func New(cfg config.Machine, opts ...Option) *Fleet {
	f := &Fleet{
		cfg:     cfg,
		hosts:   DefaultHosts(),
		arr:     Poisson(1000, 5_000_000, 1),
		policy:  LRU(),
		perCore: 1,
	}
	for _, o := range opts {
		o(f)
	}
	if f.backend == nil {
		f.backend = NewSimBackend(cfg)
	}
	return f
}

// Probe observes fleet-level events during a Run. All hooks run
// synchronously on the simulation goroutine; probes observe only and never
// change the schedule.
type Probe interface {
	// Invocation fires at every invocation completion.
	Invocation(InvocationDone)
	// Eviction fires when a warm instance is dropped (TTL expiry or
	// memory pressure).
	Eviction(Eviction)
	// MemSample fires whenever the cluster's aggregate resident pages
	// change.
	MemSample(now uint64, pages uint64)
}

// InvocationDone is one completed invocation as seen by a Probe.
type InvocationDone struct {
	Invocation
	// Host ran the invocation.
	Host int
	// Start is the dispatch time (Start - Arrival is the queueing delay).
	Start uint64
	// End is the completion time (End - Arrival is the reported latency).
	End uint64
	// Warm reports whether the invocation consumed a warm instance.
	Warm bool
}

// Eviction is one warm-instance drop in the fleet's eviction log.
type Eviction struct {
	// Time is when the instance was dropped.
	Time uint64
	// Host held the instance.
	Host int
	// Workload names the instance's profile.
	Workload string
	// Pages is the memory released.
	Pages uint64
	// Reason is "ttl" (keep-alive deadline) or "pressure" (evicted to make
	// room for a cold placement).
	Reason string
}

// Result is the outcome of one fleet run.
type Result struct {
	// Policy, Stack, and Pattern identify the run.
	Policy  string
	Stack   machine.Stack
	Pattern string
	Hosts   Hosts

	// Invocations is the number of completed invocations (always the
	// arrival trace's N on success).
	Invocations int
	// ColdStarts and WarmHits partition the invocations by how they were
	// served.
	ColdStarts int
	WarmHits   int
	// SnapshotRestores counts the warm-start snapshot restores the cost
	// model performed during this run — the proof that warm pricing routes
	// through the machine layer's snapshot cache (0 when every cost was
	// already cached or a static backend is attached).
	SnapshotRestores uint64

	// P50/P99/P999 are invocation latency percentiles in cycles
	// (completion minus arrival, queueing included); MeanLatency is the
	// arithmetic mean. Latencies lists every invocation's latency in
	// completion order (nil under WithoutLatencies).
	P50, P99, P999 uint64
	MeanLatency    float64
	Latencies      []uint64

	// PeakPages is the high-water mark of aggregate resident pages across
	// the cluster (running instances plus warm pools); MeanPages is the
	// time-weighted mean over the run. Co-resident instances of the same
	// workload on a host share their copy-on-write warm-start base: the
	// first pays the full footprint, each sibling only the private
	// remainder, and an idle warm instance is trimmed down to its base
	// share (its private pages delta-restore on the next hit) — so
	// warm-heavy schedules peak far below footprint times occupancy.
	PeakPages uint64
	MeanPages float64

	// PeakSharedPages is the high-water mark of pages the copy-on-write
	// base sharing saved the cluster (pages siblings alias instead of
	// duplicating) — zero when no two instances of a workload co-reside.
	PeakSharedPages uint64
	// RestoreBytes is the total state the warm hits' delta restores copied:
	// WarmHits times each workload's measured steady-state restore delta.
	RestoreBytes uint64
	// SnapshotBytes sums the full checkpoint size over the distinct
	// workloads scheduled — the deep-copy cost RestoreBytes is measured
	// against.
	SnapshotBytes uint64

	// Evictions is the warm-instance eviction log in event order.
	Evictions []Eviction
	// MaxQueue is the deepest the pending queue got.
	MaxQueue int
	// Horizon is the completion time of the last invocation.
	Horizon uint64
}

// ColdFraction is the share of invocations that paid a cold start.
func (r *Result) ColdFraction() float64 {
	if r.Invocations == 0 {
		return 0
	}
	return float64(r.ColdStarts) / float64(r.Invocations)
}

// PeakBytes is the peak aggregate resident memory in bytes.
func (r *Result) PeakBytes() uint64 { return r.PeakPages * config.PageSize }

// Cluster is the engine state a Policy observes: host occupancy, free
// memory, and warm pools. All accessors are read-only views; the engine
// owns every mutation and keeps the placement indexes (least-loaded
// tournament, per-workload warm trees, uid map) in sync, so the
// accelerated accessors — LeastLoadedHost, BestWarmHost, WarmFreshest,
// OldestWarm — answer in O(1)-O(log N) what a full scan answers in
// O(hosts x warm instances), with identical tie-breaks.
type Cluster struct {
	now      uint64
	cores    int
	perCore  int
	memPages uint64
	hosts    []hostState

	// Placement indexes, engine-maintained. naive routes the accelerated
	// accessors through the retained reference scans instead (see
	// WithReferenceScans); the indexes stay maintained either way.
	// Workload names are interned to dense ids on first sight (wids), so
	// the per-event maintenance indexes slices instead of hashing strings.
	ll      *llTree
	warmIdx []*warmTree    // per-workload warm trees, by interned id
	wids    map[string]int // workload name -> interned id
	naive   bool
}

// widOf interns a workload name, allocating its warm tree on first sight.
func (c *Cluster) widOf(w string) int {
	if id, ok := c.wids[w]; ok {
		return id
	}
	id := len(c.warmIdx)
	c.wids[w] = id
	c.warmIdx = append(c.warmIdx, newWarmTree(len(c.hosts)))
	return id
}

type hostState struct {
	slots   []int // co-residents per core slot
	running int
	used    uint64
	// warm is the host's warm pool as a head-indexed ring: live entries
	// are warm[whead:], in warm-add order. The simulation clock is
	// non-decreasing, so the pool is always sorted by idleSince — the LRU
	// victim is the head, the freshest instance sits at the tail.
	warm  []warmInst
	whead int
	// uidPos maps a warm instance's uid to its internal position in warm,
	// so TTL expiry and eviction bookkeeping never scan the pool.
	uidPos map[int]int
	// wl lists, per interned workload id, the internal positions of that
	// workload's warm instances in ascending (hence idleSince-sorted)
	// order. It has one slot per workload of the run (newEngine).
	wl [][]int
	// resident counts resident instances (running plus warm) per workload;
	// co-residents share the workload's copy-on-write warm-start base, so
	// the first instance charges the full footprint and each sibling only
	// the private remainder.
	resident map[string]int
}

type warmInst struct {
	uid       int
	workload  string
	wid       int // interned workload id (Cluster.wids[workload])
	pages     uint64
	idleSince uint64
	expireAt  uint64
	// wslot is this instance's slot in its workload's wl position list.
	wslot int
	// trimmed marks a lazily-kept instance: its private pages were dropped
	// when it went idle (a warm hit delta-restores them from the shared
	// checkpoint base), so it holds only its share of the base. Only
	// possible when the cost model reports a shared base to restore from.
	trimmed bool
}

// Now is the simulation clock in cycles.
func (c *Cluster) Now() uint64 { return c.now }

// NumHosts is the host-pool size.
func (c *Cluster) NumHosts() int { return len(c.hosts) }

// Cores is the number of core slots per host.
func (c *Cluster) Cores() int { return c.cores }

// MemPages is each host's memory capacity in pages.
func (c *Cluster) MemPages() uint64 { return c.memPages }

// Running is the number of invocations currently executing on the host.
func (c *Cluster) Running(h int) int { return c.hosts[h].running }

// FreeSlots is the host's remaining admission capacity: core slots times
// the time-share degree, minus running invocations.
func (c *Cluster) FreeSlots(h int) int { return c.cores*c.perCore - c.hosts[h].running }

// FreePages is the host's unclaimed memory in pages.
func (c *Cluster) FreePages(h int) uint64 { return c.memPages - c.hosts[h].used }

// UsedPages is the host's resident memory in pages (running plus warm).
func (c *Cluster) UsedPages(h int) uint64 { return c.hosts[h].used }

// WarmCount is the size of the host's warm pool.
func (c *Cluster) WarmCount(h int) int { return len(c.hosts[h].warm) - c.hosts[h].whead }

// WarmAt describes one warm instance of the host's pool. Pool indexes run
// in warm-add order, which is also ascending IdleSince order.
func (c *Cluster) WarmAt(h, i int) Warm {
	w := c.hosts[h].warm[c.hosts[h].whead+i]
	return Warm{Workload: w.workload, Pages: w.pages, IdleSince: w.idleSince, ExpireAt: w.expireAt}
}

// LeastLoadedHost is the accelerated PlaceLeastLoaded query: the host
// with a free core slot running the fewest invocations (ties toward more
// free pages, then the lower index), or -1 when every slot is busy. O(1)
// off the least-loaded tournament tree.
func (c *Cluster) LeastLoadedHost() int {
	if c.naive {
		return c.refLeastLoaded()
	}
	return c.ll.best()
}

// BestWarmHost is the accelerated cross-host half of PlaceWarmFirst: the
// host with a free core slot holding the most-recently-idled warm
// instance for the workload (ties toward the lower host index), or -1
// when no such instance exists anywhere. O(1) off the workload's warm
// tournament tree.
func (c *Cluster) BestWarmHost(workload string) int {
	if c.naive {
		return c.refBestWarmHost(workload)
	}
	id, ok := c.wids[workload]
	if !ok {
		return -1
	}
	return c.warmIdx[id].best()
}

// WarmFreshest is the accelerated within-host warm lookup: the pool index
// (as seen by WarmAt) of host h's most-recently-idled warm instance for
// the workload, or -1 when none. Ties reproduce a low-to-high scan with a
// strict comparison — the first instance of the maximal IdleSince run —
// in O(log warm pool).
func (c *Cluster) WarmFreshest(h int, workload string) int {
	if c.naive {
		return c.refWarmFreshest(h, workload)
	}
	id, ok := c.wids[workload]
	if !ok {
		return -1
	}
	host := &c.hosts[h]
	wl := host.wl[id]
	if len(wl) == 0 {
		return -1
	}
	maxIdle := host.warm[wl[len(wl)-1]].idleSince
	// Positions in wl ascend and idleSince along them is non-decreasing
	// (the pool sort invariant), so binary-search the first entry of the
	// maximal run.
	lo, hi := 0, len(wl)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if host.warm[wl[mid]].idleSince == maxIdle {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return wl[lo] - host.whead
}

// OldestWarm is the accelerated VictimLRU query: the pool index of host
// h's least-recently-used warm instance (lowest IdleSince, ties toward
// the lower index), or -1 for an empty pool. The pool sort invariant
// makes this the head — O(1).
func (c *Cluster) OldestWarm(h int) int {
	if c.naive {
		return c.refVictimLRU(h)
	}
	if c.WarmCount(h) == 0 {
		return -1
	}
	return 0
}

// event kinds, processed in (time, seq) order. Arrivals are not queued
// events: they feed from the time-sorted trace through a cursor and win
// ties against same-time completions and expiries (in the heap-fed engine
// every arrival was pushed first, so its seq was lower).
const (
	evCompletion = iota
	evExpiry
)

// event is a queued event's payload, one 64-byte slab entry; its time and
// seq live in the queue's key.
type event struct {
	inv  Invocation // completion: the invocation
	ded  uint64     // completion: dispatch time
	uid  int        // expiry: the warm instance
	host int32
	slot int32 // completion: the core slot
	kind uint8
	warm bool // completion: served by a warm instance
}

// engine is the per-Run mutable state.
type engine struct {
	f       *Fleet
	stack   machine.Stack
	c       Cluster
	costs   map[string]Cost
	events  eventQueue
	pending pendingRing
	uid     int
	// selfCheck cross-checks every indexed accessor against its reference
	// scan after each event (Conformance turns it on).
	selfCheck bool

	res        *Result
	lastMemT   uint64
	pageCycles uint64
	curPages   uint64
	curShared  uint64
}

// slotFree reports whether host h can admit another invocation.
func (e *engine) slotFree(h int) bool {
	return e.c.hosts[h].running < e.c.cores*e.c.perCore
}

// syncHostLL re-keys host h in the least-loaded tree after a running or
// used-pages change.
func (e *engine) syncHostLL(h int) {
	host := &e.c.hosts[h]
	e.c.ll.update(h, host.running, e.c.memPages-host.used, e.slotFree(h))
}

// syncWarmLeaf re-keys host h in workload wid's warm tree: the host's
// freshest matching idle time when it holds one and has a free slot,
// ineligible otherwise.
func (e *engine) syncWarmLeaf(h, wid int) {
	host := &e.c.hosts[h]
	t := e.c.warmIdx[wid]
	wl := host.wl[wid]
	if len(wl) == 0 || !e.slotFree(h) {
		t.update(h, 0, false)
		return
	}
	t.update(h, host.warm[wl[len(wl)-1]].idleSince, true)
}

// setRunning adjusts host h's running count, keeping the indexes in sync.
// Crossing the all-slots-busy boundary flips the host's eligibility in
// every warm tree it appears in (the per-tree updates are independent, so
// map iteration order cannot affect the outcome).
func (e *engine) setRunning(h, delta int) {
	host := &e.c.hosts[h]
	wasFree := e.slotFree(h)
	host.running += delta
	e.syncHostLL(h)
	if free := e.slotFree(h); free != wasFree {
		// The per-tree updates are independent, so order cannot matter.
		for wid, wl := range host.wl {
			if len(wl) == 0 {
				continue
			}
			if t := e.c.warmIdx[wid]; free {
				t.update(h, host.warm[wl[len(wl)-1]].idleSince, true)
			} else {
				t.update(h, 0, false)
			}
		}
	}
}

// setUsed adjusts host h's resident pages, re-keying the free-pages
// tie-break in the least-loaded tree.
func (e *engine) setUsed(h int, delta int64) {
	host := &e.c.hosts[h]
	host.used = uint64(int64(host.used) + delta)
	e.syncHostLL(h)
}

// warmAdd appends a warm instance to host h's pool and indexes it. The
// simulation clock is non-decreasing, so appending preserves the pool's
// idleSince sort.
func (e *engine) warmAdd(h int, w warmInst) {
	host := &e.c.hosts[h]
	w.wid = e.c.widOf(w.workload)
	pos := len(host.warm)
	wl := host.wl[w.wid]
	w.wslot = len(wl)
	host.warm = append(host.warm, w)
	host.wl[w.wid] = append(wl, pos)
	host.uidPos[w.uid] = pos
	e.syncWarmLeaf(h, w.wid)
}

// warmRemove removes the warm instance at pool index i (as seen by
// WarmAt) from host h and returns it. A head removal — the LRU victim and
// most TTL expiries — is O(1); a middle removal splices and re-indexes
// only the shifted tail. The dead prefix is compacted once it dominates
// the ring, so long runs do not pin retired entries.
func (e *engine) warmRemove(h, i int) warmInst {
	host := &e.c.hosts[h]
	pos := host.whead + i
	w := host.warm[pos]

	// Drop pos from its workload's position list and re-slot the tail.
	wl := host.wl[w.wid]
	copy(wl[w.wslot:], wl[w.wslot+1:])
	wl = wl[:len(wl)-1]
	host.wl[w.wid] = wl
	for k := w.wslot; k < len(wl); k++ {
		host.warm[wl[k]].wslot = k
	}
	delete(host.uidPos, w.uid)

	if pos == host.whead {
		host.warm[pos] = warmInst{} // release the dead entry's strings
		host.whead++
	} else {
		copy(host.warm[pos:], host.warm[pos+1:])
		host.warm = host.warm[:len(host.warm)-1]
		for j := pos; j < len(host.warm); j++ {
			s := &host.warm[j]
			host.uidPos[s.uid] = j
			host.wl[s.wid][s.wslot] = j
		}
	}
	if host.whead == len(host.warm) {
		host.warm = host.warm[:0]
		host.whead = 0
	} else if host.whead >= 64 && host.whead*2 >= len(host.warm) {
		live := copy(host.warm, host.warm[host.whead:])
		for j := live; j < len(host.warm); j++ {
			host.warm[j] = warmInst{}
		}
		host.warm = host.warm[:live]
		for j := 0; j < live; j++ {
			s := &host.warm[j]
			host.uidPos[s.uid] = j
			host.wl[s.wid][s.wslot] = j
		}
		host.whead = 0
	}
	e.syncWarmLeaf(h, w.wid)
	return w
}

// neededPages is what admitting one more instance of workload w on host h
// would charge right now: the full footprint for the first resident
// instance, the private remainder when the shared base is already up.
func (e *engine) neededPages(h int, w string) uint64 {
	cost := e.costs[w]
	if e.c.hosts[h].resident[w] > 0 {
		return cost.FootprintPages - cost.SharedPages
	}
	return cost.FootprintPages
}

// chargePages admits one instance of workload w on host h, returning the
// pages charged and tracking the cluster-wide sharing high-water mark.
func (e *engine) chargePages(h int, w string) uint64 {
	host := &e.c.hosts[h]
	pages := e.neededPages(h, w)
	if host.resident[w] > 0 {
		e.curShared += e.costs[w].SharedPages
		if e.curShared > e.res.PeakSharedPages {
			e.res.PeakSharedPages = e.curShared
		}
	}
	host.resident[w]++
	return pages
}

// releasePages retires one instance of workload w from host h, returning
// the pages released. A fully-resident instance holds its private pages
// plus — when it is the last resident — the shared base; a trimmed warm
// instance holds only its base share, so dropping it releases nothing
// until the last resident leaves and the base itself goes.
func (e *engine) releasePages(h int, w string, trimmed bool) uint64 {
	host := &e.c.hosts[h]
	cost := e.costs[w]
	host.resident[w]--
	private := cost.FootprintPages - cost.SharedPages
	if trimmed {
		private = 0
	}
	if host.resident[w] > 0 {
		e.curShared -= cost.SharedPages
		return private
	}
	return private + cost.SharedPages
}

// Run executes the configured arrival trace on the given stack and
// returns the fleet-level result. The run is fully deterministic: the same
// Fleet configuration and stack always produce the identical Result,
// including the eviction log.
func (f *Fleet) Run(stack machine.Stack) (*Result, error) {
	if f.hosts.Count <= 0 || f.hosts.Cores <= 0 || f.hosts.MemPages == 0 {
		return nil, fmt.Errorf("fleet: host pool needs positive count, cores, and memory (got %+v)", f.hosts)
	}
	if f.policy == nil {
		return nil, fmt.Errorf("fleet: nil policy")
	}
	// A prefix of one copy of the arrival stream names the workloads to
	// price; the engine then pulls a second copy to the end.
	prefix, err := f.arr.stream()
	if err != nil {
		return nil, err
	}
	restores0 := f.backend.Restores()
	costs, err := f.measure(prefix.distinct(), stack)
	if err != nil {
		return nil, err
	}
	for name, c := range costs {
		if c.FootprintPages > f.hosts.MemPages {
			return nil, fmt.Errorf("fleet: workload %s needs %d pages but hosts have %d",
				name, c.FootprintPages, f.hosts.MemPages)
		}
	}
	arrivals, err := f.arr.stream()
	if err != nil {
		return nil, err
	}

	e := newEngine(f.hosts, f.perCore, costs)
	e.f, e.stack, e.selfCheck, e.c.naive = f, stack, f.selfCheck, f.naive
	e.res = &Result{
		Policy:  f.policy.Name(),
		Stack:   stack,
		Pattern: f.arr.Pattern.String(),
		Hosts:   f.hosts,
		// Every invocation completes exactly once.
		Latencies: make([]uint64, 0, f.arr.N),
	}
	for name := range costs {
		e.res.SnapshotBytes += costs[name].SnapshotBytes
	}
	if err := e.loop(arrivals); err != nil {
		return nil, err
	}
	if e.pending.len() > 0 {
		head := e.pending.front()
		return nil, fmt.Errorf("fleet: %d invocations unschedulable under policy %s (head: %s needing %d pages)",
			e.pending.len(), f.policy.Name(), head.Workload, costs[head.Workload].FootprintPages)
	}
	e.finishResult()
	e.res.SnapshotRestores = f.backend.Restores() - restores0
	return e.res, nil
}

// newEngine builds the engine state over an empty cluster of the given
// hosts for the workloads priced in costs. Each host's wl index gets one
// slot per workload up front: interned ids only ever name workloads that
// arrive, and every arriving workload has a cost.
func newEngine(hosts Hosts, perCore int, costs map[string]Cost) *engine {
	e := &engine{
		costs: costs,
		c: Cluster{
			cores:    hosts.Cores,
			perCore:  perCore,
			memPages: hosts.MemPages,
			hosts:    make([]hostState, hosts.Count),
			ll:       newLLTree(hosts.Count),
			wids:     make(map[string]int, len(costs)),
		},
	}
	nw := len(costs)
	wl := make([][]int, hosts.Count*nw)
	for i := range e.c.hosts {
		host := &e.c.hosts[i]
		host.slots = make([]int, hosts.Cores)
		host.resident = make(map[string]int)
		host.uidPos = make(map[int]int)
		host.wl = wl[i*nw : (i+1)*nw : (i+1)*nw]
		e.c.ll.update(i, 0, hosts.MemPages, true)
	}
	return e
}

// measure resolves the cost model for every distinct workload of the
// arrival trace, fanning measurements out across workers.
func (f *Fleet) measure(distinct []string, stack machine.Stack) (map[string]Cost, error) {
	workers := f.workers
	if workers <= 0 || workers > len(distinct) {
		workers = len(distinct)
	}
	costs := make(map[string]Cost, len(distinct))
	var mu sync.Mutex
	var firstErr error
	jobs := make(chan string)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for name := range jobs {
				var c Cost
				var err error
				if f.perCore > 1 {
					c, err = f.backend.MeasureShared(name, stack, f.quantum)
				} else {
					c, err = f.backend.Measure(name, stack)
				}
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
				} else {
					costs[name] = c
				}
				mu.Unlock()
			}
		}()
	}
	for _, name := range distinct {
		jobs <- name
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return costs, nil
}

// memDelta applies one aggregate-memory change at the current time,
// folding the elapsed interval into the time-weighted mean.
func (e *engine) memDelta(delta int64) {
	e.pageCycles += e.curPages * (e.c.now - e.lastMemT)
	e.lastMemT = e.c.now
	e.curPages = uint64(int64(e.curPages) + delta)
	if e.curPages > e.res.PeakPages {
		e.res.PeakPages = e.curPages
	}
	if e.f.probe != nil {
		e.f.probe.MemSample(e.c.now, e.curPages)
	}
}

// loop is the discrete-event core: arrivals are pulled one at a time from
// the time-sorted stream, merged against the completion/expiry queue. At
// equal times an arrival goes first — the same order the heap-fed engine
// produced, where every arrival was pushed before any dynamic event and so
// carried a lower seq.
func (e *engine) loop(arrivals *arrivalStream) error {
	inv, more := arrivals.next()
	for more || e.events.len() > 0 {
		if k, ok := e.events.peek(); more && (!ok || inv.Arrival <= k.time) {
			e.c.now = inv.Arrival
			placed, err := e.tryPlace(inv)
			if err != nil {
				return err
			}
			if !placed {
				e.pending.push(inv)
				if n := e.pending.len(); n > e.res.MaxQueue {
					e.res.MaxQueue = n
				}
			}
			inv, more = arrivals.next()
		} else {
			k := e.events.pop()
			e.c.now = k.time
			ev := &e.events.slab[k.slot]
			var err error
			switch ev.kind {
			case evCompletion:
				err = e.complete(ev)
			case evExpiry:
				err = e.expire(ev)
			}
			if err != nil {
				return err
			}
			e.events.release(k.slot)
		}
		if e.selfCheck {
			if err := e.verifyIndexes(); err != nil {
				return err
			}
		}
	}
	return nil
}

// tryPlace asks the policy for a host and dispatches the invocation if the
// choice is feasible. Returns false (queue it) when the policy declines or
// the host lacks a slot or, for a cold placement, memory even after
// policy-directed evictions.
func (e *engine) tryPlace(inv Invocation) (bool, error) {
	h := e.f.policy.Place(&e.c, inv)
	if h == -1 {
		return false, nil
	}
	if h < -1 || h >= len(e.c.hosts) {
		return false, fmt.Errorf("fleet: policy %s placed invocation %d on host %d of %d",
			e.f.policy.Name(), inv.ID, h, len(e.c.hosts))
	}
	host := &e.c.hosts[h]
	if e.c.FreeSlots(h) == 0 {
		return false, nil
	}
	cost := e.costs[inv.Workload]

	// Consume the freshest matching warm instance, if any.
	warmIdx := e.c.WarmFreshest(h, inv.Workload)
	warm := warmIdx >= 0
	if warm && host.warm[host.whead+warmIdx].trimmed {
		// A trimmed instance dropped its private pages when it went idle;
		// the delta restore copies them back, so re-charge them (evicting
		// under pressure like a cold placement would). Track the target by
		// uid: evictions may shift its pool index.
		targetUID := host.warm[host.whead+warmIdx].uid
		private := cost.FootprintPages - cost.SharedPages
		for e.c.FreePages(h) < private {
			v := e.f.policy.Victim(&e.c, h)
			if v == -1 {
				return false, nil
			}
			if v < -1 || v >= e.c.WarmCount(h) {
				return false, fmt.Errorf("fleet: policy %s evicted warm index %d of %d on host %d",
					e.f.policy.Name(), v, e.c.WarmCount(h), h)
			}
			e.evict(h, v, "pressure")
			if _, ok := host.uidPos[targetUID]; !ok {
				// The policy evicted the very instance we were about to
				// hit; fall back to a cold placement.
				warm = false
				break
			}
		}
		if warm {
			warmIdx = host.uidPos[targetUID] - host.whead
			e.setUsed(h, int64(private))
			e.memDelta(int64(private))
		}
	}
	if warm {
		e.warmRemove(h, warmIdx)
		// The base stays resident and aliased; the warm hit copies only the
		// measured delta-restore bytes.
		e.res.RestoreBytes += cost.RestoreBytes
	} else {
		for e.c.FreePages(h) < e.neededPages(h, inv.Workload) {
			v := e.f.policy.Victim(&e.c, h)
			if v == -1 {
				return false, nil
			}
			if v < -1 || v >= e.c.WarmCount(h) {
				return false, fmt.Errorf("fleet: policy %s evicted warm index %d of %d on host %d",
					e.f.policy.Name(), v, e.c.WarmCount(h), h)
			}
			e.evict(h, v, "pressure")
		}
		pages := e.chargePages(h, inv.Workload)
		e.setUsed(h, int64(pages))
		e.memDelta(int64(pages))
	}

	// Dispatch on the least-occupied core slot.
	slot := 0
	for i := 1; i < len(host.slots); i++ {
		if host.slots[i] < host.slots[slot] {
			slot = i
		}
	}
	host.slots[slot]++
	e.setRunning(h, 1)
	k := host.slots[slot]

	var base uint64
	if warm {
		base = cost.WarmLatency()
		e.res.WarmHits++
	} else {
		base = cost.ColdLatency()
		e.res.ColdStarts++
	}
	service := base
	if k > 1 {
		// Time-shared core: the run stretches by the co-residency degree at
		// dispatch and pays the Sched-calibrated context-switch surcharge.
		service = base*uint64(k) + cost.CtxSwitchCycles
	}
	e.events.push(e.c.now+service, event{kind: evCompletion,
		inv: inv, host: int32(h), slot: int32(slot), warm: warm, ded: e.c.now}, false)
	return true, nil
}

// complete retires one invocation, consults the keep-warm policy, and
// drains the pending queue against the freed capacity.
func (e *engine) complete(ev *event) error {
	h := int(ev.host)
	host := &e.c.hosts[h]
	host.slots[ev.slot]--
	e.setRunning(h, -1)

	lat := e.c.now - ev.inv.Arrival
	e.res.Latencies = append(e.res.Latencies, lat)
	if e.f.probe != nil {
		e.f.probe.Invocation(InvocationDone{
			Invocation: ev.inv, Host: h, Start: ev.ded, End: e.c.now, Warm: ev.warm,
		})
	}

	cost := e.costs[ev.inv.Workload]
	ttl := e.f.policy.KeepWarmTTL(&e.c, ev.inv)
	if ttl == 0 {
		pages := e.releasePages(h, ev.inv.Workload, false)
		e.setUsed(h, -int64(pages))
		e.memDelta(-int64(pages))
	} else {
		w := warmInst{
			uid: e.uid, workload: ev.inv.Workload, pages: cost.FootprintPages,
			idleSince: e.c.now, expireAt: NoExpiry,
		}
		if cost.SharedPages > 0 {
			// Lazy warm pool (the REAP insight at fleet scale): an idle
			// instance keeps only its share of the copy-on-write base and
			// drops the pages its run privatized — the next warm hit
			// delta-restores them from the checkpoint. Without a shared
			// base there is nothing to restore from, so the instance must
			// stay fully resident.
			private := cost.FootprintPages - cost.SharedPages
			e.setUsed(h, -int64(private))
			e.memDelta(-int64(private))
			w.pages = cost.SharedPages
			w.trimmed = true
		}
		e.uid++
		if ttl != NoExpiry {
			// Deadlines under a fixed TTL arrive in time order and ride
			// the queue's FIFO lane.
			w.expireAt = e.c.now + ttl
			e.events.push(w.expireAt, event{kind: evExpiry, host: ev.host, uid: w.uid}, true)
		}
		e.warmAdd(h, w)
	}
	return e.drainPending()
}

// expire drops a warm instance whose keep-alive deadline passed, unless a
// warm hit already consumed it. The uid map makes the lookup O(1).
func (e *engine) expire(ev *event) error {
	h := int(ev.host)
	host := &e.c.hosts[h]
	pos, ok := host.uidPos[ev.uid]
	if !ok {
		return nil
	}
	e.evict(h, pos-host.whead, "ttl")
	return e.drainPending()
}

// drainPending replays the FIFO queue head-first against freed capacity.
func (e *engine) drainPending() error {
	for e.pending.len() > 0 {
		placed, err := e.tryPlace(e.pending.front())
		if err != nil {
			return err
		}
		if !placed {
			return nil
		}
		e.pending.pop()
	}
	return nil
}

// evict removes warm instance i from host h and logs it. The pages
// released depend on sharing: a trimmed instance holds only base share,
// and a sibling keeping the base resident makes any eviction cheaper.
func (e *engine) evict(h, i int, reason string) {
	w := e.warmRemove(h, i)
	pages := e.releasePages(h, w.workload, w.trimmed)
	e.setUsed(h, -int64(pages))
	e.memDelta(-int64(pages))
	evn := Eviction{Time: e.c.now, Host: h, Workload: w.workload, Pages: pages, Reason: reason}
	e.res.Evictions = append(e.res.Evictions, evn)
	if e.f.probe != nil {
		e.f.probe.Eviction(evn)
	}
}

// finishResult folds the raw samples into the reported aggregates: one
// pass accumulates the mean while staging the percentile input, which is
// the samples themselves (sorted in place) under WithoutLatencies and a
// copy when the caller keeps Latencies in completion order.
func (e *engine) finishResult() {
	r := e.res
	r.Invocations = len(r.Latencies)
	r.Horizon = e.c.now
	e.pageCycles += e.curPages * (e.c.now - e.lastMemT)
	if e.c.now > 0 {
		r.MeanPages = float64(e.pageCycles) / float64(e.c.now)
	}
	var sum uint64
	sorted := r.Latencies
	if e.f.noLatencies {
		for _, l := range sorted {
			sum += l
		}
		r.Latencies = nil
	} else {
		sorted = make([]uint64, len(r.Latencies))
		for i, l := range r.Latencies {
			sorted[i] = l
			sum += l
		}
	}
	slices.Sort(sorted)
	r.P50 = stats.Percentile(sorted, 0.50)
	r.P99 = stats.Percentile(sorted, 0.99)
	r.P999 = stats.Percentile(sorted, 0.999)
	if len(sorted) > 0 {
		r.MeanLatency = float64(sum) / float64(len(sorted))
	}
}
