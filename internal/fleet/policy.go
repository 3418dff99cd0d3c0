package fleet

import "fmt"

// NoExpiry keeps a warm instance alive until memory pressure evicts it.
const NoExpiry = ^uint64(0)

// Warm describes one idle warm instance in a host's pool, as seen by a
// Policy.
type Warm struct {
	// Workload names the profile the instance was set up for.
	Workload string
	// Pages is the resident memory the instance pins while idle.
	Pages uint64
	// IdleSince is when the instance last finished an invocation.
	IdleSince uint64
	// ExpireAt is the keep-alive deadline (NoExpiry = none).
	ExpireAt uint64
}

// Policy decides placement, keep-warm lifetime, and eviction victims. The
// engine consults it with a read-only Cluster view; implementations must
// be deterministic pure functions of that view and their own configuration
// (no wall clock, no unseeded randomness), which is what makes fleet runs
// reproducible. The shipped policies — AlwaysCold, KeepAlive, LRU — also
// serve as reference implementations; Conformance checks any new one
// against the engine contract.
type Policy interface {
	// Name labels the policy in results and tables.
	Name() string
	// Place returns the host to run inv on, or -1 to queue until capacity
	// frees up. The engine validates the choice: a host without a free
	// core slot, or without memory for a cold instance after evictions,
	// sends the invocation to the FIFO queue.
	Place(c *Cluster, inv Invocation) int
	// KeepWarmTTL returns how many cycles to keep the instance warm after
	// an invocation finishes: 0 releases it immediately (always-cold),
	// NoExpiry keeps it until evicted for capacity.
	KeepWarmTTL(c *Cluster, inv Invocation) uint64
	// Victim returns the index (into the host's warm pool) of the instance
	// to evict under memory pressure, or -1 to refuse — which queues the
	// invocation that needed the space.
	Victim(c *Cluster, host int) int
}

// PlaceWarmFirst is the placement helper the keep-warm policies share: the
// host holding the most-recently-idled warm instance for inv's workload
// that also has a free core slot; falling back to PlaceLeastLoaded when no
// warm instance exists. Exported so custom policies can reuse it — it
// reads the engine's warm index (Cluster.BestWarmHost), so a custom policy
// built on it answers in O(1) instead of scanning every host's pool.
func PlaceWarmFirst(c *Cluster, inv Invocation) int {
	if h := c.bestWarm(c.idOf(inv)); h >= 0 {
		return h
	}
	return PlaceLeastLoaded(c, inv)
}

// PlaceLeastLoaded returns the host with a free core slot running the
// fewest invocations, breaking ties toward more free memory, then the
// lower index. Returns -1 when every core slot in the cluster is busy.
// Reads the engine's least-loaded index (Cluster.LeastLoadedHost): O(1).
func PlaceLeastLoaded(c *Cluster, _ Invocation) int {
	return c.LeastLoadedHost()
}

// VictimLRU returns the least-recently-used warm instance on the host
// (lowest IdleSince, ties toward the lower index), or -1 for an empty
// pool. Exported so custom policies can reuse it. The warm pool is kept
// in idle order, so this is the pool head (Cluster.OldestWarm): O(1).
func VictimLRU(c *Cluster, host int) int {
	return c.OldestWarm(host)
}

// alwaysCold never keeps instances warm: every invocation pays the full
// cold start — the no-snapshot baseline every keep-warm policy is measured
// against.
type alwaysCold struct{}

// AlwaysCold returns the always-cold baseline policy.
func AlwaysCold() Policy { return alwaysCold{} }

func (alwaysCold) Name() string                            { return "always-cold" }
func (alwaysCold) Place(c *Cluster, inv Invocation) int    { return PlaceLeastLoaded(c, inv) }
func (alwaysCold) KeepWarmTTL(*Cluster, Invocation) uint64 { return 0 }
func (alwaysCold) Victim(*Cluster, int) int                { return -1 }

// keepAlive keeps each finished instance warm for a fixed TTL — the
// fixed keep-alive window of production FaaS platforms.
type keepAlive struct{ ttl uint64 }

// KeepAlive returns the keep-alive-TTL policy: instances stay warm for ttl
// cycles after each invocation and are also evictable (LRU) under memory
// pressure. A zero ttl degenerates to AlwaysCold behaviour.
func KeepAlive(ttl uint64) Policy { return keepAlive{ttl: ttl} }

func (p keepAlive) Name() string                            { return fmt.Sprintf("keep-alive(%dM)", p.ttl/1_000_000) }
func (p keepAlive) Place(c *Cluster, inv Invocation) int    { return PlaceWarmFirst(c, inv) }
func (p keepAlive) KeepWarmTTL(*Cluster, Invocation) uint64 { return p.ttl }
func (p keepAlive) Victim(c *Cluster, h int) int            { return VictimLRU(c, h) }

// lru keeps every instance warm indefinitely and relies on
// least-recently-used eviction when a cold placement needs the memory.
type lru struct{}

// LRU returns the LRU-eviction policy: no keep-alive deadline, warm pool
// bounded only by host memory.
func LRU() Policy { return lru{} }

func (lru) Name() string                            { return "lru" }
func (lru) Place(c *Cluster, inv Invocation) int    { return PlaceWarmFirst(c, inv) }
func (lru) KeepWarmTTL(*Cluster, Invocation) uint64 { return NoExpiry }
func (lru) Victim(c *Cluster, h int) int            { return VictimLRU(c, h) }
