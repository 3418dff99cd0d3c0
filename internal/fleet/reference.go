package fleet

import "fmt"

// Reference implementations of the scheduling queries, retained verbatim
// from the scan-per-event engine. They are the ground truth the indexed
// accessors are differentially tested against, and the path every query
// takes under WithReferenceScans: pure linear scans over the Cluster's
// public view, with the tie-breaks the indexes must reproduce exactly —
// strict comparisons keep the first maximum (lowest host, then lowest
// pool index) a low-to-high scan encounters.

// refLeastLoaded is the pre-index PlaceLeastLoaded: scan every host for a
// free slot, keep the fewest running, break ties toward more free pages,
// then the lower index.
func (c *Cluster) refLeastLoaded() int {
	best := -1
	for h := 0; h < c.NumHosts(); h++ {
		if c.FreeSlots(h) == 0 {
			continue
		}
		if best == -1 ||
			c.Running(h) < c.Running(best) ||
			(c.Running(h) == c.Running(best) && c.FreePages(h) > c.FreePages(best)) {
			best = h
		}
	}
	return best
}

// refBestWarmHost is the warm half of the pre-index PlaceWarmFirst: scan
// every warm instance on every host with a free slot, keep the host of
// the strictly freshest match, or -1 when none exists.
func (c *Cluster) refBestWarmHost(workload string) int {
	best, bestIdle := -1, uint64(0)
	for h := 0; h < c.NumHosts(); h++ {
		if c.FreeSlots(h) == 0 {
			continue
		}
		for i := 0; i < c.WarmCount(h); i++ {
			w := c.WarmAt(h, i)
			if w.Workload != workload {
				continue
			}
			if best == -1 || w.IdleSince > bestIdle {
				best, bestIdle = h, w.IdleSince
			}
		}
	}
	return best
}

// refWarmFreshest is the pre-index within-host consume scan: the first
// pool index holding the maximal IdleSince among matching instances, or
// -1.
func (c *Cluster) refWarmFreshest(h int, workload string) int {
	best := -1
	for i := 0; i < c.WarmCount(h); i++ {
		w := c.WarmAt(h, i)
		if w.Workload != workload {
			continue
		}
		if best == -1 || w.IdleSince > c.WarmAt(h, best).IdleSince {
			best = i
		}
	}
	return best
}

// refVictimLRU is the pre-index VictimLRU: the lowest IdleSince, ties
// toward the lower pool index.
func (c *Cluster) refVictimLRU(h int) int {
	best := -1
	for i := 0; i < c.WarmCount(h); i++ {
		if best == -1 || c.WarmAt(h, i).IdleSince < c.WarmAt(h, best).IdleSince {
			best = i
		}
	}
	return best
}

// verifyIndexes cross-checks every indexed accessor against its reference
// scan on the engine's current cluster state, plus the pool sort
// invariant the O(1) LRU victim depends on. It is O(hosts x warm pool) —
// test and Conformance use only; the engine never calls it on the hot
// path unless selfCheck is set.
func (e *engine) verifyIndexes() error {
	c := &e.c
	if c.naive {
		// Accessors are routed through the scans themselves; nothing to
		// compare.
		return nil
	}
	if got, want := c.LeastLoadedHost(), c.refLeastLoaded(); got != want {
		return fmt.Errorf("fleet: index divergence at t=%d: LeastLoadedHost=%d, reference scan=%d", c.now, got, want)
	}
	for h := range c.hosts {
		host := &c.hosts[h]
		for i := host.whead + 1; i < len(host.warm); i++ {
			if host.warm[i].idleSince < host.warm[i-1].idleSince {
				return fmt.Errorf("fleet: host %d warm pool not sorted by idleSince at %d", h, i-host.whead)
			}
		}
		if got, want := c.OldestWarm(h), c.refVictimLRU(h); got != want {
			return fmt.Errorf("fleet: index divergence at t=%d: OldestWarm(%d)=%d, reference scan=%d", c.now, h, got, want)
		}
	}
	for _, w := range c.names {
		if got, want := c.BestWarmHost(w), c.refBestWarmHost(w); got != want {
			return fmt.Errorf("fleet: index divergence at t=%d: BestWarmHost(%s)=%d, reference scan=%d", c.now, w, got, want)
		}
		for h := range c.hosts {
			if got, want := c.WarmFreshest(h, w), c.refWarmFreshest(h, w); got != want {
				return fmt.Errorf("fleet: index divergence at t=%d: WarmFreshest(%d, %s)=%d, reference scan=%d", c.now, h, w, got, want)
			}
		}
	}
	return nil
}
