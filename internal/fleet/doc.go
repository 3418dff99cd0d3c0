// Package fleet is the cluster-scale layer of the reproduction: a
// discrete-event simulator that schedules serverless invocation traces
// (Poisson, bursty, diurnal arrival patterns over the benchmark workloads)
// across a pool of simulated hosts with pluggable placement and
// keep-warm/eviction policies.
//
// The per-invocation costs come from the machine layer underneath: the
// default backend builds one warm-start checkpoint per (workload, stack)
// with machine.PrepareWarm and measures a restored run, so a warm hit in
// the fleet prices exactly what the snapshot cache saves, and a cold miss
// pays the measured container-plus-setup cost. The paper evaluates Memento
// one instance at a time; this package asks its fleet-level question —
// how much of the ephemeral-memory churn across thousands of concurrent
// invocations do cold-start fraction and keep-warm policy decide — the
// scale the vHive snapshot study and Squeezy target.
//
// The scheduling hot path is indexed: a least-loaded tournament tree,
// per-workload warm heaps over the eligible hosts, per-host idle-sorted
// warm rings with an engine-level slab of warm-instance records, and an
// arrivals cursor merged with the completion/expiry queue answer every
// placement, victim, and expiry query in O(1)-O(log N), where the
// original engine scanned O(hosts x warm instances) per event. Workloads
// are dense ids the arrival stream numbers, so no event hashes a string.
// The tree is 8-ary with early-exit updates; the queue orders compact
// (time, seq, slot, lane) keys over a payload slab, and keys of one delay
// class (a completion's workload, warm or cold, and co-residency degree;
// a fixed keep-alive TTL) arrive in time order and ride that class's FIFO
// lane instead of its heap. The original scans are retained in
// reference.go as ground truth — WithReferenceScans routes every accessor
// through them — and the index tie-breaks reproduce the scan order
// exactly, so the two engines are differentially tested for deeply equal
// Results (Conformance, the index test suite). 10k-host,
// million-invocation runs finish in under a second (BenchmarkFleetScale).
//
// # Invariants
//
// Determinism: arrivals come from an explicitly seeded local rand.Source
// (never the global one), the event queue breaks ties on (time, seq) — a
// total order, so how it splits keys between lanes and heap cannot change
// the schedule — and the cost backend memoizes machine runs, metering the
// delta restore on a machine it holds rather than one recycled through a
// sync.Pool. The same Fleet configuration always produces the same
// Result, including under -race. Nothing reads clocks or ambient
// randomness.
//
// Pool sort: the simulation clock is non-decreasing and warm instances
// are only appended at completion times, so each host's pool is always
// sorted by idleSince — the invariant behind the O(1) LRU victim and the
// binary-search freshest lookup. verifyIndexes checks it after every
// event when selfCheck is set.
//
// Golden coupling: the 18-row pattern x policy x stack study is pinned
// byte-for-byte by experiments_fleet_output.txt
// (TestExperimentsFleetGolden); regenerate after an intentional change
// with:
//
//	go run ./cmd/experiments -fleet > experiments_fleet_output.txt
//
// Exported surface: Fleet, Arrivals, the Policy/Backend/Probe interfaces,
// and Result are consumed by cmd/fleet and internal/experiments; keep
// them stable or update both callers and the golden in the same change.
package fleet
