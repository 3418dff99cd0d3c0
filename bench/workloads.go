package main

import (
	"embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"time"

	"memento/internal/config"
	"memento/internal/experiments"
	"memento/internal/fleet"
	"memento/internal/machine"
	"memento/internal/trace"
	"memento/internal/workload"
)

// benchWorkload is one workload of the benchmark: run performs a round's
// set-up and timed phase. Why each one exists is recorded in
// BENCHMARK.json and README.md.
type benchWorkload struct {
	name string
	run  func(r *round) error
}

var workloads = []benchWorkload{
	{"sweep", runSweep},
	{"warm-burst", runWarmBurst},
	{"fleet-lru", runFleet},
	{"fleet-ttl", runFleet},
	{"daemon-light", func(r *round) error { return runDaemon(r, lightRate) }},
	{"daemon-heavy", func(r *round) error { return runDaemon(r, heavyRate) }},
}

func workloadByName(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// The expected outputs: the sweep's and the seed-1 fleet runs' checksums,
// and the cycles of every plain daemon job. `-regen` rewrites both files.
//
//go:embed testdata/checksums.json testdata/daemon_cycles.json
var testdata embed.FS

const (
	checksumsFile    = "testdata/checksums.json"
	daemonCyclesFile = "testdata/daemon_cycles.json"
)

func loadJSON(name string, v any) error {
	raw, err := testdata.ReadFile(name)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// checksum returns the expected checksum stored under key, and whether
// there is one.
func checksum(key string) (uint64, bool, error) {
	var sums map[string]string
	if err := loadJSON(checksumsFile, &sums); err != nil {
		return 0, false, err
	}
	s, ok := sums[key]
	if !ok {
		return 0, false, nil
	}
	v, err := strconv.ParseUint(s, 16, 64)
	return v, true, err
}

// hashUints folds a label and a sequence of counters into an FNV-64a hash.
func hashUints(h hash.Hash64, label string, vs ...uint64) {
	h.Write([]byte(label))
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
}

// --- sweep ---------------------------------------------------------------

// sweepSum hashes every workload's cycles on the three stacks, in profile
// order.
func sweepSum(pairs map[string]*experiments.Pair) uint64 {
	h := fnv.New64a()
	for _, name := range workload.Names() {
		if p, ok := pairs[name]; ok {
			hashUints(h, name, p.Base.Cycles, p.Mem.Cycles, p.MemNoBypass.Cycles)
		}
	}
	return h.Sum64()
}

// runSweep times the paper's full sweep: 23 workloads on baseline, Memento
// and Memento without bypass, fanned out over GOMAXPROCS workers, each
// sweep on a new Suite. An untimed first sweep in set-up generates the
// traces and fills the checkpoint caches.
func runSweep(r *round) error {
	want, _, err := checksum("sweep")
	if err != nil {
		return err
	}
	sweep := func() error {
		sp := r.beginSpan("experiments.Suite.Pairs", -1, "")
		pairs, err := experiments.NewSuite(config.Default()).Pairs()
		r.endSpan(sp)
		r.attempt(1)
		if err != nil {
			r.fail("sweep: %v", err)
			return err
		}
		if got := sweepSum(pairs); got != want {
			r.fail("sweep checksum %016x, want %016x", got, want)
		}
		return nil
	}
	if err := sweep(); err != nil {
		return err
	}
	workers := runtime.GOMAXPROCS(0)
	cpu0, t0 := processCPU(), time.Now()
	if err := r.repeat(sweep); err != nil {
		return err
	}
	// How busy the sweep keeps its workers: CPU time over wall time times
	// workers (the garbage collections and reference timings between
	// sweeps are included).
	r.setLayer("experiments.parallel_efficiency", (processCPU()-cpu0).Seconds()/(time.Since(t0).Seconds()*float64(workers)))
	return nil
}

// --- warm-burst ----------------------------------------------------------

// invocationsPerBurst is one timed operation of warm-burst: 40 invocations
// of each of the 46 checkpoints.
const invocationsPerBurst = 1840

type warmSlot struct {
	tr   *trace.Trace
	opt  machine.Options
	w    *machine.WarmStart
	want uint64
}

// runWarmBurst times short warm invocations. Set-up shrinks every profile
// to max(Allocs/256, 200) allocations, seeds it, and prepares a checkpoint
// per profile and stack, plus a cold Machine.Run reference for its cycles.
// Each operation is a burst of restores from those checkpoints, run by
// GOMAXPROCS goroutines in a seeded order.
func runWarmBurst(r *round) error {
	cfg := config.Default()
	var slots []warmSlot
	for _, p := range workload.Profiles() {
		p.Allocs = max(p.Allocs/256, 200)
		p.Seed ^= r.seed
		sp := r.beginSpan("workload.Generate", -1, p.Name)
		tr := workload.Generate(p)
		r.endSpan(sp)
		for _, stack := range []machine.Stack{machine.Baseline, machine.Memento} {
			opt := machine.Options{Stack: stack}
			sp := r.beginSpan("machine.PrepareWarm", -1, p.Name)
			w, err := machine.PrepareWarm(cfg, tr, opt)
			r.endSpan(sp)
			if err != nil {
				return err
			}
			m, err := machine.New(cfg)
			if err != nil {
				return err
			}
			ref, err := m.Run(tr, opt)
			if err != nil {
				return err
			}
			slots = append(slots, warmSlot{tr: tr, opt: opt, w: w, want: ref.Cycles})
		}
	}
	n := invocationsPerBurst
	if r.toy {
		n = len(slots)
	}
	rng := rand.New(rand.NewSource(r.seed*7919 + int64(r.index)))
	workers := runtime.GOMAXPROCS(0)
	var restoreBytes, snapshotBytes, invocations uint64
	burst := func() error {
		order := make([]int, n)
		perm := rng.Perm(len(slots))
		for i := range order {
			order[i] = perm[i%len(perm)]
		}
		var wg sync.WaitGroup
		var mu sync.Mutex
		var firstErr error
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var rb, sb uint64
				for k := g; k < n; k += workers {
					s := slots[order[k]]
					sp := r.beginSpan("machine.WarmStart.RunMetered", -1, strconv.Itoa(k))
					res, rs, err := s.w.RunMetered(s.tr, s.opt)
					r.endSpan(sp)
					if err != nil {
						r.fail("warm %s/%s: %v", s.tr.Name, s.opt.Stack, err)
						mu.Lock()
						firstErr = err
						mu.Unlock()
						return
					}
					if res.Cycles != s.want {
						r.fail("warm %s/%s: %d cycles, cold reference %d", s.tr.Name, s.opt.Stack, res.Cycles, s.want)
					}
					rb += rs.RestoreBytes
					sb += rs.SnapshotBytes
				}
				mu.Lock()
				restoreBytes += rb
				snapshotBytes += sb
				mu.Unlock()
			}(g)
		}
		wg.Wait()
		r.attempt(n)
		invocations += uint64(n)
		return firstErr
	}
	if err := r.repeat(burst); err != nil {
		return err
	}
	r.setLayer("snapshot.restore_kb", float64(restoreBytes)/1024/float64(invocations))
	r.setLayer("snapshot.delta_ratio", float64(restoreBytes)/float64(snapshotBytes))
	return nil
}

// --- fleet ---------------------------------------------------------------

// staticCosts is the canned cost model of the repository's fleet-scale
// benchmarks: no machine simulation, so scheduling is the only work.
func staticCosts() *fleet.StaticBackend {
	return &fleet.StaticBackend{
		ByWorkload: map[string]fleet.Cost{
			"html": {RunCycles: 12_000_000, SetupCycles: 3_000_000, ColdExtraCycles: 2_400_000, FootprintPages: 1100},
			"aes":  {RunCycles: 8_000_000, SetupCycles: 2_000_000, ColdExtraCycles: 2_400_000, FootprintPages: 700},
			"jl":   {RunCycles: 15_000_000, SetupCycles: 2_500_000, ColdExtraCycles: 2_400_000, FootprintPages: 900},
		},
		Default: fleet.Cost{RunCycles: 10_000_000, SetupCycles: 2_000_000, ColdExtraCycles: 2_400_000, FootprintPages: 800},
	}
}

// newFleet builds the fleet of a fleet workload and returns it with its
// invocation count and the eviction reason its policy must produce.
// fleet-lru: bursty arrivals at about half the cluster's capacity on 10k
// hosts whose 1600 pages hold one or two instances, so LRU keeps evicting
// under memory pressure and invocations queue. fleet-ttl: Poisson arrivals
// on 1k roomy hosts under a keep-alive TTL, so instances expire instead.
// The toy sizes keep the same load on 50x fewer hosts.
func newFleet(name string, seed int64, toy bool) (*fleet.Fleet, int, string) {
	scale := 1
	if toy {
		scale = 50
	}
	arr := fleet.Bursty(1_000_000/scale, uint64(900*scale), seed)
	hosts := fleet.Hosts{Count: 10_000 / scale, Cores: 2, MemPages: 1600}
	policy, eviction := fleet.LRU(), "pressure"
	if name == "fleet-ttl" {
		arr = fleet.Poisson(300_000/scale, uint64(9000*scale), seed)
		hosts = fleet.Hosts{Count: 1000 / scale, Cores: 2, MemPages: 16384}
		policy, eviction = fleet.KeepAlive(150_000_000), "ttl"
	}
	return fleet.New(config.Default(),
		fleet.WithArrivals(arr),
		fleet.WithHosts(hosts),
		fleet.WithPolicy(policy),
		fleet.WithBackend(staticCosts()),
		fleet.WithoutLatencies(),
	), arr.N, eviction
}

// fleetSum hashes a fleet result's schedule summary.
func fleetSum(res *fleet.Result) uint64 {
	h := fnv.New64a()
	hashUints(h, res.Policy, uint64(res.ColdStarts), uint64(res.WarmHits), res.P50, res.P99, res.P999,
		res.PeakPages, uint64(len(res.Evictions)), uint64(res.MaxQueue), res.Horizon)
	return h.Sum64()
}

// checkFleet verifies a fleet run's invariants: every invocation completes
// exactly once, cold or warm, and the policy's eviction path was exercised.
func checkFleet(res *fleet.Result, n int, eviction string) error {
	if res.Invocations != n || res.ColdStarts+res.WarmHits != n {
		return fmt.Errorf("%d invocations (%d cold + %d warm), want %d", res.Invocations, res.ColdStarts, res.WarmHits, n)
	}
	for _, e := range res.Evictions {
		if e.Reason == eviction {
			return nil
		}
	}
	return fmt.Errorf("no %q evictions", eviction)
}

// runFleet times fleet runs of the round's workload, each building its
// arrivals afresh; a warm-up run in set-up also grows the heap.
func runFleet(r *round) error {
	want, pinned, err := checksum(r.name)
	if err != nil {
		return err
	}
	pinned = pinned && r.seed == 1 && !r.toy
	run := func() error {
		f, n, eviction := newFleet(r.name, r.seed, r.toy)
		sp := r.beginSpan("fleet.Fleet.Run", -1, "")
		res, err := f.Run(machine.Memento)
		r.endSpan(sp)
		r.attempt(1)
		if err != nil {
			r.fail("%s: %v", r.name, err)
			return err
		}
		if err := checkFleet(res, n, eviction); err != nil {
			r.fail("%s: %v", r.name, err)
		} else if got := fleetSum(res); pinned && got != want {
			r.fail("%s: checksum %016x, want %016x", r.name, got, want)
		}
		return nil
	}
	if err := run(); err != nil {
		return err
	}
	return r.repeat(run)
}
