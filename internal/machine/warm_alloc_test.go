package machine

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"memento/internal/config"
	"memento/internal/workload"
)

// warmAllocCap is the average host allocation allowed per steady-state warm
// invocation.
const warmAllocCap = 4 << 10

// TestWarmInvocationAllocs pins the host cost of a steady-state warm
// invocation: every profile shrunk the way the warm-burst benchmark shrinks
// it, on both stacks, restored onto a held machine after one warm-up run.
// The restore lands the process state in the pooled scratch's slabs, so a
// run allocates (almost) nothing; the test fails above warmAllocCap bytes
// per invocation on average and logs every allocation site that remains.
func TestWarmInvocationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation distorts allocation counts")
	}
	if testing.Short() {
		t.Skip("46 checkpoints; skipped in -short mode")
	}
	// One P: sync.Pool keeps a scratch per P, so a goroutine that migrates
	// would find another P's pool empty and build a second scratch.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := config.Default()
	var runs []func()
	for _, p := range workload.Profiles() {
		p.Allocs = max(p.Allocs/256, 200)
		p.Seed ^= 1
		tr := workload.Generate(p)
		for _, stack := range []Stack{Baseline, Memento} {
			opt := Options{Stack: stack}
			ws, err := PrepareWarm(cfg, tr, opt)
			if err != nil {
				t.Fatal(err)
			}
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			run := func() {
				if _, _, err := ws.RunOn(m, tr, opt); err != nil {
					panic(fmt.Sprintf("%s/%v: %v", tr.Name, stack, err))
				}
			}
			run() // warm-up: the machine and the scratch reach steady state
			runs = append(runs, run)
		}
	}
	const rounds = 8
	prevRate := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = prevRate }()
	// The profile's forced collections would empty the scratch pool and
	// make the next run rebuild its slabs; hold the steady-state scratch
	// across them, as a pool between two natural collections keeps it.
	held := scratchPool.Get()
	before := memProfile()
	scratchPool.Put(held)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for r := 0; r < rounds; r++ {
		for _, run := range runs {
			run()
		}
	}
	runtime.ReadMemStats(&ms1)
	sites := allocSites(before, memProfile())
	n := float64(rounds * len(runs))
	perInv := float64(ms1.TotalAlloc-ms0.TotalAlloc) / n
	objs := float64(ms1.Mallocs-ms0.Mallocs) / n
	t.Logf("%d invocations: %.0f B and %.1f objects per invocation", int(n), perInv, objs)
	for _, s := range sites {
		t.Logf("  %8d B %6d objects  %s", s.bytes, s.objects, s.where)
	}
	if perInv > warmAllocCap {
		t.Errorf("a steady-state warm invocation allocates %.0f B on average, want at most %d; sites above", perInv, warmAllocCap)
	}
}

// memProfile returns the heap profile's cumulative records once the
// runtime has published every allocation made so far (a sample is
// published two collections after the one it was made in).
func memProfile() []runtime.MemProfileRecord {
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, _ = runtime.MemProfile(recs, true)
	return recs[:n]
}

type allocSite struct {
	where          string
	bytes, objects int64
}

// allocSites diffs two heap profiles and attributes each new allocation to
// the innermost frame in this module, largest first.
func allocSites(before, after []runtime.MemProfileRecord) []allocSite {
	type acc struct{ b, o int64 }
	prev := map[[32]uintptr]acc{}
	for _, r := range before {
		prev[r.Stack0] = acc{r.AllocBytes, r.AllocObjects}
	}
	bySite := map[string]*allocSite{}
	for _, r := range after {
		p := prev[r.Stack0]
		db, do := r.AllocBytes-p.b, r.AllocObjects-p.o
		if db <= 0 || do <= 0 {
			continue
		}
		where := "runtime"
		frames := runtime.CallersFrames(r.Stack())
		if f, _ := frames.Next(); strings.HasSuffix(f.Function, "machine.memProfile") {
			continue
		}
		frames = runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if strings.HasPrefix(f.Function, "memento/") {
				where = fmt.Sprintf("%s:%d", f.Function, f.Line)
				break
			}
			if !more {
				break
			}
		}
		s := bySite[where]
		if s == nil {
			s = &allocSite{where: where}
			bySite[where] = s
		}
		s.bytes += db
		s.objects += do
	}
	out := make([]allocSite, 0, len(bySite))
	for _, s := range bySite {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].bytes > out[j].bytes })
	return out
}
