package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// profile is a CPU profile reduced to what the per-layer metrics need: the
// total sampled time and every function's flat and cumulative share of it.
type profile struct {
	totalNs float64
	flat    map[string]float64
	cum     map[string]float64
}

// readProfile summarizes a CPU profile with `go tool pprof -top`.
func readProfile(path string) (*profile, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", path)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %w", path, err)
	}
	return parseTop(out)
}

var totalRE = regexp.MustCompile(`of ([0-9.]+)([a-z]+) total`)

// parseTop parses the text report of `go tool pprof -top`.
func parseTop(out []byte) (*profile, error) {
	p := &profile{flat: map[string]float64{}, cum: map[string]float64{}}
	m := totalRE.FindSubmatch(out)
	if m == nil {
		// An empty profile totals "0", without a unit.
		return p, nil
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		return nil, err
	}
	unit, ok := map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9, "mins": 60e9, "hrs": 3600e9}[string(m[2])]
	if !ok {
		return nil, fmt.Errorf("pprof total unit %q", m[2])
	}
	p.totalNs = v * unit
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") || !strings.HasSuffix(f[4], "%") {
			continue
		}
		flat, err1 := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		cum, err2 := strconv.ParseFloat(strings.TrimSuffix(f[4], "%"), 64)
		if err1 != nil || err2 != nil {
			continue
		}
		name := strings.Join(f[5:], " ")
		p.flat[name] += flat / 100
		p.cum[name] += cum / 100
	}
	return p, nil
}

// pkgOf returns the import path of a function symbol such as
// "memento/internal/cache.(*Cache).Lookup".
func pkgOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// packageShares sums the flat shares by package.
func (p *profile) packageShares() map[string]float64 {
	out := map[string]float64{}
	for fn, v := range p.flat {
		out[pkgOf(fn)] += v
	}
	return out
}

// cumShare sums the cumulative shares of the named functions.
func (p *profile) cumShare(fns ...string) float64 {
	var s float64
	for _, fn := range fns {
		s += p.cum[fn]
	}
	return s
}

// selfNs is the sampled time spent in a layer's own code.
func (p *profile) selfNs(layer string) float64 {
	return layerShare(p.packageShares(), layer) * p.totalNs
}

// layerPackages maps the per-layer metric prefixes to the packages whose
// self time they report.
var layerPackages = map[string][]string{
	"cache":       {"memento/internal/cache"},
	"tlb":         {"memento/internal/tlb"},
	"dram":        {"memento/internal/dram"},
	"kernel":      {"memento/internal/kernel"},
	"softalloc":   {"memento/internal/softalloc"},
	"core":        {"memento/internal/core"},
	"machine":     {"memento/internal/machine"},
	"workload":    {"memento/internal/workload"},
	"experiments": {"memento/internal/experiments"},
	"fleet":       {"memento/internal/fleet"},
	"store":       {"memento/internal/store"},
	"api":         {"memento/internal/api"},
	"nethttp":     {"net/http", "net/http/internal"},
	"json":        {"encoding/json"},
	"runtime":     {"runtime"},
}

func layerShare(shares map[string]float64, layer string) float64 {
	var s float64
	for _, pkg := range layerPackages[layer] {
		s += shares[pkg]
	}
	return s
}

// Functions whose cumulative share names a phase of the work.
var (
	replayFns   = []string{"memento/internal/machine.(*process).step"}
	teardownFns = []string{"memento/internal/machine.(*process).finish"}
	restoreFns  = []string{"memento/internal/machine.(*Machine).RestoreMetered", "memento/internal/machine.(*Machine).restoreProcess"}
	arrivalFns  = []string{"memento/internal/fleet.Arrivals.generate"}
	gcFns       = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep"}
)

// selfTimeTable formats the packages of a profile by self share, largest
// first: where the wall time of the workload went.
func selfTimeTable(p *profile) string {
	shares := p.packageShares()
	pkgs := make([]string, 0, len(shares))
	for pkg := range shares {
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return shares[pkgs[i]] > shares[pkgs[j]] })
	var b strings.Builder
	for _, pkg := range pkgs {
		if shares[pkg] < 0.005 {
			break
		}
		fmt.Fprintf(&b, "  %6.2f%%  %s\n", 100*shares[pkg], pkg)
	}
	return b.String()
}

// microBenchmarks are the repository's layer micro-benchmarks, recorded by
// every traced run.
var microBenchmarks = []string{
	"CacheLookup", "TLBTranslate", "DRAMAccess", "TraceReplay",
	"ObjAllocFree", "HOTFlush", "CacheHierarchyAccess", "TraceGeneration",
}

// runMicro runs the micro-benchmarks of the root package and returns the
// median ns/op and allocs/op of each.
func runMicro() (map[string]float64, error) {
	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", "^Benchmark("+strings.Join(microBenchmarks, "|")+")$",
		"-benchmem", "-count", "5", "-benchtime", "200ms", ".")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go test -bench: %w\n%s", err, out)
	}
	return microMetrics(parseBench(out))
}

// parseBench parses the standard benchmark text format into the values of
// each benchmark (without its -GOMAXPROCS suffix), keyed by unit.
func parseBench(out []byte) map[string]map[string][]float64 {
	res := map[string]map[string][]float64{}
	for _, line := range bytes.Split(out, []byte("\n")) {
		f := strings.Fields(string(line))
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue
		}
		name := strings.TrimPrefix(f[0], "Benchmark")
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		if res[name] == nil {
			res[name] = map[string][]float64{}
		}
		for i := 2; i+1 < len(f); i += 2 {
			if v, err := strconv.ParseFloat(f[i], 64); err == nil {
				res[name][f[i+1]] = append(res[name][f[i+1]], v)
			}
		}
	}
	return res
}

func microMetrics(runs map[string]map[string][]float64) (map[string]float64, error) {
	out := map[string]float64{}
	for _, name := range microBenchmarks {
		r, ok := runs[name]
		if !ok || len(r["ns/op"]) == 0 || len(r["allocs/op"]) == 0 {
			return nil, fmt.Errorf("micro-benchmark %s reported no ns/op and allocs/op", name)
		}
		out["micro."+name+".ns_per_op"] = median(r["ns/op"])
		out["micro."+name+".allocs_per_op"] = median(r["allocs/op"])
	}
	return out, nil
}
