package main

import (
	"fmt"
	"path/filepath"
	"time"

	"memento/internal/config"
	"memento/internal/fleet"
	"memento/internal/machine"
	"memento/internal/trace"
	"memento/internal/workload"
)

// calibrate is the traced round's layer pass, the same on every workload:
// spans around serial calls into each layer's public functions at a fixed
// size, and a CPU profile of the replay part whose self time per package,
// divided by the simulated operations the Results count, gives each
// hardware model's cost per operation. It returns the span metrics plus
// the operation counts ("count.<layer>") and the profile's path.
func calibrate(r *round) (map[string]float64, string, error) {
	cfg := config.Default()
	cal := map[string]float64{}
	type item struct {
		tr  *trace.Trace
		opt machine.Options
		w   *machine.WarmStart
	}
	var items []item
	var genNs, genEvents, prepNs float64
	profiles := workload.Profiles()
	if r.toy {
		profiles = profiles[:2]
	}
	for _, p := range profiles {
		t := time.Now()
		sp := r.beginSpan("cal.workload.Generate", -1, p.Name)
		tr := workload.Generate(p)
		r.endSpan(sp)
		genNs += float64(time.Since(t))
		genEvents += float64(tr.Len())
		for _, stack := range []machine.Stack{machine.Baseline, machine.Memento} {
			opt := machine.Options{Stack: stack}
			t := time.Now()
			sp := r.beginSpan("cal.machine.PrepareWarm", -1, p.Name)
			w, err := machine.PrepareWarm(cfg, tr, opt)
			r.endSpan(sp)
			if err != nil {
				return nil, "", err
			}
			prepNs += float64(time.Since(t))
			// One untimed run leaves a machine based on the checkpoint in
			// its pool, so the timed runs are steady-state delta restores.
			if _, err := w.Run(tr, opt); err != nil {
				return nil, "", err
			}
			items = append(items, item{tr, opt, w})
		}
	}
	cal["workload.gen_ns_per_event"] = genNs / genEvents
	cal["snapshot.prepare_ms"] = prepNs / 1e6 / float64(len(items))

	path := filepath.Join(r.dir, fmt.Sprintf("%s-cal.pprof", r.name))
	f, err := startProfile(path)
	if err != nil {
		return nil, "", err
	}
	var ns, events [2]float64
	var counts = map[string]float64{}
	for pass := 0; pass < 2; pass++ {
		for _, it := range items {
			t := time.Now()
			sp := r.beginSpan("cal.machine.WarmStart.RunMetered", -1, it.tr.Name+"/"+it.opt.Stack.String())
			res, _, err := it.w.RunMetered(it.tr, it.opt)
			r.endSpan(sp)
			if err != nil {
				stopProfile(f)
				return nil, "", err
			}
			ns[it.opt.Stack] += float64(time.Since(t))
			events[it.opt.Stack] += float64(it.tr.Len())
			counts["cache"] += float64(res.Hier.L1Hits + res.Hier.L1Misses)
			counts["tlb"] += float64(res.TLB.L1Hits + res.TLB.L1Misses)
			counts["dram"] += float64(res.DRAM.Reads + res.DRAM.Writes)
			counts["kernel"] += float64(res.Kernel.Mmaps + res.Kernel.Munmaps + res.Kernel.PageFaults)
			counts["softalloc"] += float64(res.Soft.Allocs + res.Soft.Frees)
			counts["core"] += float64(res.HOT.Allocs + res.HOT.Frees)
		}
	}
	if err := stopProfile(f); err != nil {
		return nil, "", err
	}
	cal["machine.ns_per_event.baseline"] = ns[machine.Baseline] / events[machine.Baseline]
	cal["machine.ns_per_event.memento"] = ns[machine.Memento] / events[machine.Memento]
	for layer, n := range counts {
		cal["count."+layer] = n
	}

	// The fleet engine alone: a fixed bursty trace on 1k hosts with the
	// static cost model.
	n := 100_000
	if r.toy {
		n = 2000
	}
	fl := fleet.New(cfg,
		fleet.WithArrivals(fleet.Bursty(n, 9000, 1)),
		fleet.WithHosts(fleet.Hosts{Count: 1000, Cores: 2, MemPages: 16384}),
		fleet.WithBackend(staticCosts()),
		fleet.WithoutLatencies(),
	)
	t := time.Now()
	sp := r.beginSpan("cal.fleet.Fleet.Run", -1, "")
	_, err = fl.Run(machine.Memento)
	r.endSpan(sp)
	if err != nil {
		return nil, "", err
	}
	cal["fleet.engine_ns_per_inv"] = float64(time.Since(t)) / float64(n)
	return cal, path, nil
}

// perOpLayers names, for each hardware-model layer, its cost-per-operation
// metric; the calibration's operation count for the layer divides the
// layer's self time in the calibration profile.
var perOpLayers = map[string]string{
	"cache":     "cache.ns_per_access",
	"tlb":       "tlb.ns_per_translation",
	"dram":      "dram.ns_per_access",
	"kernel":    "kernel.ns_per_call",
	"softalloc": "softalloc.ns_per_op",
	"core":      "core.ns_per_op",
}
