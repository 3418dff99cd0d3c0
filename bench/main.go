// Command bench is the repository's benchmark. It runs the simulator's
// user-facing jobs — the paper sweep, short warm invocations, fleet
// scheduling, and the mementod service under open-loop load — checks that
// their outputs are correct, and reports host time end to end and, in a
// traced run, per layer. Every round of a workload runs in a fresh child
// process, so set-up is measured, not inherited from a previous round.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh                                  # every workload
//	bash bench/run.sh -trace 1                         # plus traced runs
//	bash bench/run.sh --workload sweep --seed 2 --seconds 10 --trace 0
//	bash bench/run.sh -compare base.json head.json     # regression gate
//	bash bench/run.sh -regen                           # rewrite testdata
//
// With --workload the last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}, the metrics being every
// end-to-end metric of BENCHMARK.json, or with --trace 1 every per-layer
// one. README.md documents the metrics and workloads.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// rounds is how many fresh processes one run spreads its budget over; the
// set-up time is their median.
const rounds = 3

// roundTimeout bounds one child process, well inside the three minutes a
// whole run may take.
const roundTimeout = 150 * time.Second

// buildDir holds everything the benchmark writes.
const buildDir = ".bench_build"

func main() { os.Exit(run()) }

func run() int {
	var (
		name     = flag.String("workload", "", "run only this workload and end with the JSON result line")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Int("seconds", 0, "timed seconds per run (default: run_seconds of BENCHMARK.json)")
		traceOn  = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
		out      = flag.String("out", filepath.Join(buildDir, "results.json"), "append every run record to this file")
		traceDir = flag.String("trace-out", filepath.Join(buildDir, "trace"), "directory for profiles and traced-run reports")
		compare  = flag.Bool("compare", false, "compare two result files: -compare base.json head.json")
		regen    = flag.Bool("regen", false, "rewrite bench/testdata from the current simulator")
		child    = flag.Bool("child", false, "internal: run one round and print its result")
		index    = flag.Int("round", 0, "internal: round index")
		budget   = flag.Duration("budget", 0, "internal: timed budget of the round")
		traced   = flag.Bool("traced", false, "internal: trace the round")
		cal      = flag.Bool("calibrate", false, "internal: run the calibration pass after the traced round")
		bin      = flag.String("daemon-bin", "", "internal: mementod binary")
	)
	flag.Parse()
	if *child {
		return runChild(*name, *seed, *index, *budget, *traced, *cal, *traceDir, *bin)
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare base.json head.json")
			return 2
		}
		return compareFiles(spec, flag.Arg(0), flag.Arg(1))
	case *regen:
		if err := regenerate(); err != nil {
			fmt.Fprintln(os.Stderr, "bench -regen:", err)
			return 1
		}
		return 0
	}
	if *traceOn != 0 && *traceOn != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	names := []string{*name}
	if *name == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if _, ok := workloadByName(*name); !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	if err := os.MkdirAll(*traceDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	p := &parent{spec: spec, seed: *seed, seconds: *seconds, traceDir: *traceDir}
	code := 0
	var last *runRecord
	for _, n := range names {
		// A single workload runs traced or untraced; the full run adds a
		// traced run after each untraced one when asked.
		modes := []bool{*traceOn == 1}
		if *name == "" && *traceOn == 1 {
			modes = []bool{false, true}
		}
		for _, tr := range modes {
			rec, err := p.runWorkload(n, tr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", n, err)
				return 1
			}
			if err := appendRecord(*out, rec); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			if !rec.Correct {
				code = 1
			}
			last = rec
		}
	}
	if *name != "" {
		line, err := resultLine(spec, last)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(line)
	}
	return code
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	RunSeconds int                     `json:"run_seconds"`
	Workloads  []struct{ Name string } `json:"workloads"`
	EndToEnd   []metricSpec            `json:"end_to_end"`
	PerLayer   []metricSpec            `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	raw, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// runRecord is one run of one workload: what the JSON result line reports,
// plus the samples behind every value.
type runRecord struct {
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Seconds   int                  `json:"seconds"`
	Traced    bool                 `json:"traced"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Problems  []string             `json:"problems,omitempty"`
	Metrics   map[string]float64   `json:"metrics"`
	Samples   map[string][]float64 `json:"samples,omitempty"`
	// Pooled holds the per-item samples of all rounds (the daemon's
	// per-job timings), so that runs can be pooled further.
	Pooled map[string][]float64 `json:"pooled,omitempty"`
	Extra  map[string]float64   `json:"extra,omitempty"`
}

// resultLine renders the record's metrics as the final JSON line: every
// end-to-end metric of the spec for an untraced run, every per-layer one
// for a traced run.
func resultLine(spec benchSpec, rec *runRecord) (string, error) {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	declared := spec.EndToEnd
	if rec.Traced {
		declared = spec.PerLayer
	}
	metrics := map[string]valueUnit{}
	for _, m := range declared {
		v, ok := rec.Metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("%s: metric %s is missing or not finite (%v)", rec.Workload, m.Name, v)
		}
		metrics[m.Name] = valueUnit{v, m.Unit}
	}
	raw, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{rec.Correct, max(rec.Attempted, 1), rec.Failed, metrics})
	return string(raw), err
}

// parent runs workloads as sequences of child-process rounds.
type parent struct {
	spec      benchSpec
	seed      int64
	seconds   int
	traceDir  string
	daemonBin string
	// layers is the calibration pass and the micro-benchmarks, which do not
	// depend on the workload: the first traced run measures them and every
	// later one in the same invocation reuses them.
	layers *layerCosts
}

// layerCosts is the workload-independent part of the per-layer metrics: the
// calibration pass's metrics and operation counts, its CPU profile, and the
// micro-benchmarks.
type layerCosts struct {
	cal   map[string]float64
	prof  *profile
	micro map[string]float64
}

// runWorkload runs one workload. An untraced run spreads the budget over
// `rounds` rounds and reports the end-to-end metrics; a traced run does one
// untraced and one traced round of the same length (their ratio is the
// tracing overhead) and reports the per-layer metrics.
func (p *parent) runWorkload(name string, traced bool) (*runRecord, error) {
	if strings.HasPrefix(name, "daemon-") && p.daemonBin == "" {
		bin, err := buildDaemon()
		if err != nil {
			return nil, err
		}
		p.daemonBin = bin
	}
	budget := time.Duration(p.seconds) * time.Second / rounds
	n := rounds
	if traced {
		n = 2
	}
	var res []roundResult
	var setup []float64
	for i := 0; i < n; i++ {
		// A traced run's two rounds get the same index, hence the same
		// inputs, so their ratio is the tracing overhead alone.
		index := i
		if traced {
			index = 0
		}
		r, spawned, err := p.spawnRound(name, index, budget, traced && i == 1, traced && i == 1 && p.layers == nil)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		res = append(res, r)
		setup = append(setup, time.Unix(0, r.SetupDone).Sub(spawned).Seconds())
	}
	rec := newRecord(name, p.seed, p.seconds, res, setup)
	if !traced {
		printRecord(rec, p.spec.EndToEnd)
		return rec, nil
	}
	if err := p.traceReport(rec, res[0], res[1]); err != nil {
		return nil, err
	}
	printRecord(rec, p.spec.PerLayer)
	return rec, nil
}

// newRecord aggregates the rounds of one run, whose set-up took setup
// seconds of wall time. Each end-to-end metric is the median of its
// samples: the operations of all rounds for op_ms, one value per round for
// the others. Times are scaled to the reference speed (see referenceMs):
// each operation by the reference timed right before it, each set-up by the
// one timed right after it. The wall times stay beside them as wall_op_ms
// and wall_setup_s. Further per-item samples (the daemon's phase timings)
// are pooled over the rounds into the percentiles that have at least ten
// samples beyond them.
func newRecord(name string, seed int64, seconds int, res []roundResult, setup []float64) *runRecord {
	rec := &runRecord{Workload: name, Seed: seed, Seconds: seconds,
		Metrics: map[string]float64{}, Samples: map[string][]float64{"wall_setup_s": setup}, Extra: map[string]float64{}}
	pooled := map[string][]float64{}
	for i, r := range res {
		rec.Attempted += r.Attempted
		rec.Failed += r.Failed
		rec.Problems = append(rec.Problems, r.Problems...)
		rec.Samples["op_ms"] = append(rec.Samples["op_ms"], r.scaledOpMs()...)
		rec.Samples["wall_op_ms"] = append(rec.Samples["wall_op_ms"], r.OpMs...)
		rec.Samples["ref_ms"] = append(rec.Samples["ref_ms"], r.RefMs...)
		rec.Samples["setup_s"] = append(rec.Samples["setup_s"], atRefSpeed(setup[i], r.refMs(0)))
		rec.Samples["peak_rss_mb"] = append(rec.Samples["peak_rss_mb"], r.PeakRSSMB)
		rec.Samples["cpu_ms"] = append(rec.Samples["cpu_ms"], r.CPUMsPerOp)
		for k, v := range r.Samples {
			pooled[k] = append(pooled[k], v...)
		}
	}
	rec.Correct = rec.Failed == 0
	for k, v := range rec.Samples {
		rec.Metrics[k] = median(v)
	}
	if len(pooled) > 0 {
		rec.Pooled = maps.Clone(pooled)
	}
	pooled["op_ms"] = rec.Samples["op_ms"]
	for k, v := range pooled {
		for _, q := range []float64{0.5, 0.9} {
			if x, ok := percentile(v, q); ok {
				rec.Extra[fmt.Sprintf("%s_p%d", k, int(q*100))] = x
			}
		}
	}
	return rec
}

// spawnRound runs one round in a child process, followed by the calibration
// pass when cal is set, and returns its result and when the child was
// started.
func (p *parent) spawnRound(name string, index int, budget time.Duration, traced, cal bool) (roundResult, time.Time, error) {
	var res roundResult
	self, err := os.Executable()
	if err != nil {
		return res, time.Time{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), roundTimeout)
	defer cancel()
	args := []string{"-child", "-workload", name, "-seed", fmt.Sprint(p.seed), "-round", fmt.Sprint(index),
		"-budget", budget.String(), "-trace-out", p.traceDir, "-daemon-bin", p.daemonBin}
	if traced {
		args = append(args, "-traced")
	}
	if cal {
		args = append(args, "-calibrate")
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	spawned := time.Now()
	out, err := cmd.Output()
	if err != nil {
		return res, spawned, err
	}
	if err := json.Unmarshal(out, &res); err != nil {
		return res, spawned, fmt.Errorf("round result: %w", err)
	}
	return res, spawned, nil
}

// runChild is the child process: one round of one workload, and the
// calibration pass when cal is set, its result printed as JSON.
func runChild(name string, seed int64, index int, budget time.Duration, traced, cal bool, dir, bin string) int {
	w, ok := workloadByName(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	r := newRound(name, seed, index, budget)
	r.traced, r.dir = traced, dir
	r.daemon = func(pprof bool) (daemon, error) { return startMementod(bin, pprof) }
	err := w.run(r)
	if err == nil && cal {
		r.res.Cal, r.res.CalProfile, err = calibrate(r)
	}
	var res roundResult
	if err == nil {
		res, err = r.finish()
	}
	if err == nil {
		err = json.NewEncoder(os.Stdout).Encode(res)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s round %d: %v\n", name, index, err)
		return 1
	}
	return 0
}

// buildDaemon builds cmd/mementod into the build directory.
func buildDaemon() (string, error) {
	bin, err := filepath.Abs(filepath.Join(buildDir, "mementod"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/mementod")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build mementod: %w", err)
	}
	return bin, nil
}

// workloadCounters are the per-layer metrics a workload's own rounds
// count; a workload that does not exercise one reports 0.
var workloadCounters = []string{
	"snapshot.restore_kb", "snapshot.delta_ratio", "experiments.parallel_efficiency",
	"store.cache_hit_ratio", "store.reject_ratio", "store.queue_ms_p90", "store.queue_share", "store.exec_share",
	"api.result_kb", "runtime.alloc_kb_per_op",
}

// perLayer computes a traced run's per-layer metrics from its untraced
// round u, its traced round t and that round's CPU profile, and the
// workload-independent layer costs lc.
func perLayer(u, t roundResult, prof *profile, lc *layerCosts) map[string]float64 {
	m := map[string]float64{}
	shares := prof.packageShares()
	for layer := range layerPackages {
		m[layer+".self_share"] = layerShare(shares, layer)
	}
	m["runtime.gc_share"] = prof.cumShare(gcFns...)
	m["machine.replay_share"] = prof.cumShare(replayFns...)
	m["machine.teardown_share"] = prof.cumShare(teardownFns...)
	m["snapshot.restore_share"] = prof.cumShare(restoreFns...)
	m["fleet.arrivals_share"] = prof.cumShare(arrivalFns...)
	for _, k := range workloadCounters {
		m[k] = t.Layer[k]
	}
	m["trace.overhead_ratio"] = median(t.scaledOpMs())/median(u.scaledOpMs()) - 1
	for k, v := range lc.cal {
		if !strings.HasPrefix(k, "count.") {
			m[k] = v
		}
	}
	for layer, metric := range perOpLayers {
		m[metric] = lc.prof.selfNs(layer) / lc.cal["count."+layer]
	}
	for k, v := range lc.micro {
		m[k] = v
	}
	return m
}

// measureLayerCosts reads the calibration pass of the traced round t and
// runs the micro-benchmarks.
func measureLayerCosts(t roundResult) (*layerCosts, error) {
	prof, err := readProfile(t.CalProfile)
	if err != nil {
		return nil, err
	}
	micro, err := runMicro()
	if err != nil {
		return nil, err
	}
	return &layerCosts{cal: t.Cal, prof: prof, micro: micro}, nil
}

// traceReport fills a traced run's per-layer metrics and writes its report:
// spans, the self time of every package, and the metrics.
func (p *parent) traceReport(rec *runRecord, u, t roundResult) error {
	prof, err := readProfile(t.Profile)
	if err != nil {
		return err
	}
	if p.layers == nil {
		if p.layers, err = measureLayerCosts(t); err != nil {
			return err
		}
	}
	rec.Traced = true
	rec.Metrics = perLayer(u, t, prof, p.layers)
	path := filepath.Join(p.traceDir, fmt.Sprintf("%s-seed%d.json", rec.Workload, rec.Seed))
	raw, err := json.MarshalIndent(map[string]any{
		"workload": rec.Workload, "seed": rec.Seed,
		"self_time": prof.packageShares(), "calibration_self_time": p.layers.prof.packageShares(),
		"per_layer": rec.Metrics, "extra": rec.Extra, "spans": t.Spans,
	}, "", " ")
	if err != nil {
		return err
	}
	fmt.Printf("%s: self time by package (traced round, %.2fs sampled):\n%s", rec.Workload, prof.totalNs/1e9, selfTimeTable(prof))
	fmt.Printf("  spans, profiles and per-layer metrics: %s\n", path)
	return os.WriteFile(path, raw, 0o644)
}

// printRecord prints a run's declared metrics with their units, sample
// counts, quartiles and bootstrap intervals, then its other readings.
func printRecord(rec *runRecord, declared []metricSpec) {
	kind := "end-to-end"
	if rec.Traced {
		kind = "per-layer"
	}
	fmt.Printf("== %s (seed %d, %d s, %s): attempted %d, failed %d ==\n", rec.Workload, rec.Seed, rec.Seconds, kind, rec.Attempted, rec.Failed)
	for _, pr := range rec.Problems {
		fmt.Printf("  FAILED: %s\n", pr)
	}
	shown := map[string]bool{}
	for _, m := range declared {
		shown[m.Name] = true
		v := rec.Metrics[m.Name]
		if s, ok := rec.Samples[m.Name]; ok && !rec.Traced {
			sum := summarize(s)
			fmt.Printf("  %-36s %14.4f %-6s n=%-4d q1=%.4f q3=%.4f mean95=[%.4f, %.4f]\n",
				m.Name, v, m.Unit, sum.N, sum.Q1, sum.Q3, sum.MeanCILo, sum.MeanCIHi)
			continue
		}
		fmt.Printf("  %-36s %14.4f %s\n", m.Name, v, m.Unit)
	}
	other := map[string]float64{}
	for k, v := range rec.Extra {
		other[k] = v
	}
	for k, v := range rec.Metrics {
		if !shown[k] {
			other[k] = v
		}
	}
	keys := make([]string, 0, len(other))
	for k := range other {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  also %-31s %14.4f\n", k, other[k])
	}
}

// appendRecord appends rec to the JSON results file at path.
func appendRecord(path string, rec *runRecord) error {
	var f resultsFile
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	f.Runs = append(f.Runs, *rec)
	raw, err = json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// resultsFile is the file -out appends to and -compare reads.
type resultsFile struct {
	Runs []runRecord `json:"runs"`
}
