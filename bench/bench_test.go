package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"memento/internal/api"
	"memento/internal/config"
	"memento/internal/store"
)

func TestMedianQuartiles(t *testing.T) {
	cases := []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{5}, 5, 5, 5},
		// Python: statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
		{[]float64{2, 1}, 1.5, 0.75, 2.25},
		{[]float64{1, 2, 3, 4}, 2.5, 1.25, 3.75},
		// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 5.5, 2.75, 8.25},
		// Python: statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
		{[]float64{16, 1, 8, 2, 4}, 4, 1.5, 12},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.med {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 0.9); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true (10 samples beyond)", v, ok)
	}
	if _, ok := percentile(xs[:99], 0.9); ok {
		t.Error("p90 of 99 samples reported with only 9 beyond it")
	}
	if v, ok := percentile(xs[:20], 0.5); !ok || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10, true", v, ok)
	}
}

func TestVerdict(t *testing.T) {
	// The host's speed drifts from pair to pair by far more than the bound.
	drift := []float64{100, 130, 80, 110, 95, 140, 70, 120, 105, 90}
	scaled := func(f float64, xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = f * x
		}
		return out
	}
	// Nine pairs 20% slower and one 5% faster.
	mostlyWorse := scaled(1.2, drift)
	mostlyWorse[3] = 0.95 * drift[3]
	// Six pairs 20% slower and four 20% faster.
	mixed := scaled(1.2, drift)
	for _, i := range []int{0, 2, 5, 7} {
		mixed[i] = 0.8 * drift[i]
	}
	// Pairs alternately 20% slower and 15% faster: a small median change
	// with a wide spread.
	swinging := scaled(1.2, drift)
	for i := 1; i < len(drift); i += 2 {
		swinging[i] = 0.85 * drift[i]
	}
	tight := []float64{100, 101, 99, 100, 100, 102, 98, 100, 101, 99}
	cases := []struct {
		name       string
		base, head []float64
		better     string
		want       string
	}{
		{"same", drift, scaled(1.05, drift), "lower", verdictSame},
		{"same median, pairs spread wider than the bound", drift, swinging, "lower", verdictUnresolved},
		{"worse", drift, scaled(1.2, drift), "lower", verdictWorse},
		{"improved", tight, scaled(0.8, tight), "lower", verdictImproved},
		// Every pair is faster, but by less than the parent's own spread.
		{"improved within the parent's spread", drift, scaled(0.8, drift), "lower", verdictUnresolved},
		{"higher is better", tight, scaled(0.8, tight), "higher", verdictWorse},
		{"nine of ten pairs worse", drift, mostlyWorse, "lower", verdictWorse},
		{"pairs disagree", drift, mixed, "lower", verdictUnresolved},
		// Each side's spread is wider than the bound and the sides
		// overlap, yet every pair is 15% slower.
		{"drift wider than the change", drift, scaled(1.15, drift), "lower", verdictWorse},
		{"too few pairs", drift[:9], scaled(1.2, drift[:9]), "lower", verdictUnresolved},
		{"too few pairs but the same", drift[:3], drift[:3], "lower", verdictSame},
	}
	for _, c := range cases {
		if got := verdict(c.base, c.head, 0.1, c.better); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

const topFixture = `File: membench
Type: cpu
Duration: 3.51s, Total samples = 2s (56.98%)
Showing nodes accounting for 2s, 100% of 2s total
      flat  flat%   sum%        cum   cum%
     1.20s 60.00% 60.00%      1.20s 60.00%  memento/internal/cache.(*Cache).Lookup
     0.50s 25.00% 85.00%      1.90s 95.00%  memento/internal/machine.(*process).step
     0.20s 10.00% 95.00%      0.20s 10.00%  runtime.mallocgc
     0.10s  5.00%   100%      0.10s  5.00%  net/http.(*conn).serve
`

func TestParseTop(t *testing.T) {
	p, err := parseTop([]byte(topFixture))
	if err != nil {
		t.Fatal(err)
	}
	if p.totalNs != 2e9 {
		t.Errorf("total = %v ns, want 2e9", p.totalNs)
	}
	shares := p.packageShares()
	for layer, want := range map[string]float64{"cache": 0.6, "machine": 0.25, "runtime": 0.1, "nethttp": 0.05, "tlb": 0} {
		if got := layerShare(shares, layer); math.Abs(got-want) > 1e-9 {
			t.Errorf("%s share = %v, want %v", layer, got, want)
		}
	}
	if got := p.cumShare(replayFns...); math.Abs(got-0.95) > 1e-9 {
		t.Errorf("replay share = %v, want 0.95", got)
	}
	if got := p.selfNs("cache"); math.Abs(got-1.2e9) > 1 {
		t.Errorf("cache self time = %v ns, want 1.2e9", got)
	}
}

const benchFixture = `goos: linux
BenchmarkCacheLookup-2   	17947394	        13.32 ns/op	       0 B/op	       0 allocs/op
BenchmarkCacheLookup-2   	17947394	        13.66 ns/op	       0 B/op	       0 allocs/op
BenchmarkCacheLookup-2   	17947394	        13.50 ns/op	       0 B/op	       0 allocs/op
BenchmarkTraceGeneration-2	       5	  44566033 ns/op	 5595475 B/op	    4110 allocs/op
BenchmarkTraceGeneration-2	       5	  44709596 ns/op	 5588089 B/op	    4112 allocs/op
PASS
`

func TestParseBench(t *testing.T) {
	runs := parseBench([]byte(benchFixture))
	if got := median(runs["CacheLookup"]["ns/op"]); got != 13.5 {
		t.Errorf("CacheLookup median ns/op = %v, want 13.5", got)
	}
	if got := median(runs["TraceGeneration"]["allocs/op"]); got != 4111 {
		t.Errorf("TraceGeneration median allocs/op = %v, want 4111", got)
	}
	if _, err := microMetrics(runs); err == nil {
		t.Error("microMetrics accepted output missing most benchmarks")
	}
}

// testDaemon serves the job API in-process.
type testDaemon struct {
	srv *httptest.Server
	st  *store.Store
}

func newTestDaemon() *testDaemon {
	st := store.New(config.Default(), store.Options{})
	return &testDaemon{srv: httptest.NewServer(api.New(st).Handler()), st: st}
}

func (d *testDaemon) baseURL() string  { return d.srv.URL }
func (d *testDaemon) pprofURL() string { return "" }
func (d *testDaemon) usage() (time.Duration, float64, error) {
	rss, err := peakRSSMB("self")
	return processCPU(), rss, err
}
func (d *testDaemon) stop() error {
	d.srv.Close()
	return d.st.Close(context.Background())
}

// toyRound runs one round of a workload at smoke-test size in this process.
func toyRound(t *testing.T, name string, traced bool) roundResult {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	r := newRound(name, 1, 0, 200*time.Millisecond)
	if strings.HasPrefix(name, "daemon-") {
		r.budget = time.Second
	}
	r.toy, r.traced, r.dir = true, traced, t.TempDir()
	r.daemon = func(bool) (daemon, error) { return newTestDaemon(), nil }
	if err := w.run(r); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if traced {
		var err error
		if r.res.Cal, r.res.CalProfile, err = calibrate(r); err != nil {
			t.Fatalf("%s: calibrate: %v", name, err)
		}
	}
	res, err := r.finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Attempted == 0 || len(res.OpMs) == 0 {
		t.Fatalf("%s: attempted %d, failed %d, %d ops: %v", name, res.Attempted, res.Failed, len(res.OpMs), res.Problems)
	}
	return res
}

// checkLine checks that a result line carries every declared metric with
// its declared unit.
func checkLine(t *testing.T, line string, declared []metricSpec) {
	t.Helper()
	var got struct {
		Correct bool
		Metrics map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatal(err)
	}
	if !got.Correct || len(got.Metrics) != len(declared) {
		t.Errorf("correct=%v, %d metrics, want %d", got.Correct, len(got.Metrics), len(declared))
	}
	for _, m := range declared {
		if g, ok := got.Metrics[m.Name]; !ok || g.Unit != m.Unit {
			t.Errorf("metric %s: %+v, want unit %s", m.Name, g, m.Unit)
		}
	}
}

func testSpec(t *testing.T) benchSpec {
	t.Helper()
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for i, w := range workloads {
		if i >= len(names) || names[i] != w.name {
			t.Fatalf("BENCHMARK.json workloads %v do not match the benchmark's", names)
		}
	}
	return spec
}

// TestWorkloadsEmitEndToEnd runs every workload at toy size, with the
// daemon served in-process, and checks the outputs and the result line.
func TestWorkloadsEmitEndToEnd(t *testing.T) {
	spec := testSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if w.name == "sweep" && (raceEnabled || testing.Short()) {
				t.Skip("the full paper sweep is too slow under -race and -short")
			}
			res := toyRound(t, w.name, false)
			rec := newRecord(w.name, 1, 1, []roundResult{res}, []float64{0.1})
			line, err := resultLine(spec, rec)
			if err != nil {
				t.Fatal(err)
			}
			checkLine(t, line, spec.EndToEnd)
		})
	}
}

// TestTracedRunEmitsPerLayer traces a toy fleet round, profiles it and the
// calibration pass, and checks every per-layer metric is emitted.
func TestTracedRunEmitsPerLayer(t *testing.T) {
	spec := testSpec(t)
	u := toyRound(t, "fleet-ttl", false)
	tr := toyRound(t, "fleet-ttl", true)
	if len(tr.Spans) == 0 {
		t.Error("traced round recorded no spans")
	}
	prof, err := readProfile(tr.Profile)
	if err != nil {
		t.Fatal(err)
	}
	calProf, err := readProfile(tr.CalProfile)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for _, name := range microBenchmarks {
		out.WriteString("Benchmark" + name + "-2 \t 100\t 12.5 ns/op\t 0 B/op\t 0 allocs/op\n")
	}
	micro, err := microMetrics(parseBench([]byte(out.String())))
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecord("fleet-ttl", 1, 1, []roundResult{u, tr}, []float64{0.1, 0.1})
	rec.Traced = true
	rec.Metrics = perLayer(u, tr, prof, &layerCosts{cal: tr.Cal, prof: calProf, micro: micro})
	line, err := resultLine(spec, rec)
	if err != nil {
		t.Fatal(err)
	}
	checkLine(t, line, spec.PerLayer)
}
