package experiments

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"testing"

	"memento/internal/config"
	"memento/internal/workload"
)

// sharedSuite is computed once for the whole test package: the full
// 23-workload, 3-stack sweep. Its progress hook records the experiments
// sharedAll's run of All reports.
var sharedSuite = NewSuite(config.Default(),
	WithProgress(func(e Experiment) { sharedProgress = append(sharedProgress, e.ID) }))

// sharedProgress is what sharedSuite's progress hook saw; only All calls
// the hook, and only sharedAll calls sharedSuite.All.
var sharedProgress []string

// sharedAll runs sharedSuite.All once for every test that needs the full
// experiment list: under the race detector each run of All costs minutes.
var sharedAll = sync.OnceValues(func() ([]Experiment, error) {
	sharedDeadDerived()
	return sharedSuite.All(context.Background())
})

// sharedDeadDerived makes sharedSuite's first cold-start and Mallacc calls,
// with a dead context, before anything can latch those memos, and returns
// their errors for TestColdAndMallaccCancelDoesNotLatch; the live calls
// after it then compute each study once for every test.
var sharedDeadDerived = sync.OnceValues(func() (coldErr, mallaccErr error) {
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	_, coldErr = sharedSuite.ColdStartsContext(dead)
	_, mallaccErr = sharedSuite.MallaccRunsContext(dead)
	return coldErr, mallaccErr
})

// cancelProbes is the one suite besides sharedSuite that sweeps, with the
// results of its first two sweep calls, both cancelled: deadErr for a
// context cancelled before the call (TestPairsContextCancelDoesNotLatch),
// midPairs and midErr for one cancelled while the fan-out starts
// (TestMidSweepCancel). TestParallelSweepIsDeterministic compares the
// suite's completed sweep with sharedSuite's.
type cancelProbes struct {
	s        *Suite
	deadErr  error
	midPairs map[string]*Pair
	midErr   error
}

var secondSuite = sync.OnceValue(func() cancelProbes {
	p := cancelProbes{s: NewSuite(config.Default(), WithWorkers(2))}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the sweep starts: fast, deterministic
	_, p.deadErr = p.s.PairsContext(ctx)

	ctx, cancel = context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.midPairs, p.midErr = p.s.PairsContext(ctx)
	}()
	cancel()
	<-done
	return p
})

// sharedExperiments returns sharedAll's experiments by ID.
func sharedExperiments(t *testing.T) map[string]Experiment {
	t.Helper()
	exps, err := sharedAll()
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]Experiment{}
	for _, e := range exps {
		byID[e.ID] = e
	}
	return byID
}

func TestFig2(t *testing.T) {
	e := Fig2AllocationSizes(sharedSuite)
	if len(e.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 groups", len(e.Rows))
	}
	// The paper's headline: >88% of allocations in the first bin for every
	// group.
	for _, r := range e.Rows {
		if !strings.HasSuffix(r[1], "%") {
			t.Fatalf("bad cell %q", r[1])
		}
		var v float64
		if _, err := parsePct(r[1], &v); err != nil {
			t.Fatal(err)
		}
		if v < 85 {
			t.Errorf("%s: first-bin share %.1f%% too low for Fig 2", r[0], v)
		}
	}
}

func parsePct(s string, v *float64) (int, error) {
	f, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	*v = f
	return 1, err
}

func fmtSscan(s string, f *float64) (int, error) {
	v, err := strconv.ParseFloat(s, 64)
	*f = v
	return 1, err
}

func TestFig3(t *testing.T) {
	e := Fig3Lifetimes(sharedSuite)
	if len(e.Rows) != 5 {
		t.Fatalf("rows = %d", len(e.Rows))
	}
	// Golang functions: everything long-lived.
	for _, r := range e.Rows {
		if r[0] == "Golang" && r[5] != "100.0%" {
			t.Errorf("Golang long-lived = %s, want 100%%", r[5])
		}
		if r[0] == "C++" {
			var v float64
			parsePct(r[1], &v)
			if v < 70 {
				t.Errorf("C++ short-lived %.1f%%, expected dominant", v)
			}
		}
	}
}

func TestTable1(t *testing.T) {
	e := Table1Joint(sharedSuite)
	var ss, sl, ls, ll float64
	parsePct(e.Rows[0][1], &ss)
	parsePct(e.Rows[1][1], &sl)
	parsePct(e.Rows[0][2], &ls)
	parsePct(e.Rows[1][2], &ll)
	total := ss + sl + ls + ll
	if total < 99 || total > 101 {
		t.Fatalf("quadrants sum to %.1f%%, want 100%%", total)
	}
	// Small+short must dominate (paper: 61%).
	if ss < 45 {
		t.Errorf("small+short = %.1f%%, expected dominant", ss)
	}
	// Large+long is rare (paper: 0.45%).
	if ll > 5 {
		t.Errorf("large+long = %.1f%%, expected rare", ll)
	}
}

func TestFig8AndFriends(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	e, err := Fig8Speedup(sharedSuite)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Rows) != 23+3 {
		t.Fatalf("rows = %d, want 23 workloads + 3 averages", len(e.Rows))
	}
	for _, r := range e.Rows {
		if r[0] == "func-avg" {
			var v float64
			if _, err := fmtSscan(r[2], &v); err != nil {
				t.Fatal(err)
			}
			if v < 1.10 || v > 1.25 {
				t.Errorf("func-avg speedup %.3f outside the paper's neighbourhood (1.16)", v)
			}
		}
	}

	e9, err := Fig9Breakdown(sharedSuite)
	if err != nil {
		t.Fatal(err)
	}
	if len(e9.Rows) != 16+3 {
		t.Fatalf("fig9 rows = %d", len(e9.Rows))
	}

	e10, err := Fig10Bandwidth(sharedSuite)
	if err != nil {
		t.Fatal(err)
	}
	// Every workload must reduce traffic.
	for _, r := range e10.Rows {
		var v float64
		parsePct(r[1], &v)
		if v <= 0 {
			t.Errorf("%s: bandwidth reduction %.1f%% not positive", r[0], v)
		}
	}

	e12, err := Fig12HOTHitRate(sharedSuite)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range e12.Rows {
		var v float64
		parsePct(r[1], &v)
		if v < 99 {
			t.Errorf("%s: alloc hit rate %.1f%% below the paper's 99.8%%", r[0], v)
		}
	}

	e13, err := Fig13ArenaListOps(sharedSuite)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range e13.Rows {
		var v float64
		parsePct(r[1], &v)
		if v > 1.0 {
			t.Errorf("%s: alloc list ops %.2f%% above the paper's 1%% bound", r[0], v)
		}
	}

	e14, err := Fig14Pricing(sharedSuite)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range e14.Rows {
		if r[0] != "func-avg" {
			continue
		}
		var v float64
		fmtSscan(r[1], &v)
		if v >= 1.0 {
			t.Errorf("pricing ratio %.3f must be < 1", v)
		}
	}
}

func TestRenderContainsPaperLine(t *testing.T) {
	e := Table1Joint(sharedSuite)
	out := e.Render()
	if !strings.Contains(out, "paper:") || !strings.Contains(out, "TABLE1") {
		t.Fatalf("render missing metadata:\n%s", out)
	}
}

func TestTable3ConfigMatchesPaper(t *testing.T) {
	e := Table3Config(sharedSuite)
	out := e.Render()
	for _, want := range []string{"256-Entry ROB", "32KB, 8-Way", "2MB Slice, 16-Way", "Direct-Mapped", "64GB"} {
		if !strings.Contains(out, want) {
			t.Errorf("table3 missing %q", want)
		}
	}
}

func TestSortedNamesStable(t *testing.T) {
	pairs := map[string]*Pair{}
	for _, p := range workload.Profiles() {
		pairs[p.Name] = &Pair{Prof: p}
	}
	names := sortedNames(pairs)
	if len(names) != 23 {
		t.Fatalf("names = %d", len(names))
	}
	if names[0] != "html" || names[len(names)-1] != "invoke" {
		t.Fatalf("order wrong: %v", names)
	}
}
