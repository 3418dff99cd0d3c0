package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// compareFiles is the regression gate: for every workload and end-to-end
// metric it pairs the parent's runs (base) with the change's (head) in the
// order they were recorded, one value per run, and prints both medians, the
// median change per pair, how many pairs got worse, and a verdict (see
// verdict). Failed operations compare as a ratio of those attempted, where
// any increase is worse. It returns 1 if anything is worse.
func compareFiles(spec benchSpec, basePath, headPath string) int {
	base, err := readResults(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench -compare:", err)
		return 2
	}
	head, err := readResults(headPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench -compare:", err)
		return 2
	}
	code := 0
	fmt.Printf("%-13s %-12s %12s %12s %9s %7s %6s  %s\n",
		"workload", "metric", "base", "head", "change", "worse", "bound", "verdict")
	for _, w := range workloads {
		b, h := base[w.name], head[w.name]
		if len(b) == 0 || len(h) == 0 {
			continue
		}
		if len(b) != len(h) {
			fmt.Fprintf(os.Stderr, "bench -compare: %s: %d base runs and %d head runs; pairing the first %d\n",
				w.name, len(b), len(h), min(len(b), len(h)))
		}
		for i := range min(len(b), len(h)) {
			if b[i].Seed != h[i].Seed {
				fmt.Fprintf(os.Stderr, "bench -compare: %s: pair %d has seeds %d and %d\n", w.name, i+1, b[i].Seed, h[i].Seed)
			}
		}
		for _, m := range spec.EndToEnd {
			bv, hv := values(b, m.Name), values(h, m.Name)
			ds := pairChanges(bv, hv, m.Better)
			worse := 0
			for _, d := range ds {
				if d > 0 {
					worse++
				}
			}
			v := verdict(bv, hv, m.Bound, m.Better)
			if v == verdictWorse {
				code = 1
			}
			fmt.Printf("%-13s %-12s %12.4f %12.4f %+8.1f%% %7s %5.0f%%  %s\n", w.name, m.Name, median(bv), median(hv),
				100*median(ds), fmt.Sprintf("%d/%d", worse, len(ds)), 100*m.Bound, v)
		}
		bf, hf := failRatio(b), failRatio(h)
		v := verdictSame
		if hf > bf {
			v, code = verdictWorse, 1
		}
		fmt.Printf("%-13s %-12s %12.4f %12.4f %9s %7s %6s  %s\n", w.name, "fail_ratio", bf, hf, "", "", "", v)
	}
	return code
}

// readResults loads a results file and groups its untraced runs by
// workload, in the order they were recorded.
func readResults(path string) (map[string][]runRecord, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string][]runRecord{}
	for _, r := range f.Runs {
		if !r.Traced {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, nil
}

// values returns one value of the metric per run; a run without it reads 0,
// so the values stay paired with the other side's runs.
func values(runs []runRecord, metric string) []float64 {
	vs := make([]float64, len(runs))
	for i, r := range runs {
		vs[i] = r.Metrics[metric]
	}
	return vs
}

func failRatio(runs []runRecord) float64 {
	var attempted, failed int
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	return float64(failed) / float64(max(attempted, 1))
}
