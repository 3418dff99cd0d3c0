package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func fixtureExperiment() Experiment {
	return Experiment{
		ID:     "fig8",
		Title:  "End-to-end speedup",
		Paper:  "geomean 1.22x over all functions",
		Header: []string{"workload", "baseline", "memento", "speedup"},
		Rows: [][]string{
			{"html", "51234", "40000", "1.281"},
			{"aes", "90110", "81200", "1.110"},
			{"geomean", "", "", "1.193"},
		},
		Notes: []string{"cold-start excluded"},
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run `go test -run Golden -update ./internal/experiments` to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden.\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

func TestGoldenExperimentJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := Export(&buf, []Experiment{fixtureExperiment()}); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("invalid JSON")
	}
	checkGolden(t, "experiment.golden.json", buf.Bytes())
}

func TestGoldenExperimentCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := fixtureExperiment().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "experiment.golden.csv", buf.Bytes())
}

// TestMarshalNeverNull: the wire form must use empty arrays, not null, for
// absent header/rows/notes so downstream parsers need no nil handling.
func TestMarshalNeverNull(t *testing.T) {
	b, err := json.Marshal(Experiment{ID: "empty", Rows: [][]string{nil}})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte("null")) {
		t.Fatalf("wire form contains null: %s", b)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"id", "title", "paper", "header", "rows", "notes"} {
		if _, ok := m[k]; !ok {
			t.Fatalf("wire form missing %q: %s", k, b)
		}
	}
}

func TestExportEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := Export(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "[]\n" {
		t.Fatalf("empty export = %q, want []", got)
	}
}

// TestSuiteExport: exporting a suite's full evaluation must produce a JSON
// array with every experiment carrying the stable field set.
func TestSuiteExport(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	exps, err := sharedSuite.All(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Export(&buf, exps); err != nil {
		t.Fatal(err)
	}
	var wire []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &wire); err != nil {
		t.Fatal(err)
	}
	if len(wire) == 0 {
		t.Fatal("no experiments exported")
	}
	seen := map[string]bool{}
	for _, e := range wire {
		id, _ := e["id"].(string)
		if id == "" {
			t.Fatalf("experiment without id: %v", e)
		}
		seen[id] = true
		if e["rows"] == nil || e["header"] == nil {
			t.Fatalf("%s: nil rows/header in wire form", id)
		}
	}
	for _, want := range []string{"fig8", "table1", "fig2"} {
		if !seen[want] {
			t.Fatalf("export missing %s (got %v)", want, seen)
		}
	}
}
