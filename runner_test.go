package memento

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// TestFunctionalOptions: each option must set exactly its field.
func TestFunctionalOptions(t *testing.T) {
	var probe CountingProbe
	r := NewRunner(DefaultConfig(),
		WithStack(Memento),
		WithColdStart(),
		WithMallaccIdeal(),
		WithMmapPopulate(),
		WithProbe(&probe),
		WithTimeline(250),
	)
	got := r.Options()
	want := Options{Stack: Memento, ColdStart: true, MallaccIdeal: true,
		MmapPopulate: true, Probe: &probe, TimelineInterval: 250}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("options = %+v, want %+v", got, want)
	}
	if n := NewRunner(DefaultConfig(), WithTimeline(-5)).Options().TimelineInterval; n != 0 {
		t.Fatalf("negative timeline interval = %d, want 0", n)
	}
}

// TestExportRunsWithTimeline: the programmatic export path must yield valid
// JSON carrying per-bucket cycles and at least two timeline samples.
func TestExportRunsWithTimeline(t *testing.T) {
	var probe CountingProbe
	r := NewRunner(DefaultConfig(), WithProbe(&probe), WithTimeline(2000))
	base, mem, err := r.Compare("html")
	if err != nil {
		t.Fatal(err)
	}
	if probe.TotalEvents() == 0 {
		t.Fatal("probe saw no events")
	}
	var buf bytes.Buffer
	if err := ExportRuns(&buf, base, mem); err != nil {
		t.Fatal(err)
	}
	var recs []RunRecord
	if err := json.Unmarshal(buf.Bytes(), &recs); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2", len(recs))
	}
	for _, rec := range recs {
		if rec.Buckets.Total() == 0 || rec.Cycles == 0 {
			t.Fatalf("%s/%s: empty bucket cycles", rec.Workload, rec.Stack)
		}
		if rec.Timeline.Len() < 2 {
			t.Fatalf("%s/%s: timeline has %d samples, want >= 2", rec.Workload, rec.Stack, rec.Timeline.Len())
		}
	}
	if recs[0].Stack != "baseline" || recs[1].Stack != "memento" {
		t.Fatalf("stack labels: %s, %s", recs[0].Stack, recs[1].Stack)
	}

	var csvBuf bytes.Buffer
	if err := ExportRunsCSV(&csvBuf, base, mem); err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(csvBuf.Bytes(), []byte("\n")); lines != 3 {
		t.Fatalf("CSV lines = %d, want header + 2 rows", lines)
	}
}
