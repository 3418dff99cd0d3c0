package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureRuns is a fixed pair of records exercising every exporter column.
func fixtureRuns() []RunRecord {
	tl := NewTimeline(100)
	tl.Record(Sample{Event: 0, Cycles: 0,
		Kernel: KernelCounters{Mmaps: 1, SyscallCycles: 900}})
	tl.Record(Sample{Event: 100, Cycles: 51234,
		Buckets: Buckets{AppCompute: 20000, AppMem: 11000, UserAlloc: 9000,
			UserFree: 4000, Kernel: 7000, CtxSwitch: 234},
		Cache:  CacheCounters{L1Hits: 4000, L1Misses: 120, L2Hits: 80, L2Misses: 40, LLCHits: 25, LLCMisses: 15, Writebacks: 3},
		TLB:    TLBCounters{L1Hits: 3900, L1Misses: 90, L2Hits: 60, L2Misses: 30, Walks: 30, WalkCycles: 52000, Shootdowns: 2},
		DRAM:   DRAMCounters{Reads: 15, Writes: 3, ReadBytes: 960, WriteBytes: 192, RowHits: 10, RowMisses: 8, BusyCycles: 2100},
		Kernel: KernelCounters{Mmaps: 2, Munmaps: 1, PageFaults: 12, SyscallCycles: 2400, FaultCycles: 48000}})
	return []RunRecord{
		{
			Workload: "html", Lang: "python", Stack: "baseline",
			Cycles: 51234,
			Buckets: Buckets{AppCompute: 20000, AppMem: 11000, UserAlloc: 9000,
				UserFree: 4000, Kernel: 7000, CtxSwitch: 234},
			Cache:     CacheCounters{L1Hits: 4000, L1Misses: 120, L2Hits: 80, L2Misses: 40, LLCHits: 25, LLCMisses: 15, Writebacks: 3},
			TLB:       TLBCounters{L1Hits: 3900, L1Misses: 90, L2Hits: 60, L2Misses: 30, Walks: 30, WalkCycles: 52000, Shootdowns: 2},
			DRAM:      DRAMCounters{Reads: 15, Writes: 3, ReadBytes: 960, WriteBytes: 192, RowHits: 10, RowMisses: 8, BusyCycles: 2100},
			Kernel:    KernelCounters{Mmaps: 2, Munmaps: 1, PageFaults: 12, SyscallCycles: 2400, FaultCycles: 48000},
			UserPages: 40, KernelPages: 3, PeakResidentPages: 38, Fragmentation: 0.1275,
			Timeline: tl,
		},
		{
			Workload: "html", Lang: "python", Stack: "memento",
			Cycles:    40000,
			Buckets:   Buckets{AppCompute: 20000, AppMem: 10000, UserAlloc: 2000, UserFree: 800, Kernel: 5000, PageMgmt: 2200},
			Cache:     CacheCounters{L1Hits: 4100, L1Misses: 90, BypassFills: 60},
			TLB:       TLBCounters{L1Hits: 3950, L1Misses: 60, Walks: 20, WalkCycles: 9000},
			DRAM:      DRAMCounters{Reads: 6, Writes: 2, ReadBytes: 384, WriteBytes: 128, RowHits: 5, RowMisses: 3, BusyCycles: 800},
			Kernel:    KernelCounters{Mmaps: 1, PageFaults: 2, SyscallCycles: 900, FaultCycles: 8000},
			UserPages: 41, KernelPages: 5, PeakResidentPages: 36, Fragmentation: 0.031,
		},
	}
}

// checkGolden compares got against testdata/<name>, rewriting with -update.
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
		t.Fatalf("read golden (run `go test -run Golden -update ./internal/telemetry` to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden.\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

func TestGoldenRunsJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRunsJSON(&buf, fixtureRuns()); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("invalid JSON")
	}
	checkGolden(t, "runs.golden.json", buf.Bytes())
}

func TestGoldenRunsCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRunsCSV(&buf, fixtureRuns()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "runs.golden.csv", buf.Bytes())
}

func TestGoldenTimelineCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := fixtureRuns()[0].Timeline.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "timeline.golden.csv", buf.Bytes())
}

func TestWriteRunsJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRunsJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "[]\n" {
		t.Fatalf("empty runs = %q, want []", got)
	}
}

// TestRunRecordRoundTrip pins the wire contract: unmarshalling the JSON
// form reproduces the record exactly.
func TestRunRecordRoundTrip(t *testing.T) {
	orig := fixtureRuns()
	var buf bytes.Buffer
	if err := WriteRunsJSON(&buf, orig); err != nil {
		t.Fatal(err)
	}
	var back []RunRecord
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(orig) {
		t.Fatalf("len = %d", len(back))
	}
	if back[0].Cycles != orig[0].Cycles || back[0].Buckets != orig[0].Buckets ||
		back[0].Cache != orig[0].Cache || back[0].DRAM != orig[0].DRAM ||
		back[0].Timeline.Len() != orig[0].Timeline.Len() {
		t.Fatalf("round trip drifted: %+v", back[0])
	}
	if back[1].Timeline != nil {
		t.Fatal("absent timeline must stay nil")
	}
}
