package memento

import (
	"testing"
)

func TestWorkloadsExposed(t *testing.T) {
	if len(Workloads()) != 23 {
		t.Fatalf("workloads = %d, want 23", len(Workloads()))
	}
	if len(WorkloadNames()) != 23 {
		t.Fatal("names mismatch")
	}
}

func TestGenerateTraceUnknown(t *testing.T) {
	if _, err := GenerateTrace("nope"); err == nil {
		t.Fatal("unknown workload must error")
	}
}

func TestRunAndCompare(t *testing.T) {
	r, err := NewRunner(DefaultConfig(), WithStack(Baseline)).Run("aes")
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles == 0 {
		t.Fatal("zero cycles")
	}
	base, mem, err := NewRunner(DefaultConfig()).Compare("aes")
	if err != nil {
		t.Fatal(err)
	}
	if s := Speedup(base, mem); s <= 1.0 {
		t.Fatalf("speedup = %.3f", s)
	}
}

func TestRunTraceCustom(t *testing.T) {
	tr, err := GenerateTrace("jl")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(DefaultConfig(), WithStack(Memento)).RunTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.HOT.Allocs == 0 {
		t.Fatal("memento stack should use the HOT")
	}
}
