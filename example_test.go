package memento_test

import (
	"fmt"

	"memento"
)

// ExampleRunner_Compare runs one serverless function on the baseline
// software stack and on Memento and reports where the savings come from.
func ExampleRunner_Compare() {
	r := memento.NewRunner(memento.DefaultConfig())
	base, mem, err := r.Compare("aes")
	if err != nil {
		panic(err)
	}
	fmt.Printf("faster: %v\n", mem.Cycles < base.Cycles)
	fmt.Printf("hardware allocations: %v\n", mem.HOT.Allocs > 0)
	fmt.Printf("kernel faults removed: %v\n", mem.Kernel.PageFaults < base.Kernel.PageFaults)
	// Output:
	// faster: true
	// hardware allocations: true
	// kernel faults removed: true
}

// ExampleRunner_Run selects the stack and studies with functional options.
func ExampleRunner_Run() {
	cfg := memento.DefaultConfig()
	warm, err := memento.NewRunner(cfg, memento.WithStack(memento.Memento)).Run("aes")
	if err != nil {
		panic(err)
	}
	cold, err := memento.NewRunner(cfg,
		memento.WithStack(memento.Memento), memento.WithColdStart()).Run("aes")
	if err != nil {
		panic(err)
	}
	fmt.Printf("cold start costs more: %v\n", cold.Cycles > warm.Cycles)
	// Output:
	// cold start costs more: true
}

// ExampleRunner_RunMultiProcess time-shares one core among several traces
// (the §6.6 multi-process study).
func ExampleRunner_RunMultiProcess() {
	tr, err := memento.GenerateTrace("aes")
	if err != nil {
		panic(err)
	}
	r := memento.NewRunner(memento.DefaultConfig(), memento.WithStack(memento.Memento))
	results, err := r.RunMultiProcess([]*memento.Trace{tr, tr}, 2000)
	if err != nil {
		panic(err)
	}
	fmt.Printf("processes: %d, context switches charged: %v\n",
		len(results), results[0].Buckets.CtxSwitch > 0)
	// Output:
	// processes: 2, context switches charged: true
}

// ExampleNewFleet schedules a small invocation trace across a simulated
// host pool and reports how the keep-warm policy served it.
func ExampleNewFleet() {
	arr := memento.PoissonArrivals(60, 8_000_000, 1)
	arr.Workloads = []string{"aes"}
	f := memento.NewFleet(memento.DefaultConfig(),
		memento.WithArrivals(arr),
		memento.WithHosts(memento.FleetHosts{Count: 2, Cores: 2, MemPages: 16384}),
		memento.WithPolicy(memento.KeepAlivePolicy(200_000_000)))
	r, err := f.Run(memento.Memento)
	if err != nil {
		panic(err)
	}
	fmt.Printf("completed: %d\n", r.Invocations)
	fmt.Printf("warm hits served: %v\n", r.WarmHits > 0)
	fmt.Printf("snapshot restores: %v\n", r.SnapshotRestores > 0)
	fmt.Printf("tail ordered: %v\n", r.P50 <= r.P99 && r.P99 <= r.P999)
	// Output:
	// completed: 60
	// warm hits served: true
	// snapshot restores: true
	// tail ordered: true
}

// ExampleGenerateTrace inspects a workload's event stream.
func ExampleGenerateTrace() {
	tr, err := memento.GenerateTrace("jl")
	if err != nil {
		panic(err)
	}
	s := tr.Summarize()
	fmt.Printf("allocs=%d frees<=allocs=%v\n", s.Allocs, s.Frees <= s.Allocs)
	// Output:
	// allocs=24000 frees<=allocs=true
}

// ExampleWorkloadNames lists the benchmark suite.
func ExampleWorkloadNames() {
	names := memento.WorkloadNames()
	fmt.Println(len(names), names[0], names[len(names)-1])
	// Output:
	// 23 html invoke
}
