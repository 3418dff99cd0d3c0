// Command mementosim runs one benchmark on the baseline and Memento stacks
// and prints the comparison: speedup, cycle breakdown, DRAM traffic, memory
// usage, and HOT statistics. With --metrics-out it also emits the runs as
// machine-readable JSON (per-bucket cycles, component counters, and a
// cycle-attribution timeline sampled every --timeline-interval events).
//
// SIGINT/SIGTERM before the run starts cancels it and exits 130; the
// metrics JSON is written atomically (temp file + rename), so an
// interrupted run never leaves a torn file.
//
// Usage:
//
//	mementosim -workload html [-cold] [-populate]
//	mementosim -workload html --metrics-out=html.json [--timeline-interval=2000]
//	mementosim -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"memento"
	"memento/internal/atomicio"
	"memento/internal/cli"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		name       = flag.String("workload", "html", "benchmark name (see -list)")
		cold       = flag.Bool("cold", false, "cold-start the function (container setup on the critical path)")
		populate   = flag.Bool("populate", false, "force MAP_POPULATE on baseline mmaps (Section 6.6)")
		list       = flag.Bool("list", false, "list benchmark names and exit")
		metricsOut = flag.String("metrics-out", "", "write both runs as JSON RunRecords to FILE (- for stdout)")
		interval   = flag.Int("timeline-interval", 2000, "with -metrics-out, sample counters every N trace events")
	)
	flag.Parse()

	if *list {
		for _, p := range memento.Workloads() {
			fmt.Printf("%-10s %-8s %-9s %s\n", p.Name, p.Lang, p.Class, p.Suite)
		}
		return cli.ExitOK
	}

	ctx, stop := cli.Context()
	defer stop()

	opts := []memento.RunOption{}
	if *cold {
		opts = append(opts, memento.WithColdStart())
	}
	if *populate {
		opts = append(opts, memento.WithMmapPopulate())
	}
	if *metricsOut != "" {
		opts = append(opts, memento.WithTimeline(*interval))
	}
	// A run has no cancellation point once started, so an interrupt only
	// takes effect before it.
	if err := ctx.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "mementosim:", err)
		return cli.ExitCode(err)
	}
	r := memento.NewRunner(memento.DefaultConfig(), opts...)
	base, mem, err := r.Compare(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mementosim:", err)
		return cli.ExitCode(err)
	}

	// With the JSON going to stdout, the human tables move to stderr so the
	// metrics stream stays pipeable.
	tbl := os.Stdout
	if *metricsOut == "-" {
		tbl = os.Stderr
	}
	fmt.Fprintf(tbl, "workload %s (%s)\n\n", *name, base.Lang)
	row := func(label string, b, m uint64) {
		fmt.Fprintf(tbl, "  %-22s %14d %14d\n", label, b, m)
	}
	fmt.Fprintf(tbl, "  %-22s %14s %14s\n", "", "baseline", "memento")
	row("total cycles", base.Cycles, mem.Cycles)
	row("app compute", base.Buckets.AppCompute, mem.Buckets.AppCompute)
	row("app memory", base.Buckets.AppMem, mem.Buckets.AppMem)
	row("user alloc", base.Buckets.UserAlloc, mem.Buckets.UserAlloc)
	row("user free", base.Buckets.UserFree, mem.Buckets.UserFree)
	row("kernel MM", base.Buckets.Kernel, mem.Buckets.Kernel)
	row("hw page mgmt", base.Buckets.PageMgmt, mem.Buckets.PageMgmt)
	row("GC", base.Buckets.GC, mem.Buckets.GC)
	row("DRAM bytes", base.DRAM.TotalBytes(), mem.DRAM.TotalBytes())
	row("pages (user)", base.UserPages, mem.UserPages)
	row("pages (kernel)", base.KernelPages, mem.KernelPages)
	row("page faults", base.Kernel.PageFaults, mem.Kernel.PageFaults)

	fmt.Fprintf(tbl, "\n  speedup:            %.3fx\n", memento.Speedup(base, mem))
	fmt.Fprintf(tbl, "  DRAM traffic saved: %.1f%%\n",
		100*(1-float64(mem.DRAM.TotalBytes())/float64(base.DRAM.TotalBytes())))
	fmt.Fprintf(tbl, "  HOT hit rates:      alloc %.1f%%  free %.1f%%\n",
		100*mem.HOT.AllocHitRate(), 100*mem.HOT.FreeHitRate())
	fmt.Fprintf(tbl, "  bypassed lines:     %d\n", mem.HOT.BypassedLines)

	if *metricsOut != "" {
		write := func(w io.Writer) error { return memento.ExportRuns(w, base, mem) }
		var werr error
		if *metricsOut == "-" {
			werr = write(os.Stdout)
		} else {
			werr = atomicio.WriteFile(*metricsOut, write)
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "mementosim:", werr)
			return cli.ExitFailure
		}
		if *metricsOut != "-" {
			fmt.Fprintf(tbl, "\n  metrics written to %s (%d timeline samples per run)\n",
				*metricsOut, base.Timeline.Len())
		}
	}
	return cli.ExitOK
}
