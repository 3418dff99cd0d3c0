// Quickstart: simulate one serverless function on the baseline software
// stack and on Memento, and print the headline comparison.
package main

import (
	"fmt"
	"log"

	"memento"
)

func main() {
	cfg := memento.DefaultConfig() // the paper's Table 3 machine

	base, mem, err := memento.NewRunner(cfg).Compare("html")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("dynamic-html (SeBS) on the Table 3 machine")
	fmt.Printf("  baseline: %d cycles (%.2f ms at %.0f GHz)\n",
		base.Cycles, float64(base.Cycles)/(cfg.ClockGHz*1e6), cfg.ClockGHz)
	fmt.Printf("  memento:  %d cycles (%.2f ms)\n",
		mem.Cycles, float64(mem.Cycles)/(cfg.ClockGHz*1e6))
	fmt.Printf("  speedup:  %.2fx (paper reports 1.28x for dh)\n", memento.Speedup(base, mem))
	fmt.Printf("  DRAM traffic: %.1f MB -> %.1f MB\n",
		float64(base.DRAM.TotalBytes())/1e6, float64(mem.DRAM.TotalBytes())/1e6)
	fmt.Printf("  HOT hit rates: obj-alloc %.1f%%, obj-free %.1f%%\n",
		100*mem.HOT.AllocHitRate(), 100*mem.HOT.FreeHitRate())
	fmt.Printf("  kernel page faults: %d -> %d\n",
		base.Kernel.PageFaults, mem.Kernel.PageFaults)
}
