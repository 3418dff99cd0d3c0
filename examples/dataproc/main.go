// Beyond functions: run the long-running data-processing applications
// (Redis, Memcached, Silo, SQLite3) and show that Memento's benefits
// extend to them (Section 6.1's data-processing results).
package main

import (
	"fmt"
	"log"

	"memento"
	"memento/internal/workload"
)

func main() {
	r := memento.NewRunner(memento.DefaultConfig())

	fmt.Println("long-running data-processing applications (steady state)")
	fmt.Printf("%-11s %9s %10s %12s %12s\n", "application", "speedup", "paper", "DRAM saved", "free HR")
	for _, p := range workload.ByClass(workload.DataProc) {
		base, mem, err := r.Compare(p.Name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-11s %8.3fx %9.3fx %11.1f%% %11.1f%%\n",
			p.Name, memento.Speedup(base, mem), p.PaperSpeedup,
			100*(1-float64(mem.DRAM.TotalBytes())/float64(base.DRAM.TotalBytes())),
			100*mem.HOT.FreeHitRate())
	}
	fmt.Println("\nshort-lived small allocations dominate these applications too, so the")
	fmt.Println("HOT absorbs their allocation traffic just like the serverless functions'.")
}
