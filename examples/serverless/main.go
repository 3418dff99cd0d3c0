// Serverless operator view: simulate a function's warm and cold
// invocations across all three language runtimes and price them with the
// AWS Lambda model the paper uses in Section 6.5.
package main

import (
	"fmt"
	"log"

	"memento"
	"memento/internal/pricing"
)

func main() {
	cfg := memento.DefaultConfig()
	model := pricing.AWS(cfg.ClockGHz)

	fmt.Println("function economics: baseline vs Memento (AWS pricing model)")
	fmt.Printf("%-10s %-8s %12s %12s %10s %12s\n",
		"workload", "start", "base USD/1M", "mem USD/1M", "saving", "speedup")

	for _, name := range []string{"html", "US", "html-go"} {
		for _, cold := range []bool{false, true} {
			var opts []memento.RunOption
			if cold {
				opts = append(opts, memento.WithColdStart())
			}
			base, mem, err := memento.NewRunner(cfg, opts...).Compare(name)
			if err != nil {
				log.Fatal(err)
			}
			price := func(r memento.Result) float64 {
				// The miniature traces stand for functions ~100x larger;
				// scale durations back up so the fixed per-invocation fee
				// keeps its real-world proportion (as Fig 14 does).
				const scale = 100
				return model.EndToEndUSD(r.Cycles*scale, r.PeakResidentPages*4096*scale) * 1e6
			}
			pb, pm := price(base), price(mem)
			label := "warm"
			if cold {
				label = "cold"
			}
			fmt.Printf("%-10s %-8s %12.4f %12.4f %9.1f%% %11.3fx\n",
				name, label, pb, pm, 100*(1-pm/pb), memento.Speedup(base, mem))
		}
	}
	fmt.Println("\n(USD per million invocations, end-to-end including the per-request fee)")
}
