// Command experiments regenerates every table and figure of the paper's
// evaluation and prints them with the paper's reported values alongside.
// With -json it also writes the rendered experiments in their stable
// machine-readable form for downstream tooling.
//
// SIGINT/SIGTERM cancels the sweep at the next per-workload boundary and
// exits 130; JSON artifacts are written atomically (temp file + rename),
// so an interrupted run never leaves a torn file.
//
// Usage:
//
//	experiments                 # all tables and figures (full sweep, ~1 min)
//	experiments -only fig8      # a single experiment
//	experiments -json all.json  # also export the printed experiments as JSON
//	experiments -workers 4      # bound the sweep's parallel fan-out
//	experiments -warm           # the warm-start study (setup cycles saved)
//	experiments -fleet          # the fleet simulation study (cluster scale)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"memento"
	"memento/internal/atomicio"
	"memento/internal/cli"
)

func main() { os.Exit(run()) }

func run() int {
	only := flag.String("only", "", "run a single experiment by id (fig2..fig14, table1..table3, sec6.1-iso, sec6.6-*, sec6.7-mallacc)")
	jsonOut := flag.String("json", "", "write the printed experiments as a JSON array to FILE (- for stdout)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "parallel workers for the workload sweep")
	warm := flag.Bool("warm", false, "print the warm-start study (setup cycles skipped per invocation) instead of the paper's tables")
	fleetStudy := flag.Bool("fleet", false, "print the fleet simulation study (arrival pattern x policy x stack) instead of the paper's tables")
	flag.Parse()

	ctx, stop := cli.Context()
	defer stop()

	s := memento.NewSuite(memento.DefaultConfig(), memento.WithWorkers(*workers))
	var exps []memento.Experiment
	var err error
	switch {
	case *warm:
		var e memento.Experiment
		e, err = memento.WarmStartsExperiment(ctx, s)
		exps = []memento.Experiment{e}
		if err == nil {
			e, err = memento.WarmBytesExperiment(ctx, s)
			exps = append(exps, e)
		}
	case *fleetStudy:
		var e memento.Experiment
		e, err = memento.FleetExperiment(ctx, s)
		exps = []memento.Experiment{e}
	default:
		exps, err = s.All(ctx)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return cli.ExitCode(err)
	}
	var matched []memento.Experiment
	for _, e := range exps {
		if *only != "" && !strings.EqualFold(e.ID, *only) {
			continue
		}
		fmt.Println(e.Render())
		matched = append(matched, e)
	}
	if len(matched) == 0 {
		fmt.Fprintf(os.Stderr, "experiments: no experiment matches %q\n", *only)
		return cli.ExitFailure
	}
	if *jsonOut != "" {
		write := func(w io.Writer) error { return memento.ExportExperiments(w, matched) }
		var werr error
		if *jsonOut == "-" {
			werr = write(os.Stdout)
		} else {
			werr = atomicio.WriteFile(*jsonOut, write)
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "experiments:", werr)
			return cli.ExitFailure
		}
	}
	return cli.ExitOK
}
