// Command weakbench runs the weak-sets evaluation. Without -sweep it runs
// the experiments E1–E8 from DESIGN.md §4 (the evaluation the paper
// promises in §5), printing one table per experiment.
//
// With -sweep it runs one or more of the layer sweeps through one
// harness (harness.go): every figure is a row in bench/'s schema —
// workload, metric, value, unit, samples, spread_pct, layer — the median
// of repeated trials with their interquartile spread, measured at
// GOMAXPROCS ≥ 2 and written to <out>/BENCH_<sweep>.json:
//
//	store     storage-engine contention, locked vs sharded across worker counts
//	iter      the iterator fetch pipeline, defaults vs one id per round trip
//	rpc       the TCP transport over loopback, serial vs multiplexed callers
//	scale     a full Elements run over 10k to 1M members (streamed listing, cursor)
//	frontier  reader concurrency vs observed weakness under churn
//	replica   reads spread over 1/2/3 replicas, plus a kill-one-replica phase
//
// With -gate it compares the reports in a directory (the quick sweeps
// `make bench-smoke` wrote) against the committed ones in the working
// directory and fails on a regression (gate.go).
//
// Usage:
//
//	weakbench [-run E1,E5] [-quick] [-ablations] [-csv] [-seed 42] [-timescale 0.01]
//	weakbench -sweep store,rpc|all [-quick] [-out dir]
//	weakbench -gate /tmp/weakbench-smoke
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"weaksets/internal/experiments"
	"weaksets/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "weakbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("weakbench", flag.ContinueOnError)
	var (
		runIDs    = fs.String("run", "", "comma-separated experiment IDs (default: all)")
		quick     = fs.Bool("quick", false, "trimmed experiments and sweeps")
		ablations = fs.Bool("ablations", false, "also run the design-choice ablations and extensions A1-A4")
		seed      = fs.Int64("seed", 42, "random seed")
		timeScale = fs.Float64("timescale", 0.01, "virtual-to-real time scale for experiments (0.01 = 100x compression)")
		csvOut    = fs.Bool("csv", false, "emit tables as CSV instead of aligned text")
		list      = fs.Bool("list", false, "list experiments and exit")
		sweepSel  = fs.String("sweep", "", "comma-separated layer sweeps to run instead of experiments: store, iter, rpc, scale, frontier, replica, or all")
		outDir    = fs.String("out", ".", "directory -sweep writes BENCH_<sweep>.json into")
		gateDir   = fs.String("gate", "", "gate the BENCH_*.json in this directory against the committed reports in the working directory")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	if *gateDir != "" {
		return runGate(".", *gateDir)
	}
	if *sweepSel != "" {
		selected, err := selectSweeps(*sweepSel)
		if err != nil {
			return err
		}
		for _, s := range selected {
			if err := runSweep(s, *quick, *seed, *outDir); err != nil {
				return err
			}
		}
		return nil
	}

	if *list {
		for _, e := range append(experiments.All(), experiments.Ablations()...) {
			fmt.Printf("%s  %s\n", e.ID, e.Claim)
		}
		return nil
	}

	cfg := experiments.Config{
		Seed:  *seed,
		Scale: sim.TimeScale(*timeScale),
		Quick: *quick,
	}

	selected := experiments.All()
	if *ablations {
		selected = append(selected, experiments.Ablations()...)
	}
	if *runIDs != "" {
		selected = selected[:0]
		for _, id := range strings.Split(*runIDs, ",") {
			exp, ok := experiments.Find(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown experiment %q (try -list)", id)
			}
			selected = append(selected, exp)
		}
	}

	for i, exp := range selected {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("== %s — %s\n", exp.ID, exp.Claim)
		start := time.Now()
		table, err := exp.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", exp.ID, err)
		}
		if *csvOut {
			if err := table.RenderCSV(os.Stdout); err != nil {
				return fmt.Errorf("%s: render csv: %w", exp.ID, err)
			}
		} else {
			table.Render(os.Stdout)
			fmt.Printf("(%s ran in %v wall time; durations in tables are virtual)\n", exp.ID, time.Since(start).Round(time.Millisecond))
		}
	}
	return nil
}

// selectSweeps resolves the -sweep selector against the sweep table.
func selectSweeps(sel string) ([]sweep, error) {
	if sel == "all" {
		return sweeps, nil
	}
	var out []sweep
	for _, name := range strings.Split(sel, ",") {
		i := slices.IndexFunc(sweeps, func(s sweep) bool { return s.name == strings.TrimSpace(name) })
		if i < 0 {
			return nil, fmt.Errorf("unknown sweep %q (store, iter, rpc, scale, frontier, replica, all)", name)
		}
		out = append(out, sweeps[i])
	}
	return out, nil
}
