// Command speccheck exercises the executable specifications: it drives the
// pure semantic kernel of every implemented semantics against thousands of
// random model environments (under the environment discipline each
// constraint clause demands) and checks every recorded run against the
// ensures clause of every specification figure, printing the conformance
// matrix. The diagonal must read 100%; off-diagonal entries expose the
// strictness lattice of the design space (§3 of the paper).
//
// Usage:
//
//	speccheck [-seeds 500] [-steps 150] [-verbose]
package main

import (
	"flag"
	"fmt"
	"os"

	"weaksets/internal/core"
	"weaksets/internal/metrics"
	"weaksets/internal/sim"
	"weaksets/internal/spec"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "speccheck:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("speccheck", flag.ContinueOnError)
	var (
		seeds      = fs.Int("seeds", 500, "random environments per cell")
		steps      = fs.Int("steps", 150, "max kernel invocations per run")
		verbose    = fs.Bool("verbose", false, "print first violation per cell")
		showSpecs  = fs.Bool("specs", false, "print the formal text of every figure and exit")
		exhaustive = fs.Int("exhaustive", 0, "also exhaustively model-check every kernel over worlds of N elements (1..8)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *showSpecs {
		for i, fig := range spec.Figures() {
			if i > 0 {
				fmt.Println()
			}
			fmt.Println(spec.Render(fig))
		}
		return nil
	}

	figures := spec.Figures()
	headers := []string{"implementation \\ spec"}
	for _, f := range figures {
		headers = append(headers, f.String())
	}
	table := metrics.NewTable(
		fmt.Sprintf("conformance matrix over %d random model runs per cell", *seeds),
		headers...,
	)

	selfViolations := 0
	for _, sem := range core.AllSemantics() {
		row := []string{sem.String()}
		for _, fig := range figures {
			pass := 0
			var firstViolation error
			for seed := 0; seed < *seeds; seed++ {
				env := spec.NewEnv(sim.NewRand(int64(seed)), 8, sem.Constraint())
				run, _ := core.RunModel(sem, env, core.ModelConfig{
					MaxSteps:        *steps,
					HealAfterBlocks: 3,
					FreezeAfter:     *steps / 2,
				})
				if err := spec.CheckRun(fig, run); err == nil {
					pass++
				} else if firstViolation == nil {
					firstViolation = err
				}
			}
			rate := float64(pass) / float64(*seeds)
			row = append(row, metrics.FmtPct(rate))
			if fig == sem.Figure() && pass != *seeds {
				selfViolations++
				fmt.Fprintf(os.Stderr, "SELF-CONFORMANCE FAILURE: %s vs %s: %v\n", sem, fig, firstViolation)
			}
			if *verbose && firstViolation != nil {
				fmt.Printf("  %s vs %s: e.g. %v\n", sem, fig, firstViolation)
			}
		}
		table.AddRow(row...)
	}

	table.Render(os.Stdout)

	if *exhaustive > 0 {
		fmt.Println()
		ex := metrics.NewTable(
			fmt.Sprintf("exhaustive model check over every world of %d elements", *exhaustive),
			"semantics", "states", "verdict")
		for _, sem := range core.AllSemantics() {
			res, err := core.ExhaustiveConformance(sem, *exhaustive)
			verdict := "conforms (proved within bound)"
			if err != nil {
				verdict = "VIOLATION: " + err.Error()
				selfViolations++
			}
			ex.AddRow(sem.String(), fmt.Sprintf("%d", res.States), verdict)
		}
		ex.Render(os.Stdout)
	}

	// The Garcia-Molina/Wiederhold classification of each point (§4).
	fmt.Println()
	tax := metrics.NewTable("taxonomy (Garcia-Molina & Wiederhold, per §4)",
		"figure", "consistency", "currency")
	for _, fig := range figures {
		cons, curr := spec.Taxonomy(fig)
		tax.AddRow(fig.String(), cons.String(), curr.String())
	}
	tax.Render(os.Stdout)

	fmt.Println()
	fmt.Println("reading the matrix: each implementation must pass its own figure (the")
	fmt.Println("diagonal); off-diagonal passes show where the design points coincide on")
	fmt.Println("benign environments, and misses show the strictness lattice separating them.")
	if selfViolations > 0 {
		return fmt.Errorf("%d self-conformance failures", selfViolations)
	}
	return nil
}
