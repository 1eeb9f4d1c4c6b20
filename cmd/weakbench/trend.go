package main

// The -trend gate: the ROADMAP trend-tracking item. It re-runs the quick
// store, iterator, TCP, and scale sweeps, then compares the figures that
// are stable across sweep sizes against the committed BENCH_*.json
// reports and fails loudly on gross regressions.
// Absolute throughput is deliberately not compared — the smoke sweeps are
// smaller and the machines differ — only ratios and invariants that a
// correct implementation reproduces at any size: the sharded store's
// advantage over the single-mutex engine, the batched fetch pipeline's
// speedup over one id per round trip, the multiplexing speedup, and the
// partitioned listing's per-element and first-element degradation caps.
//
// Several sweeps time sub-millisecond real intervals, and on a small CI
// box a single load spike can sink whichever sweep it lands on. A sweep
// whose checks fail is therefore re-measured once from scratch and judged
// on the fresh numbers: a real regression reproduces, a scheduling hiccup
// does not.

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"weaksets/internal/sim"
)

// trendCheck is one gated comparison under the tolerance policy. Fractions compare
// by absolute difference; ratios compare multiplicatively, failing only
// below committed*(1-tol) — a smoke run being faster is never a failure.
type trendCheck struct {
	name      string
	committed float64
	smoke     float64
	kind      string // "fraction" (abs diff) or "ratio" (multiplicative floor)
}

func (tc trendCheck) failure(tol float64) string {
	switch tc.kind {
	case "fraction":
		// Fractions live on [0,1]; a fixed absolute band is the right
		// scale and symmetric (elision getting "better" than committed by
		// more than the band would be just as suspicious a measurement).
		const band = 0.15
		if d := tc.smoke - tc.committed; d > band || d < -band {
			return fmt.Sprintf("%s: smoke %.3f vs committed %.3f (band ±%.2f)", tc.name, tc.smoke, tc.committed, band)
		}
	case "ratio":
		if floor := tc.committed * (1 - tol); tc.smoke < floor {
			return fmt.Sprintf("%s: smoke %.2fx vs committed %.2fx (floor %.2fx)", tc.name, tc.smoke, tc.committed, floor)
		}
	}
	return ""
}

// evalChecks judges a batch of comparisons, printing one line per check,
// and returns the failure messages.
func evalChecks(checks []trendCheck, tol float64) []string {
	var failures []string
	for _, tc := range checks {
		if msg := tc.failure(tol); msg != "" {
			failures = append(failures, msg)
			fmt.Printf("  FAIL %s\n", msg)
		} else {
			fmt.Printf("  ok  %s: smoke %.2f (committed %.2f)\n", tc.name, tc.smoke, tc.committed)
		}
	}
	return failures
}

// storeShardedRatio folds a contention sweep into sharded-over-locked
// throughput per worker count.
func storeShardedRatio(r storeReport) map[int]float64 {
	locked := map[int]float64{}
	for _, res := range r.Results {
		if res.Engine == "locked" {
			locked[res.Workers] = res.OpsPerSec
		}
	}
	out := map[int]float64{}
	for _, res := range r.Results {
		if res.Engine == "sharded" && locked[res.Workers] > 0 {
			out[res.Workers] = res.OpsPerSec / locked[res.Workers]
		}
	}
	return out
}

func loadTrendReport(path string, into any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, into)
}

// trendPaths names the committed reports the gate compares against.
type trendPaths struct {
	store, iter, rpc, scale string
}

// trendGate couples one smoke sweep with the comparison of its report
// against the committed one. run re-measures into path; eval loads both
// reports, prints a line per check, and returns failures and skips.
type trendGate struct {
	name string
	path string
	run  func(path string) error
	eval func(path string) (failures, skipped []string, err error)
}

func (g trendGate) attempt() (failures, skipped []string, err error) {
	if err := g.run(g.path); err != nil {
		return nil, nil, fmt.Errorf("trend: %s smoke: %w", g.name, err)
	}
	fmt.Println()
	return g.eval(g.path)
}

// runTrend runs the quick sweeps and gates them against the committed
// reports. tol is the multiplicative tolerance for ratio comparisons;
// iterScale must match the scale the committed iter report was measured
// at, or the CPU-vs-WAN balance shifts and the speedups don't compare.
func runTrend(committed trendPaths, tol float64, seed int64, rpcLat time.Duration, iterScale sim.TimeScale) error {
	fmt.Printf("trend gate: smoke sweeps vs %s, %s, %s, %s (ratio tolerance %.0f%%)\n\n",
		committed.store, committed.iter, committed.rpc, committed.scale, 100*tol)

	gates := []trendGate{
		{
			// The iterator sweep runs first and un-trimmed: its
			// batched-over-baseline speedup grows with set size (a
			// 64-element quick run fits one batch and shows a fraction of
			// the pipelining win), so only same-size points compare — and
			// its timed intervals are sub-millisecond real time, so it gets
			// the quiet process before the allocation-heavy store smoke
			// churns the heap. The full sweep is cheap — it runs in scaled
			// virtual time.
			name: "iter",
			path: "/tmp/BENCH_iter_trend.json",
			run: func(path string) error {
				return runIterSweep(path, false, seed, iterScale)
			},
			eval: func(path string) ([]string, []string, error) {
				var com, smoke iterReport
				if err := loadTrendReport(committed.iter, &com); err != nil {
					return nil, nil, fmt.Errorf("trend: %w", err)
				}
				if err := loadTrendReport(path, &smoke); err != nil {
					return nil, nil, fmt.Errorf("trend: %w", err)
				}
				// Batched-over-per-object elements/sec per semantics and
				// size; same-size points compare directly.
				var checks []trendCheck
				var skipped []string
				for key, s := range smoke.Speedup {
					c, ok := com.Speedup[key]
					if !ok {
						skipped = append(skipped, "iter speedup/"+key)
						continue
					}
					checks = append(checks, trendCheck{"iter speedup/" + key, c, s, "ratio"})
				}
				return evalChecks(checks, tol), skipped, nil
			},
		},
		{
			name: "store",
			path: "/tmp/BENCH_store_trend.json",
			run: func(path string) error {
				return runStoreSweep(path, true)
			},
			eval: func(path string) ([]string, []string, error) {
				var com, smoke storeReport
				if err := loadTrendReport(committed.store, &com); err != nil {
					return nil, nil, fmt.Errorf("trend: %w", err)
				}
				if err := loadTrendReport(path, &smoke); err != nil {
					return nil, nil, fmt.Errorf("trend: %w", err)
				}
				// The sharded engine's throughput advantage over the
				// single-mutex baseline at each worker count. The ratio is
				// a per-op cost comparison, so it survives the smoke
				// sweep's smaller op count.
				var checks []trendCheck
				var skipped []string
				comRatio := storeShardedRatio(com)
				for workers, s := range storeShardedRatio(smoke) {
					name := fmt.Sprintf("store shardedSpeedup/workers=%d", workers)
					c, ok := comRatio[workers]
					if !ok {
						skipped = append(skipped, name)
						continue
					}
					checks = append(checks, trendCheck{name, c, s, "ratio"})
				}
				return evalChecks(checks, tol), skipped, nil
			},
		},
		{
			name: "rpc",
			path: "/tmp/BENCH_rpc_trend.json",
			run: func(path string) error {
				return runRPCSweep(path, true, rpcLat)
			},
			eval: func(path string) ([]string, []string, error) {
				var com, smoke rpcReport
				if err := loadTrendReport(committed.rpc, &com); err != nil {
					return nil, nil, fmt.Errorf("trend: %w", err)
				}
				if err := loadTrendReport(path, &smoke); err != nil {
					return nil, nil, fmt.Errorf("trend: %w", err)
				}
				var checks []trendCheck
				var skipped []string
				for key, s := range smoke.Speedup {
					c, ok := com.Speedup[key]
					if !ok {
						skipped = append(skipped, "rpc speedup/"+key)
						continue
					}
					// budget=1 has no parallelism to lose; its ratio is
					// ~1.0 noise.
					if strings.HasSuffix(key, "/budget=1") {
						continue
					}
					checks = append(checks, trendCheck{"rpc speedup/" + key, c, s, "ratio"})
				}
				return evalChecks(checks, tol), skipped, nil
			},
		},
		{
			name: "scale",
			path: "/tmp/BENCH_scale_trend.json",
			run: func(path string) error {
				return runScaleSweep(path, true, seed)
			},
			eval: func(path string) ([]string, []string, error) {
				var com, smoke scaleReport
				if err := loadTrendReport(committed.scale, &com); err != nil {
					return nil, nil, fmt.Errorf("trend: %w", err)
				}
				if err := loadTrendReport(path, &smoke); err != nil {
					return nil, nil, fmt.Errorf("trend: %w", err)
				}
				// Listing scalability: degradation ratios (biggest size
				// over smallest; 1.0 = perfectly flat) must not blow past
				// the committed figure. These are inverted relative to
				// speedups — smaller is better — so the gate is a
				// multiplicative ceiling at committed*(1+tol).
				scaleRatios := []struct {
					name      string
					committed map[string]float64
					smoke     map[string]float64
				}{
					{"scale perElementRatio", com.PerElementRatio, smoke.PerElementRatio},
					{"scale firstElementRatio", com.FirstElementRatio, smoke.FirstElementRatio},
				}
				var failures, skipped []string
				for _, sr := range scaleRatios {
					for mode, s := range sr.smoke {
						c, ok := sr.committed[mode]
						if !ok {
							skipped = append(skipped, sr.name+"/"+mode)
							continue
						}
						if ceiling := c * (1 + tol); s > ceiling {
							msg := fmt.Sprintf("%s/%s: smoke %.2f vs committed %.2f (ceiling %.2f)", sr.name, mode, s, c, ceiling)
							failures = append(failures, msg)
							fmt.Printf("  FAIL %s\n", msg)
							continue
						}
						fmt.Printf("  ok  %s/%s: %.2f (committed %.2f)\n", sr.name, mode, s, c)
					}
				}
				return failures, skipped, nil
			},
		},
	}

	var failures, skipped []string
	for _, g := range gates {
		fail, skip, err := g.attempt()
		if err != nil {
			return err
		}
		if len(fail) > 0 {
			fmt.Printf("\n  %s: %d check(s) failed — re-measuring once to rule out host noise\n\n", g.name, len(fail))
			if fail, skip, err = g.attempt(); err != nil {
				return err
			}
		}
		failures = append(failures, fail...)
		skipped = append(skipped, skip...)
		fmt.Println()
	}
	for _, s := range skipped {
		fmt.Printf("  skip %s: not present in both reports\n", s)
	}
	if len(failures) > 0 {
		return fmt.Errorf("trend gate FAILED:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Println("trend gate passed: no regressions beyond tolerance")
	return nil
}
