package main

// The -gate check: the quick sweeps `make bench-smoke` just wrote are
// held against the committed BENCH_*.json reports, point for point. Only
// dimensionless figures are gated — paired speedups and degradation
// ratios that a correct implementation reproduces on any machine and at
// any op count — and only where both reports measured the same workload:
// a quick sweep is a subset of the full one, never a rescaling of it.
// Every gated row is the median of at least three trials, and a point
// fails only when its median is beyond the rule's tolerance *and* the
// two interquartile ranges do not overlap, so host noise is absorbed by
// the measurement itself, not by measuring again.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

const (
	floor   = "floor"   // higher is better: fail below committed·(1−tolerance)
	ceiling = "ceiling" // lower is better: fail above committed·(1+tolerance)
	band    = "band"    // must reproduce: fail on either side
)

// gateRule gates one metric of one sweep at every workload both reports
// carry it for.
type gateRule struct {
	sweep     string
	metric    string
	direction string
	tolerance float64
}

var gateRules = []gateRule{
	{"store", "sharded_speedup", floor, 0.5},
	{"iter", "batched_speedup", floor, 0.5},
	// Batching is deterministic: a fetch plan that starts spending more
	// (or suspiciously fewer) round trips on the same set is a change in
	// behaviour, not noise.
	{"iter", "getbatch_rpcs", band, 0.1},
	// So are membership reads: one stream, or none on a Snapshot rerun,
	// per snapshot run, one per invocation on an unleased grow-only run.
	{"iter", "list_rpcs", band, 0.1},
	{"rpc", "mux_speedup", floor, 0.5},
	// The same healthy build reads 0.7–1.4 from one quiet run to the next
	// on a shared 2-core host — runs at 10k last 25 ms, and the trials
	// inside one run spread far less than runs do — so the ceiling is
	// 2.5x. A cursor or listing that goes back to O(n) per element reads
	// 5x at 50k.
	{"scale", "per_elem_vs_10k", ceiling, 1.5},
	// A first element is a sub-millisecond interval and its ratio moves
	// 2x between quiet runs; the regression this catches — the first
	// element waiting on the whole listing again — is 100x at 50k.
	{"scale", "first_elem_vs_10k", ceiling, 2},
}

// minGateSamples is the fewest trials a gated row may summarise.
const minGateSamples = 3

// verdict is one line of the gate's output: "ok", "FAIL" or "skip".
type verdict struct{ status, text string }

// iqr approximates a row's interquartile range as symmetric about its
// median, which is all the row schema records of it.
func (r row) iqr() (lo, hi float64) {
	half := r.Value * r.SpreadPct / 200
	return r.Value - half, r.Value + half
}

// judge compares one gated point. ok is false only when fresh is beyond
// tolerance on the rule's bad side and the ranges do not overlap.
func (g gateRule) judge(committed, fresh row) (ok bool, bound string) {
	clo, chi := committed.iqr()
	flo, fhi := fresh.iqr()
	low, high := committed.Value*(1-g.tolerance), committed.Value*(1+g.tolerance)
	tooLow := g.direction != ceiling && fresh.Value < low && fhi < clo
	tooHigh := g.direction != floor && fresh.Value > high && flo > chi
	switch g.direction {
	case floor:
		bound = fmt.Sprintf("floor %.3g", low)
	case ceiling:
		bound = fmt.Sprintf("ceiling %.3g", high)
	default:
		bound = fmt.Sprintf("band %.3g–%.3g", low, high)
	}
	return !tooLow && !tooHigh, bound
}

// gate applies every rule for sweep to the two reports' rows. A point
// missing on either side is skipped — reported, never passed — and a
// rule that finds no common point at all fails: a gate that compares
// nothing must not read as green.
func gate(sweep string, committed, fresh []row) []verdict {
	var out []verdict
	for _, g := range gateRules {
		if g.sweep != sweep {
			continue
		}
		com, _ := rowsByWorkload(committed, g.metric)
		fr, order := rowsByWorkload(fresh, g.metric)
		for _, c := range committed {
			if _, ok := fr[c.Workload]; c.Metric == g.metric && !ok {
				order = append(order, c.Workload)
			}
		}
		compared := 0
		for _, w := range order {
			name := fmt.Sprintf("%s %s/%s", sweep, g.metric, w)
			c, inCom := com[w]
			f, inFresh := fr[w]
			switch {
			case !inCom:
				out = append(out, verdict{"skip", name + ": not in the committed report"})
			case !inFresh:
				out = append(out, verdict{"skip", name + ": not measured by this run"})
			case c.Samples < minGateSamples || f.Samples < minGateSamples:
				out = append(out, verdict{"FAIL", fmt.Sprintf("%s: %d committed / %d fresh trials, a gated point needs %d",
					name, c.Samples, f.Samples, minGateSamples)})
			default:
				compared++
				ok, bound := g.judge(c, f)
				status := "ok"
				if !ok {
					status = "FAIL"
				}
				out = append(out, verdict{status, fmt.Sprintf("%s: %.3g ±%.0f%% vs committed %.3g ±%.0f%% (%s)",
					name, f.Value, f.SpreadPct, c.Value, c.SpreadPct, bound)})
			}
		}
		if compared == 0 {
			out = append(out, verdict{"FAIL", fmt.Sprintf("%s %s: no point present in both reports", sweep, g.metric)})
		}
	}
	return out
}

// rowsByWorkload indexes the rows carrying metric, keeping their order.
func rowsByWorkload(rows []row, metric string) (map[string]row, []string) {
	by := map[string]row{}
	var order []string
	for _, r := range rows {
		if r.Metric == metric {
			by[r.Workload] = r
			order = append(order, r.Workload)
		}
	}
	return by, order
}

// loadDoc reads one report, refusing anything that is not the one
// schema.
func loadDoc(path string) (document, error) {
	var doc document
	f, err := os.Open(path)
	if err != nil {
		return doc, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// runGate gates every sweep that has a rule: freshDir's reports against
// committedDir's.
func runGate(committedDir, freshDir string) error {
	fmt.Printf("gate: %s/BENCH_*.json against the committed reports in %s\n", freshDir, committedDir)
	var failures []string
	for _, s := range sweeps {
		name := "BENCH_" + s.name + ".json"
		com, err := loadDoc(filepath.Join(committedDir, name))
		if err != nil {
			return fmt.Errorf("gate: %w", err)
		}
		fresh, err := loadDoc(filepath.Join(freshDir, name))
		if err != nil {
			return fmt.Errorf("gate: %w", err)
		}
		for _, v := range gate(s.name, com.Rows, fresh.Rows) {
			fmt.Printf("  %-4s %s\n", v.status, v.text)
			if v.status == "FAIL" {
				failures = append(failures, v.text)
			}
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("gate FAILED:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Println("gate passed: no regression beyond tolerance and spread")
	return nil
}
