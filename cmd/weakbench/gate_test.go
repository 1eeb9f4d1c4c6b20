package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// gated builds a gated row: value is the median of three trials whose
// interquartile range is spreadPct of it.
func gated(workload, metric string, value, spreadPct float64) row {
	return row{Workload: workload, Metric: metric, Value: value, Unit: "x", Samples: 3, SpreadPct: spreadPct}
}

func TestGateJudge(t *testing.T) {
	committed := gated("w", "m", 10, 10) // IQR 9.5–10.5
	cases := []struct {
		name      string
		direction string
		fresh     row
		ok        bool
	}{
		{"floor: equal", floor, gated("w", "m", 10, 10), true},
		{"floor: faster is never a failure", floor, gated("w", "m", 40, 5), true},
		{"floor: within tolerance", floor, gated("w", "m", 6, 0), true},
		{"floor: beyond tolerance, ranges apart", floor, gated("w", "m", 4, 10), false},
		{"floor: beyond tolerance but ranges overlap", floor, gated("w", "m", 4.9, 200), true},
		{"ceiling: equal", ceiling, gated("w", "m", 10, 10), true},
		{"ceiling: lower is never a failure", ceiling, gated("w", "m", 1, 5), true},
		{"ceiling: within tolerance", ceiling, gated("w", "m", 14, 0), true},
		{"ceiling: beyond tolerance, ranges apart", ceiling, gated("w", "m", 16, 10), false},
		{"ceiling: beyond tolerance but ranges overlap", ceiling, gated("w", "m", 16, 80), true},
		{"band: equal", band, gated("w", "m", 10, 0), true},
		{"band: too low", band, gated("w", "m", 4, 0), false},
		{"band: too high", band, gated("w", "m", 16, 0), false},
		{"band: too high but ranges overlap", band, gated("w", "m", 16, 80), true},
	}
	for _, tc := range cases {
		rule := gateRule{"s", "m", tc.direction, 0.5}
		if ok, bound := rule.judge(committed, tc.fresh); ok != tc.ok {
			t.Errorf("%s: ok = %v, want %v (%s)", tc.name, ok, tc.ok, bound)
		}
	}
}

// statuses folds a gate's verdicts to "status workload" for comparison.
func statuses(vs []verdict) []string {
	var out []string
	for _, v := range vs {
		name, _, _ := strings.Cut(v.text, ":")
		out = append(out, v.status+" "+name)
	}
	return out
}

func TestGateSkipsWhatOneSideLacks(t *testing.T) {
	committed := []row{
		gated("sharded/workers=1", "sharded_speedup", 12, 10),
		gated("sharded/workers=4", "sharded_speedup", 11, 10),
		gated("sharded/workers=1", "ops_per_s", 4e5, 10), // not a gated metric
	}
	fresh := []row{
		gated("sharded/workers=1", "sharded_speedup", 11, 10),
		gated("sharded/workers=16", "sharded_speedup", 9, 10),
	}
	got := statuses(gate("store", committed, fresh))
	want := []string{
		"ok store sharded_speedup/sharded/workers=1",
		"skip store sharded_speedup/sharded/workers=16",
		"skip store sharded_speedup/sharded/workers=4",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("verdicts:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestGateFailsWhenNothingCompares(t *testing.T) {
	// A renamed workload must not turn the gate green by skipping.
	committed := []row{gated("sharded/workers=1", "sharded_speedup", 12, 10)}
	fresh := []row{gated("sharded/w=1", "sharded_speedup", 12, 10)}
	vs := gate("store", committed, fresh)
	if last := vs[len(vs)-1]; last.status != "FAIL" || !strings.Contains(last.text, "no point present in both") {
		t.Errorf("verdicts = %+v, want a closing FAIL", vs)
	}
}

func TestGateNeedsThreeTrials(t *testing.T) {
	committed := []row{gated("sharded/workers=1", "sharded_speedup", 12, 10)}
	once := gated("sharded/workers=1", "sharded_speedup", 12, 0)
	once.Samples = 1
	if vs := gate("store", committed, []row{once}); vs[0].status != "FAIL" {
		t.Errorf("a single-trial point passed the gate: %+v", vs)
	}
}

func TestScaleGateComparesSameSizeOnly(t *testing.T) {
	committed := []row{
		gated("partitioned/50000", "per_elem_vs_10k", 1.2, 15),
		gated("partitioned/1000000", "per_elem_vs_10k", 1.3, 10),
		gated("partitioned/50000", "first_elem_vs_10k", 3.4, 30),
		gated("partitioned/1000000", "first_elem_vs_10k", 15, 30),
	}
	healthy := []row{
		gated("partitioned/50000", "per_elem_vs_10k", 1.25, 15),
		gated("partitioned/50000", "first_elem_vs_10k", 3.0, 30),
	}
	for _, v := range gate("scale", committed, healthy) {
		if v.status == "FAIL" {
			t.Errorf("healthy quick sweep failed: %s", v.text)
		}
		// The 1M points exist only in the committed report: never a
		// yardstick for the 50k run.
		if strings.Contains(v.text, "1000000") && v.status != "skip" {
			t.Errorf("1M point was judged: %+v", v)
		}
	}

	regressed := []row{
		gated("partitioned/50000", "per_elem_vs_10k", 3*1.2, 15),
		gated("partitioned/50000", "first_elem_vs_10k", 3.0, 30),
	}
	var failed []string
	for _, v := range gate("scale", committed, regressed) {
		if v.status == "FAIL" {
			failed = append(failed, v.text)
		}
	}
	if len(failed) != 1 || !strings.Contains(failed[0], "per_elem_vs_10k/partitioned/50000") {
		t.Errorf("3x per-element regression at 50k: failures = %q, want exactly that point", failed)
	}
}

func TestMedianSpread(t *testing.T) {
	// The quartile method bench/ pins against Python's
	// statistics.quantiles(n=4): q1 = 2.75, q3 = 8.25 over 1..10.
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	med, spread := medianSpread(xs)
	if med != 5.5 || math.Abs(spread-100*(8.25-2.75)/5.5) > 1e-9 {
		t.Errorf("medianSpread = %v, %v", med, spread)
	}
	// Three trials: the quartiles are the extremes.
	if med, spread := medianSpread([]float64{12, 10, 11}); med != 11 || math.Abs(spread-100*2/11.0) > 1e-9 {
		t.Errorf("medianSpread of three = %v, %v", med, spread)
	}
}

// TestCommittedReportsParse holds the committed reports to the contract
// the gate and the docs rely on: one schema, never measured on one core,
// and every row the gate reads backed by at least three trials.
func TestCommittedReportsParse(t *testing.T) {
	for _, s := range sweeps {
		doc, err := loadDoc(filepath.Join("..", "..", "BENCH_"+s.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if doc.Meta.GOMAXPROCS < 2 {
			t.Errorf("%s: measured at GOMAXPROCS %d", s.name, doc.Meta.GOMAXPROCS)
		}
		if doc.Meta.Command == "" || strings.Contains(doc.Meta.Command, "-quick") {
			t.Errorf("%s: committed report came from %q, want the full sweep", s.name, doc.Meta.Command)
		}
		if len(doc.Rows) == 0 {
			t.Errorf("%s: no rows", s.name)
		}
		// A spread of zero is a measurement; a missing one is not.
		raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_"+s.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(raw), `"spread_pct"`); n != len(doc.Rows) {
			t.Errorf("%s: %d of %d rows state a spread_pct", s.name, n, len(doc.Rows))
		}
		for _, r := range doc.Rows {
			if r.Workload == "" || r.Metric == "" || r.Unit == "" || r.Layer == "" || r.Samples < 1 {
				t.Errorf("%s: incomplete row %+v", s.name, r)
			}
		}
		for _, g := range gateRules {
			if g.sweep != s.name {
				continue
			}
			rows, _ := rowsByWorkload(doc.Rows, g.metric)
			if len(rows) == 0 {
				t.Errorf("%s: no %s row for the gate to read", s.name, g.metric)
			}
			for w, r := range rows {
				if r.Samples < minGateSamples || r.SpreadPct < 0 {
					t.Errorf("%s %s/%s: samples %d, spread %v", s.name, g.metric, w, r.Samples, r.SpreadPct)
				}
			}
		}
	}
}
