package main

// The harness every sweep shares: one row schema, one collector that
// folds repeated trials into a median and its spread, one function that
// renders the table and writes the file. The schema is bench/'s (re-
// declared here because bench/ is package main): a figure is a row, and
// a row carries how many trials it summarises and how far they spread,
// so no report states a number without the evidence for it.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"weaksets/internal/metrics"
)

// row is the one schema every figure is reported in.
type row struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"` // median over the trials
	Unit     string  `json:"unit"`
	Samples  int     `json:"samples"`
	// SpreadPct is the interquartile range of the trials as a percentage
	// of their median — what the gate holds a difference against.
	SpreadPct float64 `json:"spread_pct"`
	Layer     string  `json:"layer"`
}

// meta describes the run a report came from. Params holds the sweep's
// sizing (elements, batch, service time, …) so two reports are never
// compared blind.
type meta struct {
	Command    string             `json:"command"`
	GoVersion  string             `json:"go_version"`
	NumCPU     int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Codec      string             `json:"codec"`
	Seed       int64              `json:"seed"`
	Trials     int                `json:"trials"`
	Params     map[string]float64 `json:"params"`
}

// document is a BENCH_<sweep>.json file.
type document struct {
	Meta meta  `json:"meta"`
	Rows []row `json:"rows"`
}

// sweep is one entry of the -sweep selector. run measures into b; a
// figure observed once per trial becomes one row.
type sweep struct {
	name  string
	title string
	layer string // stamped on every row
	codec string // "inproc": nothing on the hot path is serialized
	run   func(b *bench) error
}

var sweeps = []sweep{
	{"store", "Store contention: locked vs sharded on the List+Get mix", "store", "inproc", storeSweep},
	{"iter", "Iterator fetch pipeline: defaults vs one id per round trip, simulated WAN", "core", "inproc", iterSweep},
	{"rpc", "TCP transport: snapshot fetch over loopback, serial vs multiplexed", "tcprpc", "wirebin", rpcSweep},
	{"scale", "Listing scalability: full Elements run, zero latency", "core", "inproc", scaleSweep},
	{"frontier", "Weakness-throughput frontier: optimistic Collect under churn", "core", "inproc", frontierSweep},
	{"replica", "Replica-parallel reads: grow-only Collect under churn, capped handler slots", "core", "inproc", replicaSweep},
}

// bench collects one sweep's observations.
type bench struct {
	quick  bool
	seed   int64
	trials int
	params map[string]float64

	keys    []rowKey // first-appearance order
	samples map[rowKey][]float64
}

type rowKey struct{ workload, metric, unit string }

// add records one trial's observation of metric on workload.
func (b *bench) add(workload, metric, unit string, v float64) {
	k := rowKey{workload, metric, unit}
	if _, ok := b.samples[k]; !ok {
		b.keys = append(b.keys, k)
	}
	b.samples[k] = append(b.samples[k], v)
}

func (b *bench) rows(layer string) []row {
	out := make([]row, 0, len(b.keys))
	for _, k := range b.keys {
		xs := b.samples[k]
		med, spread := medianSpread(xs)
		out = append(out, row{
			Workload: k.workload, Metric: k.metric, Value: med, Unit: k.unit,
			Samples: len(xs), SpreadPct: spread, Layer: layer,
		})
	}
	return out
}

// medianSpread is the median of xs and their interquartile range as a
// percentage of it, with the quartiles Python's
// statistics.quantiles(n=4) gives — the method bench/ uses, so a spread
// means the same thing in every report in the repo.
func medianSpread(xs []float64) (med, spreadPct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 { // exclusive method: position p*(n+1), 1-based
		pos := p * float64(len(s)+1)
		lo := int(pos)
		if lo < 1 {
			return s[0]
		}
		if lo >= len(s) {
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	med = at(0.5)
	if med == 0 {
		return 0, 0
	}
	return med, 100 * (at(0.75) - at(0.25)) / med
}

// runSweep measures one sweep, prints its table and writes
// dir/BENCH_<name>.json. The servers and clients of every sweep share
// the process, so one core would serialise what the system overlaps:
// like bench/, never measure at GOMAXPROCS 1.
func runSweep(s sweep, quick bool, seed int64, dir string) error {
	runtime.GOMAXPROCS(max(2, min(runtime.NumCPU(), 4)))
	b := &bench{quick: quick, seed: seed, trials: 5, params: map[string]float64{}, samples: map[rowKey][]float64{}}
	command := "weakbench -sweep " + s.name
	if quick {
		b.trials = 3
		command += " -quick"
	}
	if err := s.run(b); err != nil {
		return fmt.Errorf("%s sweep: %w", s.name, err)
	}
	doc := document{
		Meta: meta{
			Command: command, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0), Codec: s.codec, Seed: seed, Trials: b.trials, Params: b.params,
		},
		Rows: b.rows(s.layer),
	}
	render(fmt.Sprintf("%s (GOMAXPROCS=%d, median of %d trials ±IQR%%)", s.title, doc.Meta.GOMAXPROCS, b.trials), doc.Rows)

	path := filepath.Join(dir, "BENCH_"+s.name+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("encode %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d rows)\n\n", path, len(doc.Rows))
	return nil
}

// render prints rows pivoted: one line per workload, one column per
// metric, both in first-appearance order.
func render(title string, rows []row) {
	var workloads, cols []string
	cells := map[[2]string]string{}
	for _, r := range rows {
		if !slices.Contains(workloads, r.Workload) {
			workloads = append(workloads, r.Workload)
		}
		if !slices.Contains(cols, r.Metric) {
			cols = append(cols, r.Metric)
		}
		cell := fmtValue(r.Value)
		if r.SpreadPct >= 0.5 {
			cell += fmt.Sprintf(" ±%.0f%%", r.SpreadPct)
		}
		cells[[2]string{r.Workload, r.Metric}] = cell
	}
	table := metrics.NewTable(title, append([]string{"workload"}, cols...)...)
	for _, w := range workloads {
		line := []string{w}
		for _, c := range cols {
			cell, ok := cells[[2]string{w, c}]
			if !ok {
				cell = "-"
			}
			line = append(line, cell)
		}
		table.AddRow(line...)
	}
	table.Render(os.Stdout)
}

// fmtValue keeps three or four significant digits without falling into
// exponent notation for the throughputs.
func fmtValue(v float64) string {
	switch {
	case v >= 1000 || v == math.Trunc(v):
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	}
	return fmt.Sprintf("%.3g", v)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
