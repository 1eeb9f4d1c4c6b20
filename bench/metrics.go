package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// metricDef names one metric the benchmark emits. Every workload emits
// every metric exactly once; BENCHMARK.json lists the same names.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// boundPct is how far an end-to-end metric may worsen, as a
	// percentage of the baseline, before -compare calls it a regression.
	// Per-layer metrics have no bound (-1).
	boundPct float64
	// universal marks the end-to-end metrics that are defined and
	// non-zero on every workload. Only those can be listed under
	// BENCHMARK.json's end_to_end, which admits no zero and no
	// workload-specific metric; the others ride in its per_layer list.
	universal bool
}

// layer is the package a metric belongs to: the prefix of a dotted
// name, "e2e" otherwise.
func (d metricDef) layer() string {
	if i := strings.IndexByte(d.name, '.'); i > 0 {
		return d.name[:i]
	}
	return "e2e"
}

// The bounds are wider than the issue proposed (10-15 % on timings, 2 %
// on counts). The timings are quiet-host time (ref.go), which ten
// invocations minutes apart reproduce within 2-8 %; a bound should be
// three times the spread, hence 25 %. Under the open-loop writer every
// per-run count grows with the run's wall time, which no yardstick
// corrects, so on cur_churn_500 the counts spread up to 8 %: 25 % too.
var endToEnd = []metricDef{
	{name: "elems_per_s", unit: "1/s", better: "higher", boundPct: 25, universal: true},
	{name: "run_ms_p50", unit: "ms", better: "lower", boundPct: 25, universal: true},
	{name: "run_ms_p95", unit: "ms", better: "lower", boundPct: 25, universal: true},
	{name: "ttfe_ms_p50", unit: "ms", better: "lower", boundPct: 25, universal: true},
	{name: "ttfe_ms_p95", unit: "ms", better: "lower", boundPct: 25, universal: true},
	{name: "allocs_per_run", unit: "count", better: "lower", boundPct: 25, universal: true},
	{name: "kb_alloc_per_run", unit: "KB", better: "lower", boundPct: 25, universal: true},
	{name: "read_rpcs_per_run", unit: "count", better: "lower", boundPct: 25},
	{name: "wire_kb_per_run", unit: "KB", better: "lower", boundPct: 25},
	{name: "write_ms_p50", unit: "ms", better: "lower", boundPct: 25},
	{name: "write_ms_p95", unit: "ms", better: "lower", boundPct: 25},
	{name: "fail_pct", unit: "%", better: "lower", boundPct: 0},
	{name: "setup_s", unit: "s", better: "lower", boundPct: 25, universal: true},
}

func layerDef(name, unit, better string) metricDef {
	return metricDef{name: name, unit: unit, better: better, boundPct: -1}
}

var perLayer = []metricDef{
	layerDef("store.get_batch_us", "us", "lower"),
	layerDef("store.put_us", "us", "lower"),
	layerDef("store.list_part_us", "us", "lower"),
	layerDef("store.add_us", "us", "lower"),
	layerDef("store.remove_us", "us", "lower"),
	layerDef("store.ops_per_run", "count", "lower"),
	layerDef("store.busy_ms_per_run", "ms", "lower"),
	layerDef("store.busy_share_pct", "%", "lower"),

	layerDef("wirebin.enc_getbatchresp_us", "us", "lower"),
	layerDef("wirebin.dec_getbatchresp_us", "us", "lower"),
	layerDef("wirebin.dec_getbatchresp_allocs", "count", "lower"),
	layerDef("wirebin.getbatchresp_bytes", "B", "lower"),
	layerDef("wirebin.enc_partlisting_us", "us", "lower"),
	layerDef("wirebin.dec_partlisting_us", "us", "lower"),
	layerDef("wirebin.dec_partlisting_allocs", "count", "lower"),
	layerDef("wirebin.partlisting_bytes", "B", "lower"),

	layerDef("tcprpc.rtt_small_us", "us", "lower"),
	layerDef("tcprpc.rtt_batch_us", "us", "lower"),
	layerDef("tcprpc.pipelined_calls_per_s", "1/s", "higher"),
	layerDef("tcprpc.stream_refs_per_s", "1/s", "higher"),
	layerDef("tcprpc.calls_per_run", "count", "lower"),
	layerDef("tcprpc.getbatch_calls_per_run", "count", "lower"),
	layerDef("tcprpc.bytes_sent_per_run", "B", "lower"),
	layerDef("tcprpc.bytes_recv_per_run", "B", "lower"),
	layerDef("tcprpc.call_ms_per_run", "ms", "lower"),
	layerDef("tcprpc.call_share_pct", "%", "lower"),
	layerDef("tcprpc.max_inflight", "count", "lower"),
	layerDef("tcprpc.failures", "count", "lower"),
	layerDef("tcprpc.reconnects", "count", "lower"),

	layerDef("repo.getbatch_inproc_us", "us", "lower"),
	layerDef("repo.cache_serve_us", "us", "lower"),
	layerDef("repo.cache_hit_ratio", "ratio", "higher"),
	layerDef("repo.cache_validated_ratio", "ratio", "lower"),
	layerDef("repo.not_modified_ratio", "ratio", "higher"),
	layerDef("repo.lease_served_ratio", "ratio", "higher"),
	layerDef("repo.lease_breaks_per_run", "count", "lower"),

	layerDef("core.step_us_1k", "us", "lower"),
	layerDef("core.step_opt_us_1k", "us", "lower"),
	layerDef("core.invocations_per_run", "count", "lower"),
	layerDef("core.inproc_run_ms_p50", "ms", "lower"),
	layerDef("core.open_ms_p50", "ms", "lower"),
	layerDef("core.first_ms_p50", "ms", "lower"),
	layerDef("core.drain_ms_p50", "ms", "lower"),
	layerDef("core.close_ms_p50", "ms", "lower"),
	layerDef("core.next_us_p50", "us", "lower"),
	layerDef("core.next_us_p99", "us", "lower"),

	layerDef("obs.observe_us", "us", "lower"),
	layerDef("obs.span_us", "us", "lower"),

	layerDef("bench.trace_overhead_pct", "%", "lower"),
	layerDef("bench.phase_gap_pct", "%", "lower"),
	layerDef("bench.writer_late_ms_p95", "ms", "lower"),
	layerDef("bench.host_ref_us", "us", "lower"),
	layerDef("bench.host_factor", "ratio", "lower"),
	layerDef("bench.wall_run_ms_p50", "ms", "lower"),
}

var defByName = func() map[string]metricDef {
	m := make(map[string]metricDef, len(endToEnd)+len(perLayer))
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.name] = d
	}
	return m
}()

// row is the one schema every figure is reported in.
type row struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	// Samples is how many observations the value summarises; 0 marks a
	// metric that does not apply to the workload (write latency where
	// nothing writes).
	Samples  int     `json:"samples"`
	BoundPct float64 `json:"bound_pct"`
	Layer    string  `json:"layer"`
	// SpreadPct is the interquartile range over five consecutive slices
	// of the measured window, as a percentage of their median — the
	// within-run spread -compare holds a difference against.
	SpreadPct float64 `json:"spread_pct,omitempty"`
}

// report collects one workload's rows.
type report struct {
	workload string
	rows     []row
}

func (r *report) add(metric string, value float64, samples int) *row {
	d, ok := defByName[metric]
	if !ok {
		panic("bench: undefined metric " + metric)
	}
	r.rows = append(r.rows, row{
		Workload: r.workload, Metric: metric, Value: value, Unit: d.unit,
		Samples: samples, BoundPct: d.boundPct, Layer: d.layer(),
	})
	return &r.rows[len(r.rows)-1]
}

func (r *report) print(w io.Writer) {
	for _, x := range r.rows {
		fmt.Fprintf(w, "%s %s %s %s n=%d\n", x.Workload, x.Metric, fmtValue(x.Value), x.Unit, x.Samples)
	}
}

// fmtValue keeps every digit that was measured without drowning small
// values in zeros.
func fmtValue(v float64) string {
	return fmt.Sprintf("%.6g", v)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// spreadPct is the interquartile range of xs over their median, in
// percent, with the quartiles Python's statistics.quantiles(n=4) gives.
func spreadPct(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
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
	med := at(0.5)
	if med == 0 {
		return 0
	}
	return 100 * (at(0.75) - at(0.25)) / med
}
