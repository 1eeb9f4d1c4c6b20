// Command bench is the repository's one end-to-end benchmark: a
// directory node and four storage nodes served over loopback tcprpc, one
// closed-loop reader driving `elements` runs through the production
// stack, every yielded set verified, and a per-layer ledger beside the
// end-to-end figures. BENCHMARK.json at the repository root is its
// contract; README.md in this directory explains the choices.
//
//	go run ./bench -seed 1                        every workload, every metric
//	go run ./bench -seed 1 -workload snap_cold_10k
//	go run ./bench -compare a.json b.json         gate two reports against the bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"weaksets/internal/metrics"
)

// setupRepeats is how many times a workload is set up from nothing per
// invocation; setup_s is their median and the last one is measured.
const setupRepeats = 3

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64 // the measured window; warm-up and the traced pass scale with it
	traced  bool    // also run the traced pass and the layer microbenchmarks
	div     int     // member-count divisor, 1 outside the smoke test
	micro   micro   // budget of each layer microbenchmark
	ref     *hostRef
	outDir  string
}

func (c config) measured() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// The issue's 2 s warm-up and 8 s traced pass per 30 s measured, kept in
// proportion when the window is shortened.
func (c config) warmup() time.Duration     { return c.measured() / 15 }
func (c config) tracedPass() time.Duration { return c.measured() * 4 / 15 }

// meta describes the run a report came from.
type meta struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Codec      string  `json:"codec"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

// document is the one JSON report the benchmark writes.
type document struct {
	Meta meta  `json:"meta"`
	Rows []row `json:"rows"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() {
	var (
		cfg     config
		only    = flag.String("workload", "all", "workload to run, or all")
		trace   = flag.Int("trace", 1, "0: end-to-end metrics only; 1: also the traced pass and per-layer metrics")
		compare = flag.Bool("compare", false, "compare two reports: -compare a.json b.json")
	)
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for ids, payloads and the writer's op sequence")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per workload")
	flag.StringVar(&cfg.outDir, "out", filepath.Join(".bench_build", "out"), "directory for the JSON report and span files")
	flag.Parse()
	cfg.traced, cfg.div, cfg.micro = *trace != 0, 1, fullMicro

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			os.Exit(2)
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	selected := workloads
	if *only != "all" {
		wl, ok := workloadByName(*only)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *only)
			os.Exit(2)
		}
		selected = []workload{wl}
	}
	failed, err := measure(cfg, selected)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if failed {
		os.Exit(1)
	}
}

// measure runs the selected workloads, prints their rows and result
// lines, and writes the report and span files. failed reports that some
// run or write failed or was not verified.
func measure(cfg config, selected []workload) (failed bool, err error) {
	// The five servers share the process with the reader, so one core
	// would serialise what the stack overlaps; never measure at 1.
	runtime.GOMAXPROCS(max(2, min(runtime.NumCPU(), 4)))
	if cfg.ref, err = newHostRef(); err != nil {
		return false, err
	}
	defer cfg.ref.close()

	doc := document{Meta: meta{
		Commit: commit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: cfg.seed, Seconds: cfg.seconds,
	}}
	for _, wl := range selected {
		res, err := benchWorkload(context.Background(), wl, cfg)
		if err != nil {
			return false, fmt.Errorf("%s: %w", wl.name, err)
		}
		doc.Meta.Codec = res.codec
		doc.Rows = append(doc.Rows, res.report.rows...)
		res.report.print(os.Stdout)
		if res.failed > 0 {
			failed = true
			fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed, first: %s\n", wl.name, res.failed, res.attempted, res.why)
		}
		if len(res.spans) > 0 {
			if err := writeJSON(filepath.Join(cfg.outDir, "spans-"+wl.name+".json"), res.spans); err != nil {
				return failed, err
			}
		}
		// The builder's contract: one JSON object as the last line of a
		// single-workload invocation.
		fmt.Println(res.contractLine(cfg.traced))
	}
	path := filepath.Join(cfg.outDir, "bench.json")
	if err := writeJSON(path, doc); err != nil {
		return failed, err
	}
	fmt.Fprintln(os.Stderr, "bench: wrote", path)
	return failed, nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// result is one workload's outcome.
type result struct {
	report    *report
	codec     string
	attempted int
	failed    int
	why       string
	spans     []span // the traced pass's trace, written out after everything is measured
}

// contractLine renders the builder's result object: with tracing off
// the end-to-end metrics BENCHMARK.json lists, with it on the per-layer
// ones.
func (r *result) contractLine(traced bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]value{}}
	for _, x := range r.report.rows {
		if defByName[x.Metric].universal != traced {
			out.Metrics[x.Metric] = value{x.Value, x.Unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(line)
}

// benchWorkload sets the workload up (several times, for setup_s), warms
// it, measures it with tracing off, and — when asked — runs the traced
// pass, the in-process baseline and the layer microbenchmarks.
func benchWorkload(ctx context.Context, wl workload, cfg config) (*result, error) {
	wl = wl.scaled(cfg.div)
	var (
		st     *stack
		e      *env
		setups []time.Duration
	)
	for i := range setupRepeats {
		if e != nil {
			e.close()
			st.close()
		}
		t0 := time.Now()
		var err error
		if st, err = newTCPStack(); err != nil {
			return nil, err
		}
		if e, err = setUp(ctx, st, wl, cfg.seed); err != nil {
			st.close()
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, time.Since(t0))
	}
	defer st.close()
	defer e.close()
	e.ref = cfg.ref

	e.runPass(ctx, cfg.warmup(), false)
	mp := e.runPass(ctx, cfg.measured(), false)
	if len(mp.good) == 0 {
		return nil, fmt.Errorf("no run verified; first failure: %s", mp.why)
	}
	res := &result{
		report: &report{workload: wl.name}, codec: st.gateways[0].Stats().Codec,
		attempted: mp.attempted(), failed: mp.failures(), why: mp.why,
	}
	endToEndRows(res.report, mp, setups)
	if !cfg.traced {
		return res, cfg.ref.err
	}

	tp := e.runPass(ctx, cfg.tracedPass(), true)
	if len(tp.good) == 0 {
		return nil, fmt.Errorf("traced pass: no run verified; first failure: %s", tp.why)
	}
	res.attempted += tp.attempted()
	res.failed += tp.failures()
	if res.why == "" {
		res.why = tp.why
	}
	res.spans = tp.tr.spans
	layerRows(res.report, mp, tp)

	inproc, runs, err := inprocBaseline(ctx, wl, cfg)
	if err != nil {
		return nil, fmt.Errorf("in-process baseline: %w", err)
	}
	res.report.add("core.inproc_run_ms_p50", inproc, runs)
	m := cfg.micro
	m.report = res.report
	if err := m.layers(ctx); err != nil {
		return nil, err
	}
	return res, cfg.ref.err
}

// inprocBaseline runs the same workload on one in-process bus: the read
// pipeline with no sockets and no codec. End-to-end minus this is what
// transport and codec cost.
func inprocBaseline(ctx context.Context, wl workload, cfg config) (runMsP50 float64, runs int, err error) {
	st, err := newInprocStack()
	if err != nil {
		return 0, 0, err
	}
	defer st.close()
	e, err := setUp(ctx, st, wl, cfg.seed)
	if err != nil {
		return 0, 0, err
	}
	defer e.close()
	e.ref = cfg.ref
	p := e.runPass(ctx, cfg.micro.dur, false)
	if p.failures() > 0 || len(p.good) == 0 {
		return 0, 0, fmt.Errorf("%d of %d operations failed: %s", p.failures(), p.attempted(), p.why)
	}
	return runQuantile(p.good, runResult.wall, 0.5), len(p.good), nil
}

// The timings every figure is made from are quiet-host time; rawWall is
// what the clock read.
func (r runResult) wall() time.Duration      { return scaled(r.total, r.scale) }
func (r runResult) firstElem() time.Duration { return scaled(r.ttfe, r.scale) }
func (r runResult) rawWall() time.Duration   { return r.total }

// runQuantile is the nearest-rank q-quantile, in ms, of one duration of
// each run.
func runQuantile(rs []runResult, of func(runResult) time.Duration, q float64) float64 {
	ds := make([]time.Duration, len(rs))
	for i, r := range rs {
		ds[i] = of(r)
	}
	return ms(metrics.QuantileOf(ds, q))
}

func elemsPerSec(rs []runResult) float64 {
	var elems int
	var busy time.Duration
	for _, r := range rs {
		elems += r.elems
		busy += r.wall()
	}
	return float64(elems) / busy.Seconds()
}

// endToEndRows derives what a user of the system would see from the
// measured (untraced) pass.
func endToEndRows(r *report, p *pass, setups []time.Duration) {
	runs := len(p.good)
	n := float64(runs + p.failed)
	// timing adds a metric computed over the verified runs, with its
	// spread across five consecutive slices of the window.
	timing := func(metric string, f func([]runResult) float64) {
		x := r.add(metric, f(p.good), runs)
		const slices = 5
		if runs >= 4*slices {
			per := make([]float64, slices)
			for i := range per {
				per[i] = f(p.good[i*runs/slices : (i+1)*runs/slices])
			}
			x.SpreadPct = spreadPct(per)
		}
	}
	timing("elems_per_s", elemsPerSec)
	timing("run_ms_p50", func(rs []runResult) float64 { return runQuantile(rs, runResult.wall, 0.5) })
	timing("run_ms_p95", func(rs []runResult) float64 { return runQuantile(rs, runResult.wall, 0.95) })
	timing("ttfe_ms_p50", func(rs []runResult) float64 { return runQuantile(rs, runResult.firstElem, 0.5) })
	timing("ttfe_ms_p95", func(rs []runResult) float64 { return runQuantile(rs, runResult.firstElem, 0.95) })
	r.add("allocs_per_run", float64(p.delta.mallocs)/n, int(n))
	r.add("kb_alloc_per_run", float64(p.delta.allocBytes)/1024/n, int(n))
	r.add("read_rpcs_per_run", float64(p.delta.readCalls)/n, int(n))
	r.add("wire_kb_per_run", float64(p.delta.readBytes)/1024/n, int(n))
	r.add("write_ms_p50", ms(metrics.QuantileOf(p.writer.latency, 0.5)), len(p.writer.latency))
	r.add("write_ms_p95", ms(metrics.QuantileOf(p.writer.latency, 0.95)), len(p.writer.latency))
	r.add("fail_pct", 100*float64(p.failures())/float64(p.attempted()), p.attempted())
	r.add("setup_s", metrics.QuantileOf(setups, 0.5).Seconds(), len(setups))
}

// layerRows derives the per-layer ledger: counts and busy times from the
// traced pass's counter deltas, phase timings from its spans, and ratios
// from the measured pass, which has the most runs.
func layerRows(r *report, mp, tp *pass) {
	truns := float64(len(tp.good) + tp.failed)
	mruns := float64(len(mp.good) + mp.failed)
	var wall time.Duration
	for _, x := range tp.good {
		wall += x.total
	}
	d, tscale := tp.delta, refScale(tp.ref)
	r.add("store.ops_per_run", float64(d.storeOps)/truns, int(truns))
	r.add("store.busy_ms_per_run", ms(scaled(d.storeBusy, tscale))/truns, int(truns))
	r.add("store.busy_share_pct", 100*float64(d.storeBusy)/float64(wall), int(truns))
	r.add("tcprpc.calls_per_run", float64(d.calls)/truns, int(truns))
	r.add("tcprpc.getbatch_calls_per_run", float64(d.getBatchCalls)/truns, int(truns))
	r.add("tcprpc.bytes_sent_per_run", float64(d.bytesSent)/truns, int(truns))
	r.add("tcprpc.bytes_recv_per_run", float64(d.bytesRecv)/truns, int(truns))
	r.add("tcprpc.call_ms_per_run", ms(scaled(d.callTime, tscale))/truns, int(truns))
	r.add("tcprpc.call_share_pct", 100*float64(d.callTime)/float64(wall), int(truns))
	r.add("tcprpc.max_inflight", float64(d.maxInflight), 1)
	r.add("tcprpc.failures", float64(d.failures), int(d.calls))
	r.add("tcprpc.reconnects", float64(d.reconnects), 1)

	var inv, yielded, hits, validated, leased int64
	for _, x := range mp.good {
		inv += x.wk.Invocations
		yielded += x.wk.Yielded
		hits += x.wk.CacheHits
		validated += x.wk.CacheValidatedHits
		leased += x.wk.LeaseServed
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	r.add("repo.cache_hit_ratio", ratio(hits, yielded), int(yielded))
	r.add("repo.cache_validated_ratio", ratio(validated, yielded), int(yielded))
	r.add("repo.not_modified_ratio", ratio(mp.delta.notModified, mp.delta.batchedGets), int(mp.delta.batchedGets))
	r.add("repo.lease_served_ratio", ratio(leased, inv), int(inv))
	r.add("repo.lease_breaks_per_run", float64(mp.delta.lease.Invalidations+mp.delta.lease.Breaks)/mruns, int(mruns))
	r.add("core.invocations_per_run", float64(inv)/float64(len(mp.good)), len(mp.good))

	// Phase spans: five records per run, run first. The spans hold what
	// the clock read; the phase figures are quiet-host time like the rest.
	phases := map[string][]time.Duration{}
	gap := 0.0
	spans := tp.tr.spans
	for i := 0; i+4 < len(spans) && spans[i].Name == "run"; i += 5 {
		scale := refScaleAt(tp.ref, tp.tr.origin.Add(time.Duration(spans[i].Start)))
		var sum int64
		for _, s := range spans[i+1 : i+5] {
			phases[s.Name] = append(phases[s.Name], scaled(time.Duration(s.End-s.Start), scale))
			sum += s.End - s.Start
		}
		if total := spans[i].End - spans[i].Start; total > 0 {
			gap = max(gap, 100*float64(max(total-sum, sum-total))/float64(total))
		}
	}
	for _, name := range []string{"open", "first", "drain", "close"} {
		r.add("core."+name+"_ms_p50", ms(metrics.QuantileOf(phases[name], 0.5)), len(phases[name]))
	}
	nexts := tp.tr.nexts
	r.add("core.next_us_p50", us(scaled(metrics.QuantileOf(nexts, 0.5), tscale)), len(nexts))
	r.add("core.next_us_p99", us(scaled(metrics.QuantileOf(nexts, 0.99), tscale)), len(nexts))

	untraced := runQuantile(mp.good, runResult.wall, 0.5)
	r.add("bench.trace_overhead_pct", 100*(runQuantile(tp.good, runResult.wall, 0.5)/untraced-1), len(tp.good))
	r.add("bench.phase_gap_pct", gap, len(tp.good))
	r.add("bench.writer_late_ms_p95", ms(metrics.QuantileOf(mp.writer.late, 0.95)), len(mp.writer.late))
	// The yardstick over the measured pass: its median cost, the factor by
	// which the host was slower than nominal (wall = reported x factor),
	// and the median run as the clock read it.
	r.add("bench.host_ref_us", us(refNominal)/refScale(mp.ref), len(mp.ref))
	r.add("bench.host_factor", 1/refScale(mp.ref), len(mp.ref))
	r.add("bench.wall_run_ms_p50", runQuantile(mp.good, runResult.rawWall, 0.5), len(mp.good))
}
