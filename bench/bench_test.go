package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"weaksets/internal/core"
	"weaksets/internal/repo"
)

// smokeConfig runs a workload at 1/50 size for 0.3 s, with every
// microbenchmark cut to a few calls.
func smokeConfig(t *testing.T) config {
	ref, err := newHostRef()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ref.close)
	return config{
		seed: 7, seconds: 0.3, traced: true, div: 50,
		micro: micro{calls: 20, dur: 50 * time.Millisecond},
		ref:   ref,
	}
}

// benchmarkJSON is the contract file's shape, as far as the test reads it.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSmoke runs all four workloads end to end, traced pass and layer
// microbenchmarks included, and checks the properties the benchmark
// promises: nothing fails verification, every metric appears exactly
// once, the phase spans account for each run's wall time, and the
// bypass workloads really bypass.
func TestSmoke(t *testing.T) {
	contract := readBenchmarkJSON(t)
	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(contract.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if contract.Workloads[i].Name != wl.name {
			t.Errorf("BENCHMARK.json workload %d is %q, want %q", i, contract.Workloads[i].Name, wl.name)
		}
		t.Run(wl.name, func(t *testing.T) {
			res, err := benchWorkload(context.Background(), wl, smokeConfig(t))
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Fatalf("%d of %d operations failed: %s", res.failed, res.attempted, res.why)
			}
			if res.codec != "wirebin" {
				t.Errorf("negotiated codec %q, want wirebin", res.codec)
			}

			got := map[string]row{}
			for _, x := range res.report.rows {
				if _, dup := got[x.Metric]; dup {
					t.Errorf("%s emitted twice", x.Metric)
				}
				if math.IsNaN(x.Value) || math.IsInf(x.Value, 0) {
					t.Errorf("%s = %v", x.Metric, x.Value)
				}
				got[x.Metric] = x
			}
			for name := range defByName {
				if _, ok := got[name]; !ok {
					t.Errorf("%s not emitted", name)
				}
			}

			// Phase spans: contiguous, so they sum to the run's wall time.
			runs := 0
			for i, s := range res.spans {
				if s.Name != "run" {
					continue
				}
				runs++
				var sum int64
				for _, ph := range res.spans[i+1 : i+5] {
					if ph.Parent != i || ph.Run != s.Run {
						t.Fatalf("span %d (%s) not a child of run span %d", i, ph.Name, i)
					}
					sum += ph.End - ph.Start
				}
				if wall := s.End - s.Start; math.Abs(float64(sum-wall)) > 0.02*float64(wall) {
					t.Errorf("run %d: phases sum to %d ns, wall is %d ns", s.Run, sum, wall)
				}
			}
			if runs == 0 {
				t.Error("traced pass recorded no run span")
			}
			if got["bench.phase_gap_pct"].Value > 2 {
				t.Errorf("phase_gap_pct = %v, want <= 2", got["bench.phase_gap_pct"].Value)
			}

			switch wl.name {
			case "snap_cold_10k":
				if got["tcprpc.getbatch_calls_per_run"].Value == 0 {
					t.Error("cold snapshot runs made no GetBatch call: the fetch path is not being driven")
				}
			case "snap_warm_10k":
				if v := got["tcprpc.getbatch_calls_per_run"].Value; v != 0 {
					t.Errorf("warm snapshot runs made %v GetBatch calls per run, want 0", v)
				}
			case "cur_leased_1k":
				if v := got["read_rpcs_per_run"].Value; v != 0 {
					t.Errorf("lease-served runs made %v read RPCs per run, want 0.0", v)
				}
			case "cur_churn_500":
				if got["write_ms_p50"].Samples == 0 || got["write_ms_p50"].Value <= 0 {
					t.Errorf("churn writer recorded no write latency: %+v", got["write_ms_p50"])
				}
				if got["repo.lease_breaks_per_run"].Value == 0 {
					t.Error("churn writes pushed no invalidation to the reader's lease")
				}
			}

			// The two result lines the builder's driver reads carry exactly
			// the metrics BENCHMARK.json lists under each heading.
			checkContract := func(traced bool, want []string) {
				t.Helper()
				var line struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(res.contractLine(traced)), &line); err != nil {
					t.Fatal(err)
				}
				if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
					t.Errorf("result line reports correct=%v attempted=%d failed=%d", line.Correct, line.Attempted, line.Failed)
				}
				var have []string
				for name := range line.Metrics {
					have = append(have, name)
				}
				sort.Strings(have)
				sort.Strings(want)
				if strings.Join(have, " ") != strings.Join(want, " ") {
					t.Errorf("trace=%v result line has metrics\n%v\nBENCHMARK.json lists\n%v", traced, have, want)
				}
			}
			var e2e, layers []string
			for _, m := range contract.EndToEnd {
				e2e = append(e2e, m.Name)
				if d := defByName[m.Name]; d.unit != m.Unit || d.better != m.Better || d.boundPct != 100*m.Bound {
					t.Errorf("BENCHMARK.json %s = %+v, the benchmark defines %+v", m.Name, m, d)
				}
			}
			for _, m := range contract.PerLayer {
				layers = append(layers, m.Name)
				if d := defByName[m.Name]; d.unit != m.Unit || d.better != m.Better {
					t.Errorf("BENCHMARK.json %s = %+v, the benchmark defines %+v", m.Name, m, d)
				}
			}
			checkContract(false, e2e)
			checkContract(true, layers)
		})
	}
}

// TestVerifyCatchesCorruption hands the checker deliberately wrong
// yielded sets: a fast wrong answer must count as a failure.
func TestVerifyCatchesCorruption(t *testing.T) {
	ctx := context.Background()
	st, err := newInprocStack()
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	wl, _ := workloadByName("cur_churn_500")
	e, err := setUp(ctx, st, wl.scaled(10), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()

	good, err := e.set.Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ok, why := e.verify(good); !ok {
		t.Fatalf("honest set rejected: %s", why)
	}
	clone := func() []core.Element { return append([]core.Element(nil), good...) }

	// The writer has started adding its first id but no other.
	e.reserveWriterIDs(2)
	e.addsStarted.Store(1)
	added := func(k int) core.Element {
		id := e.writerSeq[k]
		return core.Element{Ref: repo.Ref{ID: id}, Data: payloadFor(e.seed, id)}
	}
	if ok, why := e.verify(append(clone(), added(0))); !ok {
		t.Errorf("a member the writer added was rejected: %s", why)
	}

	flipped := clone()
	flipped[1].Data = bytes.Clone(flipped[1].Data)
	flipped[1].Data[17] ^= 1
	bad := map[string][]core.Element{
		"missing member":   clone()[1:],
		"duplicate member": append(clone(), good[0]),
		"flipped payload":  flipped,
		"unknown id":       append(clone(), core.Element{Ref: repo.Ref{ID: "stranger"}}),
		"id never added":   append(clone(), added(1)),
		"duplicate add":    append(clone(), added(0), added(0)),
	}
	for name, elems := range bad {
		if ok, _ := e.verify(elems); ok {
			t.Errorf("%s passed verification", name)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{name: "run_ms_p50", better: "lower", boundPct: 10}
	higher := metricDef{name: "elems_per_s", better: "higher", boundPct: 10}
	zero := metricDef{name: "fail_pct", better: "lower", boundPct: 0}
	cases := []struct {
		name    string
		d       metricDef
		a, b    row
		verdict verdict
	}{
		{"within bound", lower, row{Value: 100}, row{Value: 109}, verdictOK},
		{"improved", lower, row{Value: 100}, row{Value: 50}, verdictOK},
		{"worse", lower, row{Value: 100}, row{Value: 111}, verdictWorse},
		{"worse but noisy", lower, row{Value: 100, SpreadPct: 12}, row{Value: 111}, verdictUnresolved},
		{"higher is better", higher, row{Value: 100}, row{Value: 89}, verdictWorse},
		{"higher improved", higher, row{Value: 100}, row{Value: 150}, verdictOK},
		{"zero stays zero", zero, row{}, row{}, verdictOK},
		{"zero to some", zero, row{}, row{Value: 0.5}, verdictWorse},
	}
	for _, c := range cases {
		if _, v := judge(c.d, c.a, c.b); v != c.verdict {
			t.Errorf("%s: %s, want %s", c.name, v, c.verdict)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, runMs float64) string {
		r := &report{workload: "snap_cold_10k"}
		r.add("run_ms_p50", runMs, 200)
		r.add("write_ms_p50", 0, 0) // not applicable: must be skipped
		r.add("store.put_us", runMs, 1000)
		path := filepath.Join(dir, name)
		if err := writeJSON(path, document{Rows: r.rows}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow := write("a.json", 36), write("b.json", 37), write("c.json", 50)

	var out bytes.Buffer
	worse, err := compareFiles(&out, base, same)
	if err != nil || worse {
		t.Fatalf("36 -> 37 ms: worse=%v err=%v\n%s", worse, err, &out)
	}
	if n := strings.Count(out.String(), "\n"); n != 1 {
		t.Errorf("compared %d rows, want only the bounded, applicable one:\n%s", n, &out)
	}
	out.Reset()
	if worse, err := compareFiles(&out, base, slow); err != nil || !worse {
		t.Fatalf("36 -> 50 ms: worse=%v err=%v\n%s", worse, err, &out)
	}
}

// TestSpreadPct pins the quartile method to Python's
// statistics.quantiles(values, n=4), which the builder's driver uses.
func TestSpreadPct(t *testing.T) {
	// quantiles([1..10], n=4) = [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got, want := spreadPct(xs), 100*(8.25-2.75)/5.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("spreadPct = %v, want %v", got, want)
	}
	// quantiles([10, 20, 30, 40, 50], n=4) = [15, 30, 45]
	if got, want := spreadPct([]float64{10, 20, 30, 40, 50}), 100.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("spreadPct = %v, want %v", got, want)
	}
}

// TestRefScaleAt checks that a timing is corrected by the yardstick
// samples around its own instant, not by the pass's overall median.
func TestRefScaleAt(t *testing.T) {
	t0 := time.Now()
	var samples []refSample
	for i := range 40 { // a quiet first half, then the host twice as slow
		cost := refNominal
		if i >= 20 {
			cost = 2 * refNominal
		}
		samples = append(samples, refSample{at: t0.Add(time.Duration(i) * refEvery), cost: cost})
	}
	for _, c := range []struct {
		at   time.Duration
		want float64
	}{
		{-time.Second, 1}, // before the first sample: the first few
		{5 * refEvery, 1},
		{35 * refEvery, 0.5},
		{time.Hour, 0.5}, // after the last one
	} {
		if got := refScaleAt(samples, t0.Add(c.at)); got != c.want {
			t.Errorf("scale at %v = %v, want %v", c.at, got, c.want)
		}
	}
	if got := refScaleAt(nil, t0); got != 1 {
		t.Errorf("scale without samples = %v, want 1", got)
	}
	if got := scaled(10*time.Millisecond, 0.5); got != 5*time.Millisecond {
		t.Errorf("scaled = %v", got)
	}
}
