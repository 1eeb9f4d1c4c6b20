// Command weakbench runs the weak-sets evaluation: every experiment E1–E8
// from DESIGN.md §4 (the evaluation the paper promises in §5), printing one
// table per experiment. With -store it instead sweeps the storage-engine
// contention benchmark (locked vs sharded across worker counts) and writes
// the machine-readable results to BENCH_store.json. With -iter it sweeps
// the iterator fetch pipeline (default batching vs one id per round trip)
// and writes BENCH_iter.json.
//
// With -rpc it sweeps the TCP transport (serialized vs multiplexed
// clients at increasing in-flight budgets and payload sizes, over real
// loopback sockets) and writes BENCH_rpc.json.
//
// With -scale it sweeps the listing path itself — a full Elements run
// over one collection grown from 10k to 1M members through the
// partitioned streaming ListParts, and a current-state (GrowOnly) run at
// 10k and 100k — and writes BENCH_scale.json.
//
// With -frontier it sweeps reader concurrency over a churning collection
// and writes the weakness-versus-throughput frontier — runs/sec against
// windowed latency and skew quantiles — to BENCH_frontier.json.
//
// With -replica it sweeps replica-parallel reads: the same churned
// collection replicated across 1/2/3 nodes with capped per-node handler
// slots, read throughput and time-to-first-element per level, a
// kill-one-replica phase showing reads completing from the survivors,
// and the replica staleness each level served — to BENCH_replica.json.
//
// Usage:
//
//	weakbench [-run E1,E5] [-quick] [-seed 42] [-timescale 0.01]
//	weakbench -store [-store-json BENCH_store.json]
//	weakbench -iter [-iter-json BENCH_iter.json]
//	weakbench -rpc [-rpc-json BENCH_rpc.json]
//	weakbench -scale [-scale-json BENCH_scale.json]
//	weakbench -frontier [-frontier-json BENCH_frontier.json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"weaksets/internal/cluster"
	"weaksets/internal/core"
	"weaksets/internal/experiments"
	"weaksets/internal/metrics"
	"weaksets/internal/netsim"
	"weaksets/internal/repo"
	"weaksets/internal/rpc"
	"weaksets/internal/sim"
	"weaksets/internal/store"
	"weaksets/internal/tcprpc"
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
		quick     = fs.Bool("quick", false, "trimmed sweeps")
		ablations = fs.Bool("ablations", false, "also run the design-choice ablations and extensions A1-A4")
		seed      = fs.Int64("seed", 42, "random seed")
		timeScale = fs.Float64("timescale", 0.01, "virtual-to-real time scale for experiments (0.01 = 100x compression)")
		csvOut    = fs.Bool("csv", false, "emit tables as CSV instead of aligned text")
		list      = fs.Bool("list", false, "list experiments and exit")
		storeRun  = fs.Bool("store", false, "run the storage-engine contention sweep instead of experiments")
		storeJSON = fs.String("store-json", "BENCH_store.json", "where -store writes its machine-readable results")
		storeQk   = fs.Bool("store-quick", false, "trim the -store sweep (fewer ops per worker)")
		iterRun   = fs.Bool("iter", false, "run the batched-iterator fetch sweep instead of experiments")
		iterJSON  = fs.String("iter-json", "BENCH_iter.json", "where -iter writes its machine-readable results")
		iterQk    = fs.Bool("iter-quick", false, "trim the -iter sweep (smaller sets)")
		iterScale = fs.Float64("iter-scale", 0.1, "time scale for -iter (gentler compression than -scale so CPU stays subdominant to the simulated WAN latency)")
		rpcRun    = fs.Bool("rpc", false, "run the TCP transport sweep (serial vs multiplexed) instead of experiments")
		rpcJSON   = fs.String("rpc-json", "BENCH_rpc.json", "where -rpc writes its machine-readable results")
		rpcQk     = fs.Bool("rpc-quick", false, "trim the -rpc sweep (smaller snapshot, fewer budgets)")
		rpcLat    = fs.Duration("rpc-latency", 2*time.Millisecond, "simulated per-RPC service time on the -rpc remote (disk/WAN stand-in)")
		scaleRun  = fs.Bool("scale", false, "run the listing scalability sweep (partitioned streaming listing 10k-1M elements, current-state run 10k-100k) instead of experiments")
		scaleJSON = fs.String("scale-json", "BENCH_scale.json", "where -scale writes its machine-readable results")
		scaleQk   = fs.Bool("scale-quick", false, "trim the -scale sweep (smaller sets, one round)")
		frontRun  = fs.Bool("frontier", false, "run the weakness-vs-throughput frontier sweep instead of experiments")
		frontJSON = fs.String("frontier-json", "BENCH_frontier.json", "where -frontier writes its machine-readable results")
		frontQk   = fs.Bool("frontier-quick", false, "trim the -frontier sweep (two load points)")
		replRun   = fs.Bool("replica", false, "run the replica-parallel read sweep (1/2/3 replicas under churn, plus a kill-one-replica phase) instead of experiments")
		replJSON  = fs.String("replica-json", "BENCH_replica.json", "where -replica writes its machine-readable results")
		replQk    = fs.Bool("replica-quick", false, "trim the -replica sweep (smaller set, fewer runs)")
		trendRun  = fs.Bool("trend", false, "run quick store+iter+rpc+scale smoke sweeps and gate their size-independent figures against the committed BENCH_*.json reports")
		trendTol  = fs.Float64("trend-tolerance", 0.5, "multiplicative tolerance for -trend ratio comparisons (0.5 = fail below half the committed speedup)")
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

	if *storeRun {
		return runStoreSweep(*storeJSON, *storeQk)
	}
	if *iterRun {
		return runIterSweep(*iterJSON, *iterQk, *seed, sim.TimeScale(*iterScale))
	}
	if *rpcRun {
		return runRPCSweep(*rpcJSON, *rpcQk, *rpcLat)
	}
	if *scaleRun {
		return runScaleSweep(*scaleJSON, *scaleQk, *seed)
	}
	if *frontRun {
		return runFrontierSweep(*frontJSON, *frontQk, *seed)
	}
	if *replRun {
		return runReplicaSweep(*replJSON, *replQk, *seed)
	}
	if *trendRun {
		return runTrend(trendPaths{
			store: *storeJSON, iter: *iterJSON, rpc: *rpcJSON, scale: *scaleJSON,
		}, *trendTol, *seed, *rpcLat, sim.TimeScale(*iterScale))
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

// storeReport is the BENCH_store.json document: one contention sweep over
// both engines at increasing worker counts.
type storeReport struct {
	Meta       benchMeta                `json:"meta"`
	GOMAXPROCS int                      `json:"gomaxprocs"`
	Config     store.ContentionConfig   `json:"config"`
	Results    []store.ContentionResult `json:"results"`
}

// runStoreSweep measures locked vs sharded throughput on the read-heavy
// List+Get mix at 1..GOMAXPROCS workers and writes the results to
// jsonPath. The sharded engine should scale with workers; the
// single-mutex baseline should flatten.
func runStoreSweep(jsonPath string, quick bool) error {
	base := store.ContentionConfig{
		Objects:      1024,
		Members:      256,
		OpsPerWorker: 100000,
		WriteEvery:   64,
	}
	if quick {
		base.OpsPerWorker = 20000
	}

	// Sweep past GOMAXPROCS so lock contention shows even on small
	// machines: oversubscribed workers still pile up on the global mutex.
	procs := runtime.GOMAXPROCS(0)
	maxWorkers := procs
	if maxWorkers < 8 {
		maxWorkers = 8
	}
	var workerCounts []int
	for w := 1; w < maxWorkers; w *= 2 {
		workerCounts = append(workerCounts, w)
	}
	workerCounts = append(workerCounts, maxWorkers)

	report := storeReport{Meta: inprocMeta(), GOMAXPROCS: procs, Config: base}
	table := metrics.NewTable(
		fmt.Sprintf("Store contention: List+Get mix, 1/%d writes (GOMAXPROCS=%d)", base.WriteEvery, procs),
		"engine", "workers", "ops/sec", "list p50", "list p99", "get p50", "get p99")
	for _, engine := range []string{"locked", "sharded"} {
		for _, workers := range workerCounts {
			cfg := base
			cfg.Engine = engine
			cfg.Workers = workers
			res, err := store.RunContention(cfg)
			if err != nil {
				return fmt.Errorf("store sweep %s/%d: %w", engine, workers, err)
			}
			report.Results = append(report.Results, res)
			perOp := map[string]store.OpStats{}
			for _, op := range res.PerOp {
				perOp[op.Op] = op
			}
			table.AddRow(
				engine,
				fmt.Sprintf("%d", workers),
				fmt.Sprintf("%.0f", res.OpsPerSec),
				fmtLat(perOp["list"].P50),
				fmtLat(perOp["list"].P99),
				fmtLat(perOp["get"].P50),
				fmtLat(perOp["get"].P99),
			)
		}
	}
	table.Render(os.Stdout)

	f, err := os.Create(jsonPath)
	if err != nil {
		return fmt.Errorf("store sweep: %w", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return fmt.Errorf("store sweep: encode: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store sweep: %w", err)
	}
	fmt.Printf("wrote %s (%d results)\n", jsonPath, len(report.Results))
	return nil
}

// fmtLat renders an engine-op latency; these are sub-millisecond, so use
// microseconds rather than the table default.
func fmtLat(d time.Duration) string {
	return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
}

// benchMeta is the metadata block stamped into every BENCH_*.json
// document: the toolchain and wire configuration the numbers were
// produced under, so reports from different builds or codec settings
// are never compared blind. Sweeps that run entirely over the
// in-process simulated bus carry codec "inproc" — nothing on their hot
// path is serialized.
type benchMeta struct {
	GoVersion   string `json:"goVersion"`
	Codec       string `json:"codec"`
	Compression string `json:"compression"` // "off": no sweep compresses frames
	// GOMAXPROCS and Partitions identify the machine shape and listing
	// partition configuration a sweep ran under; sweeps they don't apply
	// to leave them zero and they stay out of the JSON.
	GOMAXPROCS int   `json:"gomaxprocs,omitempty"`
	Partitions []int `json:"partitions,omitempty"`
}

func newBenchMeta(codec string) benchMeta {
	return benchMeta{GoVersion: runtime.Version(), Codec: codec, Compression: "off"}
}

// inprocMeta is the metadata for sweeps with no wire in the hot path.
func inprocMeta() benchMeta { return newBenchMeta("inproc") }

// rpcResult is one row of the -rpc sweep: one full snapshot fetch over
// real TCP with a fixed transport mode, in-flight budget, and payload.
type rpcResult struct {
	Mode        string        `json:"mode"` // "serial" or "multiplexed"
	Budget      int           `json:"budget"`
	Payload     int           `json:"payloadBytes"`
	Elements    int           `json:"elements"`
	Batches     int64         `json:"batchRPCs"`
	Elapsed     time.Duration `json:"elapsedNs"`
	ElemsPerSec float64       `json:"elemsPerSec"`
	CallsPerSec float64       `json:"callsPerSec"`
	MeanRTT     time.Duration `json:"meanRttNs"`
	P99RTT      time.Duration `json:"p99RttNs"`
	MaxInFlight int64         `json:"maxInFlight"`
}

// rpcReport is the BENCH_rpc.json document. Speedup maps
// "payload=N/budget=B" to multiplexed-over-serial elements/sec.
type rpcReport struct {
	Meta             benchMeta          `json:"meta"`
	GOMAXPROCS       int                `json:"gomaxprocs"`
	Elements         int                `json:"elements"`
	Batch            int                `json:"batch"`
	ServiceLatencyMs float64            `json:"serviceLatencyMs"`
	Payloads         []int              `json:"payloads"`
	Budgets          []int              `json:"budgets"`
	Results          []rpcResult        `json:"results"`
	Speedup          map[string]float64 `json:"speedup"`
}

// startRPCRemote boots the sweep's "remote process": its own network,
// bus, and repository server, reachable only over loopback TCP. Every
// dispatched RPC first pays lat of simulated service time (the stand-in
// for disk or WAN work a real archive would do), which is exactly the
// latency a serialized transport eats once per round trip and a
// multiplexed transport overlaps.
func startRPCRemote(lat time.Duration, workers int) (*tcprpc.Server, func(), error) {
	const node = netsim.NodeID("archive")
	net := netsim.New(netsim.Config{})
	net.AddNode(node)
	bus := rpc.NewBus(net)
	repoSrv, err := repo.NewServer(bus, node)
	if err != nil {
		return nil, nil, err
	}
	dispatch := rpc.NewServer(node)
	for _, method := range tcprpc.RepoMethods() {
		method := method
		dispatch.Handle(method, func(ctx context.Context, from netsim.NodeID, req any) (any, error) {
			if lat > 0 {
				time.Sleep(lat)
			}
			out, _, err := bus.Call(ctx, node, node, method, req)
			return out, err
		})
	}
	srv, err := tcprpc.ServeConfig("127.0.0.1:0", dispatch, tcprpc.ServerConfig{Workers: workers})
	if err != nil {
		repoSrv.Close()
		return nil, nil, err
	}
	cleanup := func() {
		srv.Close()
		repoSrv.Close()
	}
	return srv, cleanup, nil
}

// runRPCSweep measures the transport itself on the snapshot fetch
// workload: the full membership of an n-element collection is fetched
// through GetBatch RPCs over one TCP connection, by `budget` workers
// sharing one client. The serial mode pins the client's in-flight
// budget to 1 — the one-RPC-per-round-trip transport the repo used to
// have — so the sweep isolates what multiplexing buys at each
// concurrency level and payload size.
func runRPCSweep(jsonPath string, quick bool, serviceLat time.Duration) error {
	elements, batch := 1000, 16
	payloads := []int{256, 4096}
	budgets := []int{1, 2, 4, 8, 16}
	if quick {
		elements = 200
		payloads = []int{256}
		budgets = []int{1, 8}
	}
	maxBudget := budgets[len(budgets)-1]

	report := rpcReport{
		Meta:             newBenchMeta(tcprpc.CodecWirebin),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		Elements:         elements,
		Batch:            batch,
		ServiceLatencyMs: float64(serviceLat) / float64(time.Millisecond),
		Payloads:         payloads,
		Budgets:          budgets,
		Speedup:          map[string]float64{},
	}
	table := metrics.NewTable(
		fmt.Sprintf("TCP transport: %d-element snapshot fetch, batch=%d, %.1fms service time per RPC",
			elements, batch, report.ServiceLatencyMs),
		"payload", "budget", "mode", "elapsed", "elems/sec", "rpc/sec", "rtt p99", "speedup")

	ctx := context.Background()
	for _, payload := range payloads {
		srv, stop, err := startRPCRemote(serviceLat, maxBudget)
		if err != nil {
			return fmt.Errorf("rpc sweep: %w", err)
		}

		if err := seedSnapshot(ctx, srv.Addr(), elements, payload); err != nil {
			stop()
			return fmt.Errorf("rpc sweep: %w", err)
		}

		for _, budget := range budgets {
			base := 0.0
			for _, mode := range []string{"serial", "multiplexed"} {
				res, err := runRPCFetch(ctx, srv.Addr(), mode, budget, batch, elements)
				if err != nil {
					stop()
					return fmt.Errorf("rpc sweep: %s/budget=%d: %w", mode, budget, err)
				}
				res.Payload = payload
				report.Results = append(report.Results, res)

				speedup := "-"
				if mode == "serial" {
					base = res.ElemsPerSec
				} else if base > 0 {
					ratio := res.ElemsPerSec / base
					report.Speedup[fmt.Sprintf("payload=%d/budget=%d", payload, budget)] = ratio
					speedup = fmt.Sprintf("%.1fx", ratio)
				}
				table.AddRow(
					fmt.Sprintf("%dB", payload),
					fmt.Sprintf("%d", budget),
					mode,
					res.Elapsed.Round(time.Millisecond).String(),
					fmt.Sprintf("%.0f", res.ElemsPerSec),
					fmt.Sprintf("%.0f", res.CallsPerSec),
					metrics.FmtDur(res.P99RTT),
					speedup,
				)
			}
		}
		stop()
	}
	table.Render(os.Stdout)

	f, err := os.Create(jsonPath)
	if err != nil {
		return fmt.Errorf("rpc sweep: %w", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return fmt.Errorf("rpc sweep: encode: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("rpc sweep: %w", err)
	}
	fmt.Printf("wrote %s (%d results)\n", jsonPath, len(report.Results))
	return nil
}

// seedSnapshot populates the "snap" collection on the remote at addr
// with `elements` objects of `payload` bytes each.
func seedSnapshot(ctx context.Context, addr string, elements, payload int) error {
	seed := tcprpc.Dial(addr, "seeder")
	defer seed.Close()
	if _, err := seed.Call(ctx, repo.MethodCreate, repo.CreateReq{Name: "snap"}); err != nil {
		return err
	}
	for i := 0; i < elements; i++ {
		obj := repo.Object{ID: repo.ObjectID(fmt.Sprintf("e%04d", i)), Data: make([]byte, payload)}
		if _, err := seed.Call(ctx, repo.MethodPut, repo.PutReq{Obj: obj}); err != nil {
			return fmt.Errorf("populate: %w", err)
		}
		if _, err := seed.Call(ctx, repo.MethodAdd, repo.AddReq{Name: "snap", Ref: repo.Ref{ID: obj.ID, Node: "archive"}}); err != nil {
			return fmt.Errorf("populate: %w", err)
		}
	}
	return nil
}

// drainSnapshot performs one timed snapshot fetch over client: list the
// membership, split it into GetBatch calls of `batch` ids, and drain
// them with `budget` workers sharing the one client.
func drainSnapshot(ctx context.Context, client *tcprpc.Client, budget, batch, elements int) (time.Duration, error) {
	out, err := client.Call(ctx, repo.MethodList, repo.ListReq{Name: "snap"})
	if err != nil {
		return 0, err
	}
	members := out.(repo.ListResp).Members
	if len(members) != elements {
		return 0, fmt.Errorf("snapshot lists %d members, want %d", len(members), elements)
	}
	batches := make(chan []repo.ObjectID, (len(members)+batch-1)/batch)
	for lo := 0; lo < len(members); lo += batch {
		hi := lo + batch
		if hi > len(members) {
			hi = len(members)
		}
		ids := make([]repo.ObjectID, 0, hi-lo)
		for _, ref := range members[lo:hi] {
			ids = append(ids, ref.ID)
		}
		batches <- ids
	}
	close(batches)

	var (
		wg      sync.WaitGroup
		fetched atomic.Int64
		firstMu sync.Mutex
		callErr error
	)
	start := time.Now()
	for w := 0; w < budget; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ids := range batches {
				out, err := client.Call(ctx, repo.MethodGetBatch, repo.GetBatchReq{IDs: ids})
				if err != nil {
					firstMu.Lock()
					if callErr == nil {
						callErr = err
					}
					firstMu.Unlock()
					return
				}
				fetched.Add(int64(len(out.(repo.GetBatchResp).Objects)))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if callErr != nil {
		return 0, callErr
	}
	if got := fetched.Load(); got != int64(elements) {
		return 0, fmt.Errorf("fetched %d elements, want %d", got, elements)
	}
	return elapsed, nil
}

// runRPCFetch runs drainSnapshot on a fresh client. In serial mode the
// client's in-flight budget is pinned to 1 so the wire carries one RPC
// at a time no matter how many workers queue behind it.
func runRPCFetch(ctx context.Context, addr, mode string, budget, batch, elements int) (rpcResult, error) {
	client := tcprpc.Dial(addr, fmt.Sprintf("bench-%s-%d", mode, budget))
	if mode == "serial" {
		client.MaxInflight = 1
	}
	defer client.Close()

	elapsed, err := drainSnapshot(ctx, client, budget, batch, elements)
	if err != nil {
		return rpcResult{}, err
	}

	st := client.Stats()
	res := rpcResult{
		Mode:        mode,
		Budget:      budget,
		Elements:    elements,
		Elapsed:     elapsed,
		MaxInFlight: st.MaxInFlight,
	}
	for _, m := range st.Methods {
		if m.Method == repo.MethodGetBatch {
			res.Batches = m.Count
			res.MeanRTT = m.Mean
			res.P99RTT = m.P99
		}
	}
	if s := elapsed.Seconds(); s > 0 {
		res.ElemsPerSec = float64(elements) / s
		res.CallsPerSec = float64(res.Batches) / s
	}
	return res, nil
}

// iterResult is one row of the -iter sweep: one iterator run over a
// populated collection with a fixed fetch configuration.
type iterResult struct {
	Semantics   string        `json:"semantics"`
	Elements    int           `json:"elements"`
	Mode        string        `json:"mode"` // "batched" or "per-object" (Batch: 1, Inflight: 1)
	Yielded     int           `json:"yielded"`
	Virtual     time.Duration `json:"virtualNs"`
	ElemsPerSec float64       `json:"elemsPerSec"` // per virtual second
	GetRPCs     int64         `json:"getRPCs"`
	BatchRPCs   int64         `json:"getBatchRPCs"`
	ListRPCs    int64         `json:"listRPCs"`
}

// iterReport is the BENCH_iter.json document. Speedup maps
// "semantics/elements" to batched-over-baseline elements/sec.
type iterReport struct {
	Meta         benchMeta          `json:"meta"`
	GOMAXPROCS   int                `json:"gomaxprocs"`
	Engine       string             `json:"engine"`
	StorageNodes int                `json:"storageNodes"`
	Seed         int64              `json:"seed"`
	Scale        float64            `json:"scale"`
	LatencyMs    float64            `json:"oneWayLatencyMs"`
	Batch        int                `json:"batch"`
	Inflight     int                `json:"inflight"`
	Results      []iterResult       `json:"results"`
	Speedup      map[string]float64 `json:"speedup"`
}

// runIterSweep measures the elements hot path: elements/sec (in virtual
// time) for the fetch pipeline at its defaults against the same pipeline
// at one id per batch and one batch in flight (the per-object baseline),
// per semantics and set size, with members spread round-robin across the
// storage nodes. RPC counts come from the
// bus, so the round-trip savings are visible next to the throughput.
func runIterSweep(jsonPath string, quick bool, seed int64, scale sim.TimeScale) error {
	sizes := []int{100, 1000}
	if quick {
		sizes = []int{64}
	}
	const (
		storageNodes = 4
		latency      = 10 * time.Millisecond
	)
	fetch := core.FetchOptions{}.WithDefaults()
	if scale == 0 {
		scale = sim.DefaultScale
	}

	report := iterReport{
		Meta:         inprocMeta(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		StorageNodes: storageNodes,
		Seed:         seed,
		Scale:        float64(scale),
		LatencyMs:    float64(latency) / float64(time.Millisecond),
		Batch:        fetch.Batch,
		Inflight:     fetch.Inflight,
		Speedup:      map[string]float64{},
	}
	table := metrics.NewTable(
		fmt.Sprintf("Iterator fetch pipeline: batch=%d inflight=%d, %d storage nodes, %v one-way",
			fetch.Batch, fetch.Inflight, storageNodes, latency),
		"semantics", "elements", "mode", "virtual time", "elems/sec", "Get", "GetBatch", "speedup")

	ctx := context.Background()
	for _, size := range sizes {
		c, err := cluster.New(cluster.Config{
			StorageNodes: storageNodes,
			Seed:         seed,
			Scale:        scale,
			Latency:      sim.Fixed(latency),
		})
		if err != nil {
			return fmt.Errorf("iter sweep: %w", err)
		}
		coll := fmt.Sprintf("iter%d", size)
		if err := c.Client.CreateCollection(ctx, cluster.DirNode, coll); err != nil {
			c.Close()
			return fmt.Errorf("iter sweep: %w", err)
		}
		for i := 0; i < size; i++ {
			obj := repo.Object{ID: repo.ObjectID(fmt.Sprintf("e%04d", i)), Data: make([]byte, 256)}
			ref, err := c.Client.Put(ctx, c.StorageFor(i), obj)
			if err == nil {
				err = c.Client.Add(ctx, cluster.DirNode, coll, ref)
			}
			if err != nil {
				c.Close()
				return fmt.Errorf("iter sweep: populate: %w", err)
			}
		}
		if report.Engine == "" {
			es, err := c.Client.StoreStats(ctx, cluster.DirNode)
			if err != nil {
				c.Close()
				return fmt.Errorf("iter sweep: %w", err)
			}
			report.Engine = es.Engine
		}

		for _, sem := range []core.Semantics{core.Snapshot, core.GrowOnly} {
			base := 0.0
			for _, mode := range []string{"per-object", "batched"} {
				opts := core.Options{Semantics: sem}
				if mode == "per-object" {
					opts.Fetch = core.FetchOptions{Batch: 1, Inflight: 1}
				}
				set, err := core.NewSet(c.Client, cluster.DirNode, coll, opts)
				if err != nil {
					c.Close()
					return fmt.Errorf("iter sweep: %w", err)
				}
				gets := c.Bus.MethodCalls(repo.MethodGet)
				batches := c.Bus.MethodCalls(repo.MethodGetBatch)
				lists := c.Bus.MethodCalls(repo.MethodList)
				elapsed := scale.Stopwatch()
				elems, err := set.Collect(ctx)
				virtual := elapsed()
				if err != nil {
					c.Close()
					return fmt.Errorf("iter sweep: %s/%s/%d: %w", sem, mode, size, err)
				}
				res := iterResult{
					Semantics: sem.String(),
					Elements:  size,
					Mode:      mode,
					Yielded:   len(elems),
					Virtual:   virtual,
					GetRPCs:   c.Bus.MethodCalls(repo.MethodGet) - gets,
					BatchRPCs: c.Bus.MethodCalls(repo.MethodGetBatch) - batches,
					ListRPCs:  c.Bus.MethodCalls(repo.MethodList) - lists,
				}
				if virtual > 0 {
					res.ElemsPerSec = float64(res.Yielded) / virtual.Seconds()
				}
				report.Results = append(report.Results, res)

				speedup := "-"
				if mode == "per-object" {
					base = res.ElemsPerSec
				} else if base > 0 {
					ratio := res.ElemsPerSec / base
					report.Speedup[fmt.Sprintf("%s/%d", sem, size)] = ratio
					speedup = fmt.Sprintf("%.1fx", ratio)
				}
				table.AddRow(
					sem.String(),
					fmt.Sprintf("%d", size),
					mode,
					virtual.Round(time.Millisecond).String(),
					fmt.Sprintf("%.0f", res.ElemsPerSec),
					fmt.Sprintf("%d", res.GetRPCs),
					fmt.Sprintf("%d", res.BatchRPCs),
					speedup,
				)
			}
		}
		c.Close()
	}
	table.Render(os.Stdout)

	f, err := os.Create(jsonPath)
	if err != nil {
		return fmt.Errorf("iter sweep: %w", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return fmt.Errorf("iter sweep: encode: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("iter sweep: %w", err)
	}
	fmt.Printf("wrote %s (%d results)\n", jsonPath, len(report.Results))
	return nil
}
