package main

// The -scale sweep: listing-path scalability. It grows one collection
// from 10k to 1M+ members and times a full Elements run at each size,
// on a zero-latency logical-time cluster so the numbers are pure CPU
// cost of the listing, stepping and fetch machinery. Two modes.
// "partitioned" is the streaming ListParts path under Immutable
// semantics: the same streamed opening listing as Snapshot without the
// pin, whose server-side snapshot sort is O(n) by construction and
// would mask the listing path's scaling. Per-element cost should stay
// flat as the set grows, and time-to-first-element should track the
// first partition, not the set. "current" is a GrowOnly run up to 100k
// members — one conditional List per invocation, stepped by the
// version-keyed cursor — gated on per-element cost alone: its first
// element waits for the whole first listing by construction.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"weaksets/internal/core"
	"weaksets/internal/metrics"
	"weaksets/internal/netsim"
	"weaksets/internal/repo"
	"weaksets/internal/rpc"
	"weaksets/internal/sim"
	"weaksets/internal/store"
)

// scaleResult is one row of the -scale sweep: the best-of-rounds
// Elements run at one size.
type scaleResult struct {
	Mode          string        `json:"mode"` // a scaleModes name
	Elements      int           `json:"elements"`
	Partitions    int           `json:"partitions"`
	Yielded       int           `json:"yielded"`
	Setup         time.Duration `json:"setupNs"` // Elements(): open the run, first partition folded
	FirstElement  time.Duration `json:"firstElementNs"`
	Total         time.Duration `json:"totalNs"`
	PerElementNs  float64       `json:"perElementNs"`
	ListRPCs      int64         `json:"listRPCs"`
	ListPartsRPCs int64         `json:"listPartsRPCs"`
	BatchRPCs     int64         `json:"getBatchRPCs"`
}

// scaleReport is the BENCH_scale.json document. The ratio maps hold the
// sweep's acceptance figures, keyed by mode: PerElementRatio is
// per-element cost at the mode's largest size over its smallest (flat
// scaling ⇒ ~1.0), FirstElementRatio the same for time-to-first-element
// (partitioned only).
type scaleReport struct {
	Meta              benchMeta          `json:"meta"`
	GOMAXPROCS        int                `json:"gomaxprocs"`
	Engine            string             `json:"engine"`
	StorageNodes      int                `json:"storageNodes"`
	PayloadBytes      int                `json:"payloadBytes"`
	Rounds            int                `json:"rounds"`
	Sizes             []int              `json:"sizes"`
	SeedSeconds       map[string]float64 `json:"seedSeconds"`
	Results           []scaleResult      `json:"results"`
	PerElementRatio   map[string]float64 `json:"perElementRatio"`
	FirstElementRatio map[string]float64 `json:"firstElementRatio"`
}

// scaleModes are the sweep's rows per size. maxElements, when non-zero,
// caps the sizes a mode runs at.
var scaleModes = []struct {
	name         string
	sem          core.Semantics
	maxElements  int
	firstElement bool // gate time-to-first-element too
}{
	{name: "partitioned", sem: core.Immutable, firstElement: true},
	{name: "current", sem: core.GrowOnly, maxElements: 100_000},
}

const (
	scaleDir     = netsim.NodeID("dir")
	scaleColl    = "scale"
	scalePayload = 64
	scaleStorage = 4
)

// scalePartitions picks the listing partition count for an n-member
// collection: the engine default for small sets, then enough partitions
// to keep each streamed frame near 8k refs, so the first frame — and
// with it the first element — costs the same no matter how big the set
// behind it is.
func scalePartitions(n int) int {
	p := n / 8192
	if p < store.DefaultPartitions {
		return store.DefaultPartitions
	}
	return p
}

// scaleWorld is the zero-latency bench substrate: a directory node whose
// engine is built with the partition count under test, storage nodes
// holding the member objects, and direct engine handles so seeding a
// million members doesn't pay two million RPCs.
type scaleWorld struct {
	bus     *rpc.Bus
	client  *repo.Client
	servers []*repo.Server
}

func (w *scaleWorld) close() {
	for _, srv := range w.servers {
		srv.Close()
	}
}

// newScaleWorld builds the substrate and seeds an n-member collection:
// objects round-robin across the storage nodes, membership on the
// directory node.
func newScaleWorld(n, partitions int, seed int64) (*scaleWorld, error) {
	const home = netsim.NodeID("home")
	net := netsim.New(netsim.Config{
		Seed:           seed,
		DefaultLatency: sim.Fixed(0),
		Scale:          0, // logical time: wall clock measures CPU cost only
	})
	net.AddNode(home)
	net.AddNode(scaleDir)
	storage := net.AddNodes("s", scaleStorage)

	bus := rpc.NewBus(net)
	w := &scaleWorld{bus: bus, client: repo.NewClient(bus, home)}

	dirStore := store.NewSharded(store.Config{Partitions: partitions})
	dirSrv, err := repo.NewServerWithStore(bus, scaleDir, dirStore)
	if err != nil {
		return nil, err
	}
	w.servers = append(w.servers, dirSrv)

	stores := make([]store.Store, len(storage))
	for i, node := range storage {
		stores[i] = store.NewSharded(store.Config{})
		srv, err := repo.NewServerWithStore(bus, node, stores[i])
		if err != nil {
			w.close()
			return nil, err
		}
		w.servers = append(w.servers, srv)
	}

	if err := dirStore.CreateCollection(scaleColl); err != nil {
		w.close()
		return nil, err
	}
	for i := 0; i < n; i++ {
		obj := repo.Object{ID: repo.ObjectID(fmt.Sprintf("e%07d", i)), Data: make([]byte, scalePayload)}
		si := i % len(storage)
		if _, err := stores[si].PutObject(obj); err != nil {
			w.close()
			return nil, fmt.Errorf("seed object %s: %w", obj.ID, err)
		}
		if _, err := dirStore.Add(scaleColl, repo.Ref{ID: obj.ID, Node: storage[si]}); err != nil {
			w.close()
			return nil, fmt.Errorf("seed member %s: %w", obj.ID, err)
		}
	}
	return w, nil
}

// runScaleOnce times one full Elements run: time-to-first-element and
// total wall time, with the membership-read RPC mix from the bus.
func runScaleOnce(ctx context.Context, w *scaleWorld, sem core.Semantics) (scaleResult, error) {
	set, err := core.NewSet(w.client, scaleDir, scaleColl, core.Options{Semantics: sem})
	if err != nil {
		return scaleResult{}, err
	}
	lists0 := w.bus.MethodCalls(repo.MethodList)
	parts0 := w.bus.MethodCalls(repo.MethodListParts)
	batches0 := w.bus.MethodCalls(repo.MethodGetBatch)

	start := time.Now()
	it, err := set.Elements(ctx)
	if err != nil {
		return scaleResult{}, err
	}
	setup := time.Since(start)
	var first time.Duration
	yielded := 0
	for it.Next(ctx) {
		if yielded == 0 {
			first = time.Since(start)
		}
		yielded++
	}
	total := time.Since(start)
	if err := it.Err(); err != nil {
		_ = it.Close(context.Background())
		return scaleResult{}, err
	}
	if err := it.Close(ctx); err != nil {
		return scaleResult{}, err
	}

	res := scaleResult{
		Yielded:       yielded,
		Setup:         setup,
		FirstElement:  first,
		Total:         total,
		ListRPCs:      w.bus.MethodCalls(repo.MethodList) - lists0,
		ListPartsRPCs: w.bus.MethodCalls(repo.MethodListParts) - parts0,
		BatchRPCs:     w.bus.MethodCalls(repo.MethodGetBatch) - batches0,
	}
	if yielded > 0 {
		res.PerElementNs = float64(total.Nanoseconds()) / float64(yielded)
	}
	return res, nil
}

// runScaleSweep runs the -scale sweep and writes BENCH_scale.json.
func runScaleSweep(jsonPath string, quick bool, seed int64) error {
	sizes := []int{10_000, 100_000, 1_000_000}
	rounds := 3
	if quick {
		sizes = []int{10_000, 50_000}
		rounds = 1
	}

	meta := inprocMeta()
	meta.GOMAXPROCS = runtime.GOMAXPROCS(0)
	for _, n := range sizes {
		meta.Partitions = append(meta.Partitions, scalePartitions(n))
	}
	report := scaleReport{
		Meta:              meta,
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		StorageNodes:      scaleStorage,
		PayloadBytes:      scalePayload,
		Rounds:            rounds,
		Sizes:             sizes,
		SeedSeconds:       map[string]float64{},
		PerElementRatio:   map[string]float64{},
		FirstElementRatio: map[string]float64{},
	}
	table := metrics.NewTable(
		fmt.Sprintf("Listing scalability: full Elements run (partitioned: Immutable; current: GrowOnly), %d storage nodes, zero latency (best of %d)",
			scaleStorage, rounds),
		"mode", "elements", "parts", "setup", "first elem", "total", "ns/elem", "List", "ListParts", "GetBatch")

	ctx := context.Background()
	// base figures at the smallest size, for the ratio maps.
	basePerElem := map[string]float64{}
	baseFirst := map[string]time.Duration{}
	for _, n := range sizes {
		partitions := scalePartitions(n)
		seedStart := time.Now()
		w, err := newScaleWorld(n, partitions, seed)
		if err != nil {
			return fmt.Errorf("scale sweep: seed %d: %w", n, err)
		}
		report.SeedSeconds[fmt.Sprintf("%d", n)] = time.Since(seedStart).Seconds()
		if report.Engine == "" {
			es, err := w.client.StoreStats(ctx, scaleDir)
			if err != nil {
				w.close()
				return fmt.Errorf("scale sweep: %w", err)
			}
			report.Engine = es.Engine
		}

		for _, mode := range scaleModes {
			if mode.maxElements != 0 && n > mode.maxElements {
				continue
			}
			var best scaleResult
			for r := 0; r < rounds; r++ {
				res, err := runScaleOnce(ctx, w, mode.sem)
				if err != nil {
					w.close()
					return fmt.Errorf("scale sweep: %s %d: %w", mode.name, n, err)
				}
				if res.Yielded != n {
					w.close()
					return fmt.Errorf("scale sweep: %s %d yielded %d elements", mode.name, n, res.Yielded)
				}
				if r == 0 || res.Total < best.Total {
					best = res
				}
			}
			best.Mode = mode.name
			best.Elements = n
			best.Partitions = partitions
			report.Results = append(report.Results, best)

			// The last size a mode runs at overwrites its ratios.
			if n == sizes[0] {
				basePerElem[mode.name] = best.PerElementNs
				baseFirst[mode.name] = best.FirstElement
			} else {
				if base := basePerElem[mode.name]; base > 0 {
					report.PerElementRatio[mode.name] = best.PerElementNs / base
				}
				if base := baseFirst[mode.name]; base > 0 && mode.firstElement {
					report.FirstElementRatio[mode.name] = float64(best.FirstElement) / float64(base)
				}
			}
			table.AddRow(
				mode.name,
				fmt.Sprintf("%d", n),
				fmt.Sprintf("%d", partitions),
				metrics.FmtDur(best.Setup),
				metrics.FmtDur(best.FirstElement),
				best.Total.Round(time.Millisecond).String(),
				fmt.Sprintf("%.0f", best.PerElementNs),
				fmt.Sprintf("%d", best.ListRPCs),
				fmt.Sprintf("%d", best.ListPartsRPCs),
				fmt.Sprintf("%d", best.BatchRPCs),
			)
		}
		w.close()
	}
	table.Render(os.Stdout)
	for _, mode := range scaleModes {
		fmt.Printf("%s: per-element %.2fx, first-element %.2fx (largest size over %d elements; 0 = not gated)\n",
			mode.name, report.PerElementRatio[mode.name], report.FirstElementRatio[mode.name], sizes[0])
	}

	f, err := os.Create(jsonPath)
	if err != nil {
		return fmt.Errorf("scale sweep: %w", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return fmt.Errorf("scale sweep: encode: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("scale sweep: %w", err)
	}
	fmt.Printf("wrote %s (%d results)\n", jsonPath, len(report.Results))
	return nil
}
