package main

// The scale sweep: listing-path scalability. It grows one collection
// from 10k to 1M members and times a full Elements run at each size,
// on a zero-latency logical-time cluster so the numbers are pure CPU
// cost of the listing, stepping and fetch machinery. Two modes.
// "partitioned" is the streaming ListParts path under Immutable
// semantics: the same streamed opening listing as Snapshot without the
// pin, whose server-side snapshot sort is O(n) by construction and
// would mask the listing path's scaling. Per-element cost should stay
// flat as the set grows, and time-to-first-element should track the
// first partition, not the set. "current" is a GrowOnly run up to 100k
// members — one gated ListParts per invocation, stepped by the
// version-keyed cursor — gated on per-element cost alone: its first
// element waits for the whole first listing by construction. "one_down"
// is a dynamic run (core.OpenDyn) up to 100k members with one of the
// four storage nodes isolated: it yields the three quarters it reaches,
// and its per-element cost is also reported against "partitioned"'s.

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"weaksets/internal/core"
	"weaksets/internal/netsim"
	"weaksets/internal/repo"
	"weaksets/internal/rpc"
	"weaksets/internal/sim"
	"weaksets/internal/store"
)

// scaleModes are the sweep's rows per size. maxElements, when non-zero,
// caps the sizes a mode runs at.
var scaleModes = []struct {
	name         string
	sem          core.Semantics
	maxElements  int
	firstElement bool // gate time-to-first-element too
	oneDown      bool // a dynamic run with scaleStorage's second node isolated
}{
	{name: "partitioned", sem: core.Immutable, firstElement: true},
	{name: "current", sem: core.GrowOnly, maxElements: 100_000},
	{name: "one_down", maxElements: 100_000, oneDown: true},
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
	cut     netsim.NodeID // the storage node one_down isolates
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
	w := &scaleWorld{bus: bus, client: repo.NewClient(bus, home), cut: storage[1]}

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

// scaleRun is one timed Elements run with the membership-read RPC mix
// it cost, read off the bus.
type scaleRun struct {
	yielded                int
	setup, first, total    time.Duration // Elements() returned; first element; drained
	listPartsRPCs, batches int64
}

func (r scaleRun) perElemNs() float64 { return float64(r.total.Nanoseconds()) / float64(r.yielded) }

// runScaleOnce times one full run of sem, or a dynamic one when dyn.
func runScaleOnce(ctx context.Context, w *scaleWorld, sem core.Semantics, dyn bool) (scaleRun, error) {
	open := func(ctx context.Context) (*core.Iterator, error) {
		return core.OpenDyn(ctx, w.client, scaleDir, scaleColl, core.DynOptions{})
	}
	if !dyn {
		set, err := core.NewSet(w.client, scaleDir, scaleColl, core.Options{Semantics: sem})
		if err != nil {
			return scaleRun{}, err
		}
		open = set.Elements
	}
	parts0 := w.bus.MethodCalls(repo.MethodListParts)
	batches0 := w.bus.MethodCalls(repo.MethodGetBatch)

	var res scaleRun
	start := time.Now()
	it, err := open(ctx)
	if err != nil {
		return scaleRun{}, err
	}
	res.setup = time.Since(start)
	for it.Next(ctx) {
		if res.yielded == 0 {
			res.first = time.Since(start)
		}
		res.yielded++
	}
	res.total = time.Since(start)
	if err := it.Err(); err != nil {
		_ = it.Close(context.Background())
		return scaleRun{}, err
	}
	if err := it.Close(ctx); err != nil {
		return scaleRun{}, err
	}
	res.listPartsRPCs = w.bus.MethodCalls(repo.MethodListParts) - parts0
	res.batches = w.bus.MethodCalls(repo.MethodGetBatch) - batches0
	return res, nil
}

// scaleSweep times every mode at every size, one world per size and one
// run per trial. The degradation rows divide each trial's figure by the
// mode's median at the smallest size (flat scaling is 1.0), so the gate
// compares a size against the committed report's same size and never a
// 50k point against a 1M one.
func scaleSweep(b *bench) error {
	sizes := []int{10_000, 50_000, 100_000, 1_000_000}
	if b.quick {
		sizes = sizes[:2]
	}
	b.params["storage_nodes"] = scaleStorage
	b.params["payload_bytes"] = scalePayload

	ctx := context.Background()
	// Per mode, the trials at the smallest size: per-element ns and ms to
	// the first element.
	basePerElem, baseFirst := map[string][]float64{}, map[string][]float64{}
	for _, n := range sizes {
		var partitionedPerElem []float64 // this size's, for one_down
		partitions := scalePartitions(n)
		seedStart := time.Now()
		w, err := newScaleWorld(n, partitions, b.seed)
		if err != nil {
			return fmt.Errorf("seed %d: %w", n, err)
		}
		seedTime := time.Since(seedStart)
		for _, mode := range scaleModes {
			if mode.maxElements != 0 && n > mode.maxElements {
				continue
			}
			wl := fmt.Sprintf("%s/%d", mode.name, n)
			want := n
			if mode.oneDown {
				want = n - n/scaleStorage // members are dealt round-robin
				w.bus.Network().Isolate(w.cut)
			}
			b.add(wl, "partitions", "count", float64(partitions))
			b.add(wl, "seed_s", "s", seedTime.Seconds())
			// One discarded run warms the world (first-touch faults, lazily
			// built listing snapshots), and a collection before each timed
			// one keeps the previous run's garbage — tens of MB at 1M — from
			// being swept inside this one's interval.
			for t := -1; t < b.trials; t++ {
				runtime.GC()
				res, err := runScaleOnce(ctx, w, mode.sem, mode.oneDown)
				if err != nil || res.yielded != want {
					w.close()
					return fmt.Errorf("%s: yielded %d of %d: %v", wl, res.yielded, want, err)
				}
				if t < 0 {
					continue
				}
				b.add(wl, "setup_ms", "ms", ms(res.setup))
				b.add(wl, "first_elem_ms", "ms", ms(res.first))
				b.add(wl, "total_ms", "ms", ms(res.total))
				b.add(wl, "per_elem_ns", "ns", res.perElemNs())
				b.add(wl, "listparts_rpcs", "count", float64(res.listPartsRPCs))
				b.add(wl, "getbatch_rpcs", "count", float64(res.batches))
				if mode.name == "partitioned" {
					partitionedPerElem = append(partitionedPerElem, res.perElemNs())
				} else if mode.oneDown {
					small, _ := medianSpread(partitionedPerElem)
					b.add(wl, "per_elem_vs_partitioned", "x", res.perElemNs()/small)
				}
				if n == sizes[0] {
					basePerElem[mode.name] = append(basePerElem[mode.name], res.perElemNs())
					baseFirst[mode.name] = append(baseFirst[mode.name], ms(res.first))
					continue
				}
				small, _ := medianSpread(basePerElem[mode.name])
				b.add(wl, "per_elem_vs_10k", "x", res.perElemNs()/small)
				if mode.firstElement {
					small, _ := medianSpread(baseFirst[mode.name])
					b.add(wl, "first_elem_vs_10k", "x", ms(res.first)/small)
				}
			}
			if mode.oneDown {
				w.bus.Network().Rejoin(w.cut)
			}
		}
		w.close()
	}
	return nil
}
