// Package weaksets' root benchmark suite: one testing.B benchmark per
// experiment E1–E9 (see DESIGN.md §4 and EXPERIMENTS.md for the full
// tables; cmd/weakbench prints them), plus micro-benchmarks of the
// substrate hot paths. Experiment benchmarks run the trimmed (Quick)
// sweeps; use cmd/weakbench for the full grids.
package weaksets

import (
	"context"
	"fmt"
	"testing"
	"time"

	"weaksets/internal/cluster"
	"weaksets/internal/core"
	"weaksets/internal/experiments"
	"weaksets/internal/netsim"
	"weaksets/internal/repo"
	"weaksets/internal/rpc"
	"weaksets/internal/sim"
	"weaksets/internal/spec"
	"weaksets/internal/tcprpc"
)

func benchConfig(seed int64) experiments.Config {
	return experiments.Config{Seed: seed, Scale: 0.01, Quick: true}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	exp, ok := experiments.Find(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		table, err := exp.Run(benchConfig(int64(i)))
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(table.Rows()) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// BenchmarkE1FirstYield regenerates E1: time-to-first-element and
// completion per semantics (§1.1 claims).
func BenchmarkE1FirstYield(b *testing.B) { runExperiment(b, "E1") }

// BenchmarkE2Availability regenerates E2: completion and coverage under
// partitions (§3, §3.4 claims).
func BenchmarkE2Availability(b *testing.B) { runExperiment(b, "E2") }

// BenchmarkE3LockCost regenerates E3: writer stall under reader locks
// (§3.1 claim).
func BenchmarkE3LockCost(b *testing.B) { runExperiment(b, "E3") }

// BenchmarkE4Staleness regenerates E4: lost mutations and stale yields
// (§3.2, §3.4 claims).
func BenchmarkE4Staleness(b *testing.B) { runExperiment(b, "E4") }

// BenchmarkE5Prefetch regenerates E5: dynamic-set ls vs sequential stat
// (§1.1 claim).
func BenchmarkE5Prefetch(b *testing.B) { runExperiment(b, "E5") }

// BenchmarkE6Conformance regenerates E6: the implementation-vs-spec
// conformance matrix (§3 lattice).
func BenchmarkE6Conformance(b *testing.B) { runExperiment(b, "E6") }

// BenchmarkE7GrowRace regenerates E7: grow-only termination race (§3.3
// claim).
func BenchmarkE7GrowRace(b *testing.B) { runExperiment(b, "E7") }

// BenchmarkE8Ghosts regenerates E8: ghost-copy accounting (§3.3 claim).
func BenchmarkE8Ghosts(b *testing.B) { runExperiment(b, "E8") }

// BenchmarkE9ReplicatedDirectory regenerates E9: single vs replicated
// directory availability (the §3.3 replication remark).
func BenchmarkE9ReplicatedDirectory(b *testing.B) { runExperiment(b, "E9") }

// BenchmarkKernelStep measures the pure semantic kernel: one decision over
// a 64-element pre-state.
func BenchmarkKernelStep(b *testing.B) {
	members := make([]spec.ElemID, 64)
	for i := range members {
		members[i] = spec.ElemID(fmt.Sprintf("e%03d", i))
	}
	pre := spec.NewState(members, members)
	yielded := make(map[spec.ElemID]bool)
	for i := 0; i < 32; i++ {
		yielded[members[i]] = true
	}
	for _, sem := range core.AllSemantics() {
		sem := sem
		b.Run(sem.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d := core.Step(sem, pre, pre, yielded)
				if d.Kind != core.DecideYield {
					b.Fatalf("decision = %v", d.Kind)
				}
			}
		})
	}
}

// BenchmarkModelRun measures a full model-level iterator run checked
// against its own figure — the unit of work behind the conformance matrix.
func BenchmarkModelRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := spec.NewEnv(sim.NewRand(int64(i)), 8, spec.ConstraintTrue)
		run, _ := core.RunModel(core.Optimistic, env, core.ModelConfig{
			MaxSteps:        100,
			HealAfterBlocks: 3,
			FreezeAfter:     40,
		})
		if err := spec.CheckRun(spec.Fig6, run); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRPCRoundTrip measures one repository Get over the simulated
// network with the clock disabled (pure substrate overhead).
func BenchmarkRPCRoundTrip(b *testing.B) {
	c, err := cluster.New(cluster.Config{StorageNodes: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	ref, err := c.Client.Put(ctx, c.Storage[0], repo.Object{ID: "x", Data: make([]byte, 256)})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Client.Get(ctx, ref); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIteratorLogical measures a full optimistic iteration with the
// clock disabled, at 32, 1k and 10k members: the per-element protocol
// overhead (one gated ListParts per invocation plus the cursor step),
// reported as ns/elem, which must stay flat in n.
func BenchmarkIteratorLogical(b *testing.B) {
	for _, n := range []int{32, 1_000, 10_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			c, err := cluster.New(cluster.Config{StorageNodes: 4, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			ctx := context.Background()
			if err := c.Client.CreateCollection(ctx, cluster.DirNode, "bench"); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				ref, err := c.Client.Put(ctx, c.StorageFor(i), repo.Object{
					ID:   repo.ObjectID(fmt.Sprintf("e%05d", i)),
					Data: make([]byte, 128),
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := c.Client.Add(ctx, cluster.DirNode, "bench", ref); err != nil {
					b.Fatal(err)
				}
			}
			set, err := core.NewSet(c.Client, cluster.DirNode, "bench", core.Options{Semantics: core.Optimistic})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				elems, err := set.Collect(ctx)
				if err != nil {
					b.Fatal(err)
				}
				if len(elems) != n {
					b.Fatalf("yielded %d", len(elems))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/elem")
		})
	}
}

// BenchmarkDynSetLogical measures a 32-element dynamic-set drain with the
// clock disabled.
func BenchmarkDynSetLogical(b *testing.B) {
	c, err := cluster.New(cluster.Config{StorageNodes: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if err := c.Client.CreateCollection(ctx, cluster.DirNode, "bench"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		ref, err := c.Client.Put(ctx, c.StorageFor(i), repo.Object{
			ID:   repo.ObjectID(fmt.Sprintf("e%03d", i)),
			Data: make([]byte, 128),
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Client.Add(ctx, cluster.DirNode, "bench", ref); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := core.OpenDyn(ctx, c.Client, cluster.DirNode, "bench", core.DynOptions{Width: 8})
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for ds.Next(ctx) {
			n++
		}
		_ = ds.Close(ctx)
		if n != 32 {
			b.Fatalf("yielded %d", n)
		}
	}
}

// BenchmarkSpecCheck measures checking a 200-invocation run against Fig 6.
func BenchmarkSpecCheck(b *testing.B) {
	env := spec.NewEnv(sim.NewRand(1), 16, spec.ConstraintTrue)
	run, _ := core.RunModel(core.Optimistic, env, core.ModelConfig{
		MaxSteps:        200,
		HealAfterBlocks: 2,
		FreezeAfter:     100,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := spec.CheckRun(spec.Fig6, run); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLatencyScaling sanity-checks the scaled clock itself: a 10ms
// virtual sleep at 100x compression should cost ~100µs wall.
func BenchmarkLatencyScaling(b *testing.B) {
	scale := sim.TimeScale(0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scale.Sleep(10 * time.Millisecond)
	}
}

// startTCPArchive boots a separate-process-style repository server
// ("archive") reachable only over loopback TCP — the wire path behind
// the BenchmarkIterFetch tcp-mux mode. Each dispatched RPC pays lat of
// simulated service time (a disk/WAN stand-in; loopback alone has so
// little latency that transport pipelining would disappear into noise).
func startTCPArchive(b *testing.B, lat time.Duration) (*tcprpc.Server, func()) {
	b.Helper()
	net := netsim.New(netsim.Config{})
	net.AddNode("archive")
	bus := rpc.NewBus(net)
	repoSrv, err := repo.NewServer(bus, "archive")
	if err != nil {
		b.Fatal(err)
	}
	dispatch := rpc.NewServer("archive")
	for _, method := range tcprpc.RepoMethods() {
		method := method
		dispatch.Handle(method, func(_ context.Context, from netsim.NodeID, req any) (any, error) {
			if lat > 0 {
				time.Sleep(lat)
			}
			out, _, err := bus.Call(context.Background(), "archive", "archive", method, req)
			return out, err
		})
	}
	srv, err := tcprpc.Serve("127.0.0.1:0", dispatch)
	if err != nil {
		repoSrv.Close()
		b.Fatal(err)
	}
	return srv, func() {
		srv.Close()
		repoSrv.Close()
	}
}

// BenchmarkIterFetch compares the iterator's fetch pipeline at its
// defaults against the same pipeline at one id per round trip (Batch: 1,
// Inflight: 1 — the per-object baseline): a 64-element snapshot
// iteration. The per-object and batched modes spread members over 4
// in-process storage nodes; the tcp-mux mode hosts every member on a
// repository server reachable only over a real loopback socket, so the
// batched pipeline's concurrent GetBatches share the multiplexed stream.
// cmd/weakbench -sweep iter and -sweep rpc (which has the serialized
// arm) run the full sweeps and write BENCH_iter.json / BENCH_rpc.json.
func BenchmarkIterFetch(b *testing.B) {
	for _, mode := range []string{"per-object", "batched", "tcp-mux"} {
		overTCP := mode == "tcp-mux"
		b.Run(mode, func(b *testing.B) {
			ctx := context.Background()
			storageNodes := 4
			if overTCP {
				storageNodes = 1
			}
			c, err := cluster.New(cluster.Config{StorageNodes: storageNodes, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			objNode := func(i int) netsim.NodeID { return c.StorageFor(i) }
			if overTCP {
				srv, stopArchive := startTCPArchive(b, time.Millisecond)
				defer stopArchive()
				client := tcprpc.Dial(srv.Addr(), "gateway")
				c.Net.AddNode("archive")
				gw, err := tcprpc.NewGateway(c.Bus, "archive", client, tcprpc.RepoMethods())
				if err != nil {
					b.Fatal(err)
				}
				defer gw.Close()
				objNode = func(int) netsim.NodeID { return "archive" }
			}
			if err := c.Client.CreateCollection(ctx, cluster.DirNode, "bench"); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 64; i++ {
				ref, err := c.Client.Put(ctx, objNode(i), repo.Object{
					ID:   repo.ObjectID(fmt.Sprintf("e%03d", i)),
					Data: make([]byte, 128),
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := c.Client.Add(ctx, cluster.DirNode, "bench", ref); err != nil {
					b.Fatal(err)
				}
			}
			var fetch core.FetchOptions
			if mode == "per-object" {
				fetch = core.FetchOptions{Batch: 1, Inflight: 1}
			}
			if overTCP {
				// All 64 members live on one node; the default batch of 64
				// would ride in a single GetBatch and leave the transport
				// nothing to pipeline. 8-id batches give the prefetcher its
				// default 4 RPCs in flight for the multiplexed client to
				// overlap.
				fetch.Batch = 8
			}
			set, err := core.NewSet(c.Client, cluster.DirNode, "bench", core.Options{
				Semantics: core.Snapshot,
				Fetch:     fetch,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				elems, err := set.Collect(ctx)
				if err != nil {
					b.Fatal(err)
				}
				if len(elems) != 64 {
					b.Fatalf("yielded %d", len(elems))
				}
			}
		})
	}
}
