package main

// The iter sweep: the elements hot path. Elements/sec (in virtual time)
// for the fetch pipeline at its defaults against the same pipeline at
// one id per batch and one batch in flight (the per-object baseline),
// per semantics and set size, with members spread round-robin across
// four storage nodes 10 ms away. RPC counts come from the bus, so the
// round-trip savings are visible next to the throughput. A rerun row is a
// second batched run of the same set: what a set that has read its
// membership once pays to read it again.

import (
	"context"
	"fmt"
	"time"

	"weaksets/internal/cluster"
	"weaksets/internal/core"
	"weaksets/internal/repo"
	"weaksets/internal/sim"
)

const (
	iterStorage = 4
	iterLatency = 10 * time.Millisecond
	// Gentler compression than the experiments' 100x, so CPU stays
	// subdominant to the simulated WAN latency.
	iterScale = sim.TimeScale(0.1)
)

func iterSweep(b *bench) error {
	// The batched-over-baseline speedup grows with set size, so the
	// quick sweep keeps a size the full one also measures.
	sizes := []int{100, 1000}
	if b.quick {
		sizes = []int{100}
	}
	fetch := core.FetchOptions{}.WithDefaults()
	b.params["storage_nodes"] = iterStorage
	b.params["one_way_latency_ms"] = ms(iterLatency)
	b.params["time_scale"] = float64(iterScale)
	b.params["batch"] = float64(fetch.Batch)
	b.params["inflight"] = float64(fetch.Inflight)

	for _, size := range sizes {
		if err := iterSize(b, size); err != nil {
			return err
		}
	}
	return nil
}

// iterSize populates one size-element collection and runs every trial,
// semantics and mode over it.
func iterSize(b *bench, size int) error {
	ctx := context.Background()
	c, err := cluster.New(cluster.Config{
		StorageNodes: iterStorage,
		Seed:         b.seed,
		Scale:        iterScale,
		Latency:      sim.Fixed(iterLatency),
	})
	if err != nil {
		return err
	}
	defer c.Close()
	const coll = "iter"
	if err := c.Client.CreateCollection(ctx, cluster.DirNode, coll); err != nil {
		return err
	}
	for i := 0; i < size; i++ {
		obj := repo.Object{ID: repo.ObjectID(fmt.Sprintf("e%04d", i)), Data: make([]byte, 256)}
		ref, err := c.Client.Put(ctx, c.StorageFor(i), obj)
		if err == nil {
			err = c.Client.Add(ctx, cluster.DirNode, coll, ref)
		}
		if err != nil {
			return fmt.Errorf("populate: %w", err)
		}
	}

	for t := 0; t < b.trials; t++ {
		for _, sem := range []core.Semantics{core.Snapshot, core.GrowOnly} {
			var base float64
			for _, mode := range []string{"per-object", "batched"} {
				opts := core.Options{Semantics: sem}
				if mode == "per-object" {
					opts.Fetch = core.FetchOptions{Batch: 1, Inflight: 1}
				}
				set, err := core.NewSet(c.Client, cluster.DirNode, coll, opts)
				if err != nil {
					return err
				}
				// collect runs the set once as workload w, reporting its
				// virtual time and its membership reads.
				collect := func(w string) (time.Duration, error) {
					lists := c.Bus.MethodCalls(repo.MethodListParts)
					elapsed := iterScale.Stopwatch()
					elems, err := set.Collect(ctx)
					virtual := elapsed()
					if err != nil || len(elems) != size {
						return 0, fmt.Errorf("%s: yielded %d: %v", w, len(elems), err)
					}
					b.add(w, "virtual_ms", "ms", ms(virtual))
					b.add(w, "list_rpcs", "count", float64(c.Bus.MethodCalls(repo.MethodListParts)-lists))
					return virtual, nil
				}
				batches := c.Bus.MethodCalls(repo.MethodGetBatch)
				w := fmt.Sprintf("%s/%s/%d", mode, sem, size)
				virtual, err := collect(w)
				if err != nil {
					return err
				}
				perSec := float64(size) / virtual.Seconds()
				b.add(w, "elems_per_s", "1/s", perSec)
				b.add(w, "getbatch_rpcs", "count", float64(c.Bus.MethodCalls(repo.MethodGetBatch)-batches))
				if mode == "per-object" {
					base = perSec
					continue
				}
				b.add(w, "batched_speedup", "x", perSec/base)
				// A second run of the same set: a Snapshot one opens on the
				// pinned listing the first left it, reading no partition.
				if _, err := collect(fmt.Sprintf("rerun/%s/%d", sem, size)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
