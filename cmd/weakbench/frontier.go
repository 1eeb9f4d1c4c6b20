package main

// The frontier sweep: the weakness-versus-throughput frontier the paper's
// position implies. Weak semantics exist to buy throughput; this sweep
// prices the trade instead of asserting it. At each load level N readers
// hammer one collection with optimistic Collects while a writer churns the
// membership, and the rolling weakness windows record what the clients
// actually observed — run latency quantiles, listing skew, duplicates
// suppressed. Each level becomes one (throughput, weakness-quantile) workload
// of BENCH_frontier.json; plotted together they are the frontier.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"weaksets/internal/cluster"
	"weaksets/internal/core"
	"weaksets/internal/obs"
	"weaksets/internal/repo"
)

// frontierSweep drives the frontier: for each reader count, N
// concurrent optimistic Collects against a churning collection, weakness
// accounted through a fresh registry's rolling windows. Skew and
// duplicate figures are per-run counts at the 99th percentile — what an
// unlucky run sees — with the lifetime mean skew beside them.
func frontierSweep(b *bench) error {
	const elements = 96
	readers := []int{1, 2, 4, 8, 16}
	runsPerReader := 30
	if b.quick {
		readers = []int{1, 8}
		runsPerReader = 8
	}
	b.params["elements"] = elements
	b.params["runs_per_reader"] = float64(runsPerReader)

	for t := 0; t < b.trials; t++ {
		for _, n := range readers {
			if err := runFrontierLevel(b, n, elements, runsPerReader); err != nil {
				return fmt.Errorf("readers=%d: %w", n, err)
			}
		}
	}
	return nil
}

// runFrontierLevel builds a fresh cluster and registry, churns the
// collection from a writer goroutine, times `n` readers collecting
// `runs` times each, and records the level's rows.
func runFrontierLevel(b *bench, n, elements, runs int) error {
	ctx := context.Background()
	c, err := cluster.New(cluster.Config{StorageNodes: 4, Seed: b.seed})
	if err != nil {
		return err
	}
	defer c.Close()
	weakness := obs.NewRegistry()

	const coll = "frontier"
	if err := c.Client.CreateCollection(ctx, cluster.DirNode, coll); err != nil {
		return err
	}
	for i := 0; i < elements; i++ {
		ref, err := c.Client.Put(ctx, c.StorageFor(i), repo.Object{
			ID:   repo.ObjectID(fmt.Sprintf("e%03d", i)),
			Data: make([]byte, 256),
		})
		if err == nil {
			err = c.Client.Add(ctx, cluster.DirNode, coll, ref)
		}
		if err != nil {
			return fmt.Errorf("populate: %w", err)
		}
	}

	// The writer: add a member, remove the previous add, sleep a beat —
	// membership stays ~stable in size but the listing version never
	// stops moving, which is what optimistic runs trade consistency
	// against.
	var (
		writes    atomic.Int64
		churnStop = make(chan struct{})
		churnDone = make(chan struct{})
	)
	writer := c.ClientAt(c.Storage[0])
	go func() {
		defer close(churnDone)
		var last *repo.Ref
		for i := 0; ; i++ {
			select {
			case <-churnStop:
				return
			default:
			}
			ref, err := writer.Put(ctx, c.StorageFor(i), repo.Object{
				ID:   repo.ObjectID(fmt.Sprintf("churn%06d", i)),
				Data: make([]byte, 256),
			})
			if err == nil {
				err = writer.Add(ctx, cluster.DirNode, coll, ref)
			}
			if err == nil && last != nil {
				_, err = writer.Remove(ctx, cluster.DirNode, coll, last.ID)
			}
			if err != nil {
				return
			}
			last = &ref
			writes.Add(1)
			time.Sleep(time.Millisecond)
		}
	}()

	var (
		wg      sync.WaitGroup
		yielded atomic.Int64
		errMu   sync.Mutex
		readErr error
	)
	start := time.Now()
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			set, err := core.NewSet(c.Client, cluster.DirNode, coll, core.Options{
				Semantics: core.Optimistic,
				Weakness:  weakness,
			})
			if err == nil {
				for i := 0; i < runs; i++ {
					var elems []core.Element
					if elems, err = set.Collect(ctx); err != nil {
						break
					}
					yielded.Add(int64(len(elems)))
				}
			}
			if err != nil {
				errMu.Lock()
				if readErr == nil {
					readErr = err
				}
				errMu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(churnStop)
	<-churnDone
	if readErr != nil {
		return readErr
	}

	w := fmt.Sprintf("readers=%d", n)
	b.add(w, "runs_per_s", "1/s", float64(n*runs)/elapsed.Seconds())
	b.add(w, "elems_per_s", "1/s", float64(yielded.Load())/elapsed.Seconds())
	for _, cw := range weakness.Windows() {
		if cw.Collection != coll {
			continue
		}
		if lat, ok := cw.Metrics[obs.WinLatency]; ok {
			b.add(w, "latency_p50_ms", "ms", ms(lat.P50))
			b.add(w, "latency_p95_ms", "ms", ms(lat.P95))
			b.add(w, "latency_p99_ms", "ms", ms(lat.P99))
		}
		if skew, ok := cw.Metrics[obs.WinListingSkew]; ok {
			b.add(w, "skew_p99", "count", float64(skew.P99))
		}
		if dup, ok := cw.Metrics[obs.WinDuplicates]; ok {
			b.add(w, "duplicates_p99", "count", float64(dup.P99))
		}
	}
	for _, agg := range weakness.Snapshot() {
		if agg.Collection == coll && agg.Runs > 0 {
			b.add(w, "skew_per_run", "count", float64(agg.ListingSkew)/float64(agg.Runs))
		}
	}
	b.add(w, "writes", "count", float64(writes.Load()))
	return nil
}
