package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"weaksets/internal/cluster"
	"weaksets/internal/core"
	"weaksets/internal/metrics"
	"weaksets/internal/netsim"
	"weaksets/internal/repo"
	"weaksets/internal/sim"
	"weaksets/internal/workload"
)

// Ablations lists the design-choice ablations and extensions (A1–A4).
// They are separate from All() so the default weakbench run stays focused
// on the paper's claims; `weakbench -run A1` or `-ablations` selects them.
func Ablations() []Experiment {
	return []Experiment{
		{ID: "A1", Claim: "ablation: closest-first fetch ordering vs listing order (§1.1 'fetching closer files first')", Run: A1Ordering},
		{ID: "A2", Claim: "ablation: failure-detection timeout drives the cost of pessimism and of skipping (§2.1 'we assume we can detect failures')", Run: A2DetectTimeout},
		{ID: "A3", Claim: "ablation: lazy replication staleness window (§3 'cached data may be stale')", Run: A3ReplicaLag},
		{ID: "A4", Claim: "extension: disconnected-operation cache trades staleness for coverage (§1.1 mobile clients)", Run: A4CacheFallback},
	}
}

// A1Ordering isolates the closest-first design choice: the dynamic set
// (OpenDyn, closest first) against a naive fetcher of the same width and
// batch size that issues its batches in listing order (listingFetch, the
// harness's baseline). The paper folds parallelism and ordering into one
// mechanism; this separates their contributions.
//
// Expected shape: total completion is ordering-independent (the same
// fetches happen), but time-to-first-k is far lower with closest-first at
// small widths — the user-visible "page fills in" metric.
func A1Ordering(cfg Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	widths := []int{1, 4, 8}
	files := 32
	if cfg.Quick {
		widths = []int{1, 4}
		files = 16
	}

	c, err := cluster.New(cluster.Config{
		StorageNodes: 8,
		Seed:         cfg.Seed,
		Scale:        cfg.Scale,
		Latency:      sim.Fixed(10 * time.Millisecond),
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	ctx := context.Background()
	// Distances 5..40ms one-way. IDs are assigned so that *listing order
	// visits the farthest nodes first* — the adversarial case for a naive
	// fetcher.
	for i, node := range c.Storage {
		c.Net.SetLinkLatency(cluster.HomeNode, node, sim.Fixed(time.Duration(i+1)*5*time.Millisecond))
	}
	if err := c.Client.CreateCollection(ctx, cluster.DirNode, "a1"); err != nil {
		return nil, err
	}
	for i := 0; i < files; i++ {
		node := c.Storage[len(c.Storage)-1-(i%len(c.Storage))]
		obj := repo.Object{ID: repo.ObjectID(fmt.Sprintf("f%03d", i)), Data: make([]byte, 128)}
		ref, err := c.Client.Put(ctx, node, obj)
		if err != nil {
			return nil, err
		}
		if err := c.Client.Add(ctx, cluster.DirNode, "a1", ref); err != nil {
			return nil, err
		}
	}

	table := metrics.NewTable(
		"A1: fetch-ordering ablation (listing order visits far nodes first)",
		"width", "order", "first", "first 8", "total",
	)
	for _, width := range widths {
		for _, order := range []string{"closest-first", "listing"} {
			elapsed := cfg.Scale.Stopwatch()
			var first, firstEight time.Duration
			n := 0
			arrived := func() {
				n++
				switch n {
				case 1:
					first = elapsed()
				case 8:
					firstEight = elapsed()
				}
			}
			if order == "listing" {
				if err := listingFetch(ctx, c.Client, cluster.DirNode, "a1", width, arrived); err != nil {
					return nil, err
				}
			} else {
				ds, err := core.OpenDyn(ctx, c.Client, cluster.DirNode, "a1", core.DynOptions{Width: width})
				if err != nil {
					return nil, err
				}
				for ds.Next(ctx) {
					arrived()
				}
				_ = ds.Close(ctx)
				if err := ds.Err(); err != nil {
					return nil, err
				}
			}
			table.AddRow(itoa(width), order,
				metrics.FmtDur(first), metrics.FmtDur(firstEight), metrics.FmtDur(elapsed()))
		}
	}
	return table, nil
}

// listingFetch is A1's baseline, a naive dynamic set: it reads the
// membership, cuts it in listing (id) order into per-node batches of up
// to the dynamic set's default batch size, and issues them in that order,
// width at a time, over Client.GetBatch, calling arrived for each object
// as its batch lands. It knows nothing of distance: the closest-first
// heuristic is what OpenDyn adds.
func listingFetch(ctx context.Context, c *repo.Client, dir netsim.NodeID, coll string, width int, arrived func()) error {
	refs, _, err := c.List(ctx, dir, coll)
	if err != nil {
		return err
	}
	batch := core.FetchOptions{}.WithDefaults().Batch
	var chunks [][]repo.Ref
	open := make(map[netsim.NodeID]int) // the chunk each node is filling
	for _, ref := range refs {
		if k, ok := open[ref.Node]; ok && len(chunks[k]) < batch {
			chunks[k] = append(chunks[k], ref)
			continue
		}
		open[ref.Node] = len(chunks)
		chunks = append(chunks, []repo.Ref{ref})
	}
	var mu sync.Mutex // serializes arrived and firstErr
	var wg sync.WaitGroup
	var firstErr error
	sem := make(chan struct{}, width)
	for _, chunk := range chunks {
		sem <- struct{}{} // taken in listing order
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids := make([]repo.ObjectID, len(chunk))
			for i, ref := range chunk {
				ids[i] = ref.ID
			}
			objs, _, err := c.GetBatch(ctx, chunk[0].Node, ids)
			<-sem
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			for range objs {
				arrived()
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// A2DetectTimeout sweeps the failure-detection timeout the whole model
// leans on (§2.1: "we assume we can detect failures, e.g., those signaled
// from the lower network and transport layers").
//
// Expected shape: both runs consult the local failure detector (free)
// before fetching, so neither attempts an isolated node and neither pays
// the timeout: the pessimistic iterator fails after draining the
// reachable elements, the dynamic set returns them and skips the rest,
// both in a time flat across the timeout.
func A2DetectTimeout(cfg Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	timeouts := []time.Duration{50 * time.Millisecond, 200 * time.Millisecond, 800 * time.Millisecond}
	if cfg.Quick {
		// Widely separated points so the shape survives wall-clock noise
		// when the whole test suite runs in parallel.
		timeouts = []time.Duration{50 * time.Millisecond, 800 * time.Millisecond}
	}
	const elements = 16

	table := metrics.NewTable(
		"A2: failure-detection timeout ablation (2 of 8 nodes partitioned)",
		"detect timeout", "grow-only time-to-fail", "dynamic total (skip)", "dynamic yielded", "dynamic skipped",
	)
	ctx := context.Background()
	for _, timeout := range timeouts {
		c, err := cluster.New(cluster.Config{
			StorageNodes:  8,
			Seed:          cfg.Seed,
			Scale:         cfg.Scale,
			Latency:       sim.Fixed(10 * time.Millisecond),
			DetectTimeout: timeout,
		})
		if err != nil {
			return nil, err
		}
		if err := c.Client.CreateCollection(ctx, cluster.DirNode, "a2"); err != nil {
			c.Close()
			return nil, err
		}
		var refs []repo.Ref
		for i := 0; i < elements; i++ {
			obj := repo.Object{ID: repo.ObjectID(fmt.Sprintf("e%03d", i)), Data: make([]byte, 128)}
			ref, err := c.Client.Put(ctx, c.StorageFor(i), obj)
			if err != nil {
				c.Close()
				return nil, err
			}
			if err := c.Client.Add(ctx, cluster.DirNode, "a2", ref); err != nil {
				c.Close()
				return nil, err
			}
			refs = append(refs, ref)
		}
		c.Net.Isolate(c.Storage[0])
		c.Net.Isolate(c.Storage[1])

		set, err := core.NewSet(c.Client, cluster.DirNode, "a2", core.Options{Semantics: core.GrowOnly})
		if err != nil {
			c.Close()
			return nil, err
		}
		elapsed := cfg.Scale.Stopwatch()
		_, runErr := set.Collect(ctx)
		failTime := elapsed()
		if runErr == nil {
			c.Close()
			return nil, fmt.Errorf("a2: pessimistic run unexpectedly completed")
		}

		elapsed = cfg.Scale.Stopwatch()
		ds, err := core.OpenDyn(ctx, c.Client, cluster.DirNode, "a2", core.DynOptions{Width: 4})
		if err != nil {
			c.Close()
			return nil, err
		}
		n := 0
		for ds.Next(ctx) {
			n++
		}
		dynTotal := elapsed()
		_ = ds.Close(ctx)

		table.AddRow(metrics.FmtDur(timeout), metrics.FmtDur(failTime), metrics.FmtDur(dynTotal), itoa(n), itoa(len(ds.Skipped())))
		c.Close()
	}
	return table, nil
}

// A3ReplicaLag measures the staleness window of lazy collection
// replication — the mechanism behind "one node may have more up-to-date
// information than another; cached data may be stale" (§3). A writer
// mutates the primary at a fixed period; a reader polls both primary and
// mirror and records how often, and by how many members, the mirror lags.
//
// Expected shape: the mirror lags by at most a link latency's worth of
// mutations; the staleness probability grows as the mutation period
// approaches the propagation delay.
func A3ReplicaLag(cfg Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	periods := []time.Duration{20 * time.Millisecond, 60 * time.Millisecond, 200 * time.Millisecond}
	samples := 60
	if cfg.Quick {
		periods = []time.Duration{20 * time.Millisecond, 200 * time.Millisecond}
		samples = 25
	}

	table := metrics.NewTable(
		"A3: lazy replication staleness (one-way link 15ms)",
		"mutation period", "samples", "stale reads", "max lag (members)",
	)
	ctx := context.Background()
	for _, period := range periods {
		c, err := cluster.New(cluster.Config{
			StorageNodes: 4,
			Seed:         cfg.Seed,
			Scale:        cfg.Scale,
			Latency:      sim.Fixed(15 * time.Millisecond),
		})
		if err != nil {
			return nil, err
		}
		if err := c.Client.CreateCollection(ctx, cluster.DirNode, "a3"); err != nil {
			c.Close()
			return nil, err
		}
		mirror := c.Storage[0]
		if err := c.Servers[cluster.DirNode].ReplicateCollection("a3", []netsim.NodeID{mirror}); err != nil {
			c.Close()
			return nil, err
		}
		// Wait for the initial push to land before sampling.
		for {
			if _, _, err := c.Client.List(ctx, mirror, "a3"); err == nil {
				break
			}
			cfg.Scale.Sleep(10 * time.Millisecond)
		}

		mut := workload.NewMutator(workload.MutatorConfig{
			Client:      c.ClientAt(cluster.DirNode),
			Dir:         cluster.DirNode,
			Coll:        "a3",
			AddEvery:    period,
			ObjectNodes: []netsim.NodeID{cluster.DirNode},
			ObjectSize:  32,
			IDPrefix:    "a3",
			Rand:        sim.NewRand(cfg.Seed + 3),
		})
		mut.Start(ctx)

		staleReads, maxLag := 0, 0
		for i := 0; i < samples; i++ {
			// Sample primary and mirror at the same instant — two clients
			// issuing the same query concurrently, as §1 describes.
			var (
				primary, mirrored []repo.Ref
				pErr, mErr        error
				wg                sync.WaitGroup
			)
			wg.Add(2)
			go func() {
				defer wg.Done()
				primary, _, pErr = c.Client.List(ctx, cluster.DirNode, "a3")
			}()
			go func() {
				defer wg.Done()
				mirrored, _, mErr = c.Client.List(ctx, mirror, "a3")
			}()
			wg.Wait()
			if pErr != nil || mErr != nil {
				mut.Stop()
				c.Close()
				return nil, fmt.Errorf("a3 sample: %v / %v", pErr, mErr)
			}
			lag := len(primary) - len(mirrored)
			if lag < 0 {
				lag = 0
			}
			if lag > 0 {
				staleReads++
			}
			if lag > maxLag {
				maxLag = lag
			}
			cfg.Scale.Sleep(period / 2)
		}
		mut.Stop()
		table.AddRow(metrics.FmtDur(period), itoa(samples), itoa(staleReads), itoa(maxLag))
		c.Close()
	}
	return table, nil
}
