package experiments

import (
	"context"
	"fmt"
	"time"

	"weaksets/internal/cluster"
	"weaksets/internal/core"
	"weaksets/internal/fsim"
	"weaksets/internal/metrics"
	"weaksets/internal/netsim"
	"weaksets/internal/sim"
	"weaksets/internal/spec"
	"weaksets/internal/workload"
)

// E5Prefetch reproduces the dynamic-sets motivation (§1.1): an `ls` over a
// remote directory, sequential-stat versus dynamic-set prefetching at
// several widths, over storage nodes at increasingly distant latencies so
// closest-first ordering matters.
//
// Expected shape: completion time divides by roughly min(width, files per
// node); first-entry latency for the dynamic set is one near-node round
// trip, far below strict ls's full scan.
func E5Prefetch(cfg Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	files := 64
	widths := []int{1, 2, 4, 8, 16}
	if cfg.Quick {
		files = 24
		widths = []int{1, 4, 16}
	}
	const storage = 8

	c, err := cluster.New(cluster.Config{
		StorageNodes: storage,
		Seed:         cfg.Seed,
		Scale:        cfg.Scale,
		Latency:      sim.Fixed(10 * time.Millisecond),
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	// Node i sits (i+1)*5ms away one-way: a mix of near and far servers.
	for i, node := range c.Storage {
		c.Net.SetLinkLatency(cluster.HomeNode, node, sim.Fixed(time.Duration(i+1)*5*time.Millisecond))
	}

	ctx := context.Background()
	fs := fsim.New(c.Client)
	if err := fs.Mkdir(ctx, "", cluster.DirNode, "/"); err != nil {
		return nil, err
	}
	if err := fs.Mkdir(ctx, cluster.DirNode, cluster.DirNode, "/pub"); err != nil {
		return nil, err
	}
	for i := 0; i < files; i++ {
		p := fmt.Sprintf("/pub/doc%03d", i)
		if _, err := fs.WriteFile(ctx, cluster.DirNode, c.StorageFor(i), p, []byte("file body")); err != nil {
			return nil, err
		}
	}

	table := metrics.NewTable(
		"E5: distributed ls — sequential stat vs dynamic-set prefetch",
		"method", "files", "first entry", "total",
	)

	elapsed := cfg.Scale.Stopwatch()
	entries, err := fs.LsStrict(ctx, cluster.DirNode, "/pub")
	if err != nil {
		return nil, err
	}
	table.AddRow("ls-strict", itoa(len(entries)), "n/a (ordered)", metrics.FmtDur(elapsed()))

	for _, width := range widths {
		elapsed := cfg.Scale.Stopwatch()
		ds, err := fs.LsDyn(ctx, cluster.DirNode, "/pub", core.DynOptions{Width: width})
		if err != nil {
			return nil, err
		}
		var first time.Duration
		n := 0
		for ds.Next(ctx) {
			n++
			if n == 1 {
				first = elapsed()
			}
		}
		total := elapsed()
		_ = ds.Close(ctx)
		table.AddRow(fmt.Sprintf("ls-dynamic w=%d", width), itoa(n), metrics.FmtDur(first), metrics.FmtDur(total))
	}
	return table, nil
}

// E6Conformance builds the conformance matrix: each implemented semantics,
// run in the model harness under the environment discipline its constraint
// clause demands, is checked against the ensures clause of every
// specification figure. Paper claim (§3): the design space is a lattice of
// strictness — each implementation satisfies its own column, the benign
// corners coincide, and the mutating semantics separate.
func E6Conformance(cfg Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	seeds := 100
	if cfg.Quick {
		seeds = 30
	}
	figures := spec.Figures()
	headers := []string{"implementation \\ spec"}
	for _, f := range figures {
		headers = append(headers, f.String())
	}
	table := metrics.NewTable("E6: conformance matrix (pass rate over random model runs)", headers...)

	for _, sem := range core.AllSemantics() {
		row := []string{sem.String()}
		for _, fig := range figures {
			pass := 0
			for seed := 0; seed < seeds; seed++ {
				env := spec.NewEnv(sim.NewRand(cfg.Seed+int64(seed)), 8, sem.Constraint())
				run, _ := core.RunModel(sem, env, core.ModelConfig{
					MaxSteps:        150,
					HealAfterBlocks: 3,
					FreezeAfter:     60,
				})
				if spec.CheckRun(fig, run) == nil {
					pass++
				}
			}
			row = append(row, metrics.FmtPct(float64(pass)/float64(seeds)))
		}
		table.AddRow(row...)
	}
	return table, nil
}

// E7GrowRace measures the non-termination risk the paper flags for
// grow-only sets (§3.3): "since the set may grow faster than the iterator
// yields elements from it, an iterator satisfying this specification may
// never terminate ... in practice this behavior will not occur if objects
// are consumed more rapidly than they are produced."
//
// The consumer's per-element cost is ~2 RTT (membership read + fetch); the
// producer adds one element every cost/ratio. Expected shape: termination
// flips from certain to never as the production/consumption ratio crosses 1.
func E7GrowRace(cfg Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	ratios := []float64{0.5, 0.9, 1.1, 2.0}
	if cfg.Quick {
		ratios = []float64{0.5, 2.0}
	}
	const (
		oneWay     = 10 * time.Millisecond
		perElement = 4 * oneWay // list + get, each a round trip
		initial    = 4
		budget     = 6 * time.Second // virtual iteration budget
	)

	table := metrics.NewTable(
		"E7: grow-only termination race (budget 6s)",
		"produce/consume ratio", "add period", "yielded", "terminated",
	)
	for _, ratio := range ratios {
		w, err := buildWorld(worldSpec{
			seed:     cfg.Seed,
			scale:    cfg.Scale,
			latency:  sim.Fixed(oneWay),
			elements: initial,
		})
		if err != nil {
			return nil, err
		}
		addEvery := time.Duration(float64(perElement) / ratio)
		// The producer lives on the directory node so its own RPC latency
		// does not throttle the production rate.
		mut := workload.NewMutator(workload.MutatorConfig{
			Client:      w.c.ClientAt(w.corpus.Dir),
			Dir:         w.corpus.Dir,
			Coll:        w.corpus.Coll,
			AddEvery:    addEvery,
			ObjectNodes: []netsim.NodeID{w.corpus.Dir},
			ObjectSize:  32,
			IDPrefix:    fmt.Sprintf("grow-%.1f", ratio),
			Rand:        sim.NewRand(cfg.Seed + 7),
		})
		ctx, cancel := context.WithTimeout(context.Background(), w.scale.Real(budget))
		mut.Start(ctx)
		res := w.runSet(ctx, core.GrowOnly, core.Options{})
		cancel()
		mut.Stop()

		terminated := "yes"
		if res.err != nil {
			terminated = "no (" + fmtErr(res.err) + ")"
		}
		table.AddRow(metrics.FmtRatio(ratio), metrics.FmtDur(addEvery), itoa(res.yielded), terminated)
		w.close()
	}
	return table, nil
}

// E8Ghosts measures ghost-copy accounting for the grow-only-per-run
// semantics (§3.3): "we can create copies of any deleted objects and then
// garbage collect these 'ghost' copies upon termination."
//
// Expected shape: peak ghost count equals the number of deletions issued
// during the run; after Close everything is reclaimed.
func E8Ghosts(cfg Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	deleteCounts := []int{4, 16, 64}
	if cfg.Quick {
		deleteCounts = []int{4, 16}
	}

	table := metrics.NewTable(
		"E8: ghost copies during a grow-only run",
		"deletes during run", "peak ghosts", "ghosts after close", "members after close", "reclaimed data objects",
	)
	ctx := context.Background()
	for _, deletes := range deleteCounts {
		w, err := buildWorld(worldSpec{
			seed:     cfg.Seed,
			scale:    0, // logical time: this experiment counts, not times
			elements: deletes + 8,
		})
		if err != nil {
			return nil, err
		}
		s, err := w.set(core.GrowOnlyPerRun, core.Options{})
		if err != nil {
			w.close()
			return nil, err
		}
		it, err := s.Elements(ctx)
		if err != nil {
			w.close()
			return nil, err
		}
		// Yield a few, then delete `deletes` members mid-run.
		for i := 0; i < 3 && it.Next(ctx); i++ {
		}
		for i := 0; i < deletes; i++ {
			victim := w.corpus.Refs[len(w.corpus.Refs)-1-i]
			if err := w.c.Client.DeleteMember(ctx, w.corpus.Dir, w.corpus.Coll, victim); err != nil {
				w.close()
				return nil, err
			}
		}
		peak, err := w.c.Client.Stats(ctx, w.corpus.Dir, w.corpus.Coll)
		if err != nil {
			w.close()
			return nil, err
		}
		for it.Next(ctx) {
		}
		if err := it.Err(); err != nil {
			w.close()
			return nil, fmt.Errorf("e8 iterator: %w", err)
		}
		totalObjects := func() int {
			sum := 0
			for _, srv := range w.c.Servers {
				sum += srv.ObjectCount()
			}
			return sum
		}
		before := totalObjects()
		if err := it.Close(ctx); err != nil {
			w.close()
			return nil, err
		}
		// Object data is reclaimed asynchronously after the window closes.
		deadline := time.Now().Add(2 * time.Second)
		for totalObjects() > before-deletes && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		reclaimed := before - totalObjects()
		after, err := w.c.Client.Stats(ctx, w.corpus.Dir, w.corpus.Coll)
		if err != nil {
			w.close()
			return nil, err
		}
		table.AddRow(itoa(deletes), itoa(peak.Ghosts), itoa(after.Ghosts), itoa(after.Members), itoa(reclaimed))
		w.close()
	}
	return table, nil
}
