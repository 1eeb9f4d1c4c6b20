package experiments

import (
	"context"
	"time"

	"weaksets/internal/core"
	"weaksets/internal/metrics"
	"weaksets/internal/repo"
	"weaksets/internal/sim"
)

// A4CacheFallback measures the disconnected-operation extension: a
// client-side cache warmed by earlier browsing answers for unreachable
// members, trading staleness for coverage — the Coda move the paper's
// environment grew out of ("disconnecting a mobile client from the network
// while traveling is an induced failure", §1.1). Serving cached copies is
// strictly weaker than Fig. 6, so the elements arrive marked stale.
//
// Expected shape: without a cache, coverage is the reachable fraction;
// with a warm cache it returns to 100%, the difference delivered as stale
// elements; a cold cache changes nothing. Each arm binds its cache to the
// client (repo.Client.UseCache), which is where a dynamic set's fallback
// copies come from.
func A4CacheFallback(cfg Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	cuts := []int{1, 2, 4}
	if cfg.Quick {
		cuts = []int{2}
	}
	const elements = 24

	table := metrics.NewTable(
		"A4: disconnected-operation cache (8 storage nodes)",
		"nodes cut", "method", "yielded", "stale served", "coverage",
	)
	ctx := context.Background()
	for _, cut := range cuts {
		w, err := buildWorld(worldSpec{
			seed:     cfg.Seed,
			scale:    cfg.Scale,
			latency:  sim.Fixed(10 * time.Millisecond),
			elements: elements,
		})
		if err != nil {
			return nil, err
		}

		warm := repo.NewCache(elements * 2)
		// Browse once while healthy to warm the cache.
		w.c.Client.UseCache(warm)
		warmup := w.runDyn(ctx, core.DynOptions{Width: 8})
		if warmup.err != nil || warmup.yielded != elements {
			w.close()
			return nil, warmup.err
		}

		for i := 0; i < cut; i++ {
			w.c.Net.Isolate(w.c.Storage[len(w.c.Storage)-1-i])
		}

		type method struct {
			name  string
			cache *repo.Cache
		}
		for _, m := range []method{
			{name: "no cache", cache: nil},
			{name: "cold cache", cache: repo.NewCache(elements * 2)},
			{name: "warm cache", cache: warm},
		} {
			w.c.Client.UseCache(m.cache)
			res := w.runDyn(ctx, core.DynOptions{Width: 8})
			table.AddRow(itoa(cut), m.name, itoa(res.yielded), itoa(res.stale),
				metrics.FmtPct(float64(res.yielded)/elements))
		}
		w.c.Net.Heal()
		w.close()
	}
	return table, nil
}
