package main

// The store sweep: the contention driver (Workers goroutines hammering
// one engine with the read-heavy List/Get mix the directory node serves)
// run against the single-mutex reference engine and the sharded engine
// that ships, paired trial by trial. The sharded engine answers List
// from an atomic copy-on-write snapshot; the reference serializes every
// List behind its mutex, which is the gap the speedup rows price.

import (
	"fmt"
	"sync"
	"time"

	"weaksets/internal/store"
)

// contentionConfig sizes one contention measurement.
type contentionConfig struct {
	// Engine selects "locked" or "sharded".
	Engine string
	// Objects is the size of the seeded object table.
	Objects int
	// Members is the seeded collection size.
	Members int
	// Workers is the number of concurrent client goroutines.
	Workers int
	// OpsPerWorker is how many operations each worker issues.
	OpsPerWorker int
	// WriteEvery makes every n-th operation a write (alternating object
	// Put and membership Add); 0 disables writes.
	WriteEvery int
}

// contentionResult is one contention measurement.
type contentionResult struct {
	TotalOps  int64
	OpsPerSec float64
	PerOp     map[string]store.OpStats
}

// newEngine builds an engine by name ("locked" or "sharded").
func newEngine(name string) (store.Store, error) {
	switch name {
	case "locked":
		return store.NewLocked(), nil
	case "sharded":
		return store.NewSharded(store.Config{}), nil
	}
	return nil, fmt.Errorf("unknown engine %q", name)
}

// contentionCollection is the collection name the runner seeds.
const contentionCollection = "bench"

// seedContention fills an engine with the benchmark corpus: Objects
// objects ("o0000"...) and a collection "bench" whose first Members
// objects are members. It returns the object IDs.
func seedContention(st store.Store, cfg contentionConfig) ([]store.ObjectID, error) {
	ids := make([]store.ObjectID, cfg.Objects)
	for i := range ids {
		ids[i] = store.ObjectID(fmt.Sprintf("o%04d", i))
		if _, err := st.PutObject(store.Object{ID: ids[i], Data: make([]byte, 64)}); err != nil {
			return nil, err
		}
	}
	if err := st.CreateCollection(contentionCollection); err != nil {
		return nil, err
	}
	for i := 0; i < min(cfg.Members, len(ids)); i++ {
		if _, err := st.Add(contentionCollection, store.Ref{ID: ids[i], Node: "bench"}); err != nil {
			return nil, err
		}
	}
	return ids, nil
}

// runContention builds, seeds, and hammers one engine, returning
// throughput plus the engine's own per-operation latency stats.
func runContention(cfg contentionConfig) (contentionResult, error) {
	st, err := newEngine(cfg.Engine)
	if err != nil {
		return contentionResult{}, err
	}
	ids, err := seedContention(st, cfg)
	if err != nil {
		return contentionResult{}, err
	}
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < cfg.OpsPerWorker; i++ {
				switch {
				case cfg.WriteEvery > 0 && i%cfg.WriteEvery == 0:
					if (i/cfg.WriteEvery)%2 == 0 {
						id := ids[(i*31+w*7)%len(ids)]
						_, _ = st.PutObject(store.Object{ID: id, Data: make([]byte, 64)})
					} else {
						id := ids[(i*31+w*7)%cfg.Members]
						_, _ = st.Add(contentionCollection, store.Ref{ID: id, Node: "bench"})
					}
				case i%8 < 5:
					_, _, _ = st.List(contentionCollection)
				default:
					_, _ = st.GetObject(ids[(i*17+w*3)%len(ids)])
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	total := int64(cfg.Workers) * int64(cfg.OpsPerWorker)
	res := contentionResult{
		TotalOps:  total,
		OpsPerSec: float64(total) / elapsed.Seconds(),
		PerOp:     map[string]store.OpStats{},
	}
	for _, op := range st.Stats().Ops {
		res.PerOp[op.Op] = op
	}
	return res, nil
}

// storeSweep measures locked vs sharded throughput on the List+Get mix
// with one write in 64. It sweeps past GOMAXPROCS so lock contention
// shows even on small machines: oversubscribed workers still pile up on
// the reference engine's mutex.
func storeSweep(b *bench) error {
	base := contentionConfig{Objects: 1024, Members: 256, OpsPerWorker: 50000, WriteEvery: 64}
	workerCounts := []int{1, 2, 4, 8}
	if b.quick {
		base.OpsPerWorker = 3000
		workerCounts = []int{1, 8}
	}
	b.params["objects"] = float64(base.Objects)
	b.params["members"] = float64(base.Members)
	b.params["ops_per_worker"] = float64(base.OpsPerWorker)
	b.params["write_every"] = float64(base.WriteEvery)

	for t := 0; t < b.trials; t++ {
		for _, workers := range workerCounts {
			var locked float64
			for _, engine := range []string{"locked", "sharded"} {
				cfg := base
				cfg.Engine = engine
				cfg.Workers = workers
				if engine == "sharded" {
					// An order of magnitude cheaper per op: eight times the
					// ops keep its timed interval comparable to the
					// reference's instead of a few milliseconds long.
					cfg.OpsPerWorker *= 8
				}
				res, err := runContention(cfg)
				if err != nil {
					return fmt.Errorf("%s/%d: %w", engine, workers, err)
				}
				w := fmt.Sprintf("%s/workers=%d", engine, workers)
				b.add(w, "ops_per_s", "1/s", res.OpsPerSec)
				b.add(w, "list_p50_us", "us", us(res.PerOp["list"].P50))
				b.add(w, "list_p99_us", "us", us(res.PerOp["list"].P99))
				b.add(w, "get_p50_us", "us", us(res.PerOp["get"].P50))
				b.add(w, "get_p99_us", "us", us(res.PerOp["get"].P99))
				if engine == "locked" {
					locked = res.OpsPerSec
				} else {
					b.add(w, "sharded_speedup", "x", res.OpsPerSec/locked)
				}
			}
		}
	}
	return nil
}
