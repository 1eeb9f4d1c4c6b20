package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"weaksets/internal/cluster"
	"weaksets/internal/repo"
	"weaksets/internal/sim"
	"weaksets/internal/spec"
	"weaksets/internal/workload"
)

// TestChaosSoak runs the full stack under combined stress — concurrent
// writers, transient node outages, and several iterators of different
// semantics at once — and checks the invariants that must hold regardless
// of interleaving:
//
//   - every optimistic run's history meets Fig. 6, invocation by
//     invocation (CheckRun holds the iterator's obligations only, so the
//     concurrent writers break none) — one reader's on a client with a
//     lease and an element cache warmed before the writers and outages
//     start, so its invocations the lease certifies are served by
//     position at yield;
//   - the optimistic iterator never raises the failure exception;
//   - nothing is ever yielded twice within a run;
//   - everything yielded was a member at some point (initial or added);
//   - dynamic sets terminate and report only genuinely hosted refs as
//     skipped.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const (
		initial = 24
		scale   = sim.TimeScale(0.002) // 500x: keep the soak brief
	)
	c, err := cluster.New(cluster.Config{
		StorageNodes: 6,
		Seed:         1234,
		Scale:        scale,
		Latency:      sim.Fixed(10 * time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()

	if err := c.Client.CreateCollection(ctx, cluster.DirNode, "chaos"); err != nil {
		t.Fatal(err)
	}
	legal := struct {
		mu  sync.Mutex
		ids map[repo.ObjectID]bool
	}{ids: make(map[repo.ObjectID]bool)}
	var initialRefs []repo.Ref
	for i := 0; i < initial; i++ {
		id := repo.ObjectID(fmt.Sprintf("init-%03d", i))
		ref, err := c.Client.Put(ctx, c.StorageFor(i), repo.Object{ID: id, Data: []byte("x")})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Client.Add(ctx, cluster.DirNode, "chaos", ref); err != nil {
			t.Fatal(err)
		}
		initialRefs = append(initialRefs, ref)
		legal.ids[id] = true
	}

	// The cached reader's client: a lease on the collection, and a cache
	// one run fills before anything moves.
	cached := c.ClientAt(cluster.HomeNode)
	cached.UseCache(repo.NewCache(4 * initial))
	ls := repo.NewLeaseState(cached, cluster.DirNode, "chaos")
	if err := ls.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer ls.Stop()
	cached.UseLeases(ls)
	warm, err := NewSet(cached, cluster.DirNode, "chaos", Options{Semantics: Optimistic})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := warm.Collect(ctx); err != nil || len(got) != initial {
		t.Fatalf("warming run: %d elements, %v", len(got), err)
	}

	// Two writers churn the set; one failure injector cycles outages.
	mutators := make([]*workload.Mutator, 0, 2)
	for i := 0; i < 2; i++ {
		m := workload.NewMutator(workload.MutatorConfig{
			Client:      c.ClientAt(c.Storage[i]),
			Dir:         cluster.DirNode,
			Coll:        "chaos",
			AddEvery:    60 * time.Millisecond,
			RemoveEvery: 150 * time.Millisecond,
			ObjectNodes: c.Storage,
			ObjectSize:  64,
			IDPrefix:    fmt.Sprintf("w%d", i),
			Initial:     initialRefs,
			Rand:        sim.NewRand(int64(100 + i)),
		})
		m.Start(ctx)
		mutators = append(mutators, m)
	}
	flaky := workload.NewFlaky(workload.FlakyConfig{
		Net:       c.Net,
		Victims:   c.Storage[2:], // keep the writers' home nodes up
		Every:     100 * time.Millisecond,
		OutageFor: 150 * time.Millisecond,
		POutage:   0.5,
		Rand:      sim.NewRand(55),
	})
	flaky.Start(ctx)

	// Readers: several optimistic runs and dynamic sets, concurrently.
	var (
		wg        sync.WaitGroup
		cacheHits atomic.Int64 // the cached reader's serves at yield
	)
	errCh := make(chan error, 16)
	seenCh := make(chan map[repo.ObjectID]bool, 8)
	for r := 0; r < 3; r++ {
		r := r
		client := c.Client
		if r == 0 {
			client = cached
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := NewSet(client, cluster.DirNode, "chaos", Options{
				Semantics:  Optimistic,
				BlockRetry: 20 * time.Millisecond,
				MaxBlock:   2 * time.Second,
			})
			if err != nil {
				errCh <- err
				return
			}
			it, err := s.Elements(ctx)
			if err != nil {
				errCh <- fmt.Errorf("reader %d open: %w", r, err)
				return
			}
			defer it.Close(context.Background())
			var hist []invocation
			it.hist = &hist
			seen := make(map[repo.ObjectID]bool)
			for it.Next(ctx) {
				id := it.Element().Ref.ID
				if seen[id] {
					errCh <- fmt.Errorf("reader %d: duplicate yield %q", r, id)
					return
				}
				seen[id] = true
			}
			if err := it.Err(); errors.Is(err, ErrFailure) {
				errCh <- fmt.Errorf("reader %d: optimistic iterator failed: %w", r, err)
			}
			if err := spec.CheckRun(Optimistic.Figure(), historyRun(Optimistic, hist)); err != nil {
				errCh <- fmt.Errorf("reader %d: %w", r, err)
			}
			if r == 0 {
				cacheHits.Store(it.Weakness().CacheHits)
			}
			seenCh <- seen
		}()
	}
	for r := 0; r < 2; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			ds, err := OpenDyn(ctx, c.Client, cluster.DirNode, "chaos", DynOptions{Width: 4})
			if err != nil {
				// The directory stays up, but an unlucky open during a
				// washover is fine to skip.
				return
			}
			defer ds.Close(ctx)
			seen := make(map[repo.ObjectID]bool)
			for ds.Next(ctx) {
				id := ds.Element().Ref.ID
				if seen[id] {
					errCh <- fmt.Errorf("dyn %d: duplicate yield %q", r, id)
					return
				}
				seen[id] = true
			}
			seenCh <- seen
		}()
	}

	wg.Wait()
	cancel()
	for _, m := range mutators {
		m.Stop()
		for _, ev := range m.Added() {
			legal.ids[ev.Ref.ID] = true
		}
	}
	flaky.Stop()

	close(seenCh)
	for seen := range seenCh {
		for id := range seen {
			legal.mu.Lock()
			ok := legal.ids[id]
			legal.mu.Unlock()
			if !ok {
				t.Errorf("yielded id %q was never a legal member", id)
			}
		}
	}

	close(errCh)
	for err := range errCh {
		// Context-expiry errors are expected when the soak deadline cuts a
		// blocked reader off; everything else is a bug.
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			continue
		}
		t.Error(err)
	}
	if flaky.Outages() == 0 {
		t.Error("chaos produced no outages; soak was not stressful")
	}
	if cacheHits.Load() == 0 {
		t.Error("the cached reader served no element from the cache: the positional serve went unchecked")
	}
}
