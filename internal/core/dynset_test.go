package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"weaksets/internal/cluster"
	"weaksets/internal/repo"
	"weaksets/internal/sim"
)

func collectDyn(t *testing.T, ds *Iterator, limit int) []Element {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var out []Element
	for len(out) < limit && ds.Next(ctx) {
		out = append(out, ds.Element())
	}
	return out
}

func TestDynSetYieldsEverything(t *testing.T) {
	w := newTestWorld(t, 10)
	ds, err := OpenDyn(context.Background(), w.c.Client, cluster.DirNode, "set", DynOptions{Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close(context.Background())
	got := collectDyn(t, ds, 100)
	if len(got) != 10 {
		t.Fatalf("yielded %d, want 10", len(got))
	}
	seen := make(map[string]bool)
	for _, e := range got {
		if seen[string(e.Ref.ID)] {
			t.Fatalf("duplicate element %s", e.Ref.ID)
		}
		seen[string(e.Ref.ID)] = true
		if len(e.Data) == 0 {
			t.Fatalf("element %s missing data", e.Ref.ID)
		}
	}
	if err := ds.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestDynSetSkipsUnreachable(t *testing.T) {
	w := newTestWorld(t, 8)
	w.c.Net.Isolate(w.c.Storage[0]) // e000 and e004 unreachable
	ds, err := OpenDyn(context.Background(), w.c.Client, cluster.DirNode, "set", DynOptions{Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close(context.Background())
	got := collectDyn(t, ds, 100)
	if len(got) != 6 {
		t.Fatalf("yielded %d, want 6", len(got))
	}
	skipped := ds.Skipped()
	if len(skipped) != 2 {
		t.Fatalf("skipped %v, want 2 refs", skipped)
	}
	for _, ref := range skipped {
		if ref.Node != w.c.Storage[0] {
			t.Fatalf("skipped ref on wrong node: %v", ref)
		}
	}
}

// TestDynSetYieldsReachableAfterAYieldedMemberGoesDown: once the node of
// a member the run already yielded is cut off, a dynamic run goes on
// yielding every member it can reach and only then settles — it does not
// return at once, as Fig. 3's Return on a yielded member out of reach
// would, leaving reachable members in Skipped.
func TestDynSetYieldsReachableAfterAYieldedMemberGoesDown(t *testing.T) {
	ctx := context.Background()
	w := newTestWorld(t, 40) // ten members on each of four storage nodes
	ds, err := OpenDyn(ctx, w.c.Client, cluster.DirNode, "set", DynOptions{Batch: 1, Width: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close(ctx)
	if !ds.Next(ctx) {
		t.Fatalf("first next: %v", ds.Err())
	}
	cut := ds.Element().Ref.Node
	w.c.Net.Isolate(cut)
	if got := collectDyn(t, ds, 100); len(got) != 30 || ds.Err() != nil {
		t.Fatalf("yielded %d more after cutting %s, err %v; want the 30 on the other nodes, nil", len(got), cut, ds.Err())
	}
	skipped := ds.Skipped()
	for _, ref := range skipped {
		if ref.Node != cut {
			t.Fatalf("skipped %v on a reachable node", ref)
		}
	}
	if len(skipped) != 9 {
		t.Fatalf("skipped %d members, want the 9 left on %s", len(skipped), cut)
	}
}

func TestDynSetOpenFailsOnUnreachableDir(t *testing.T) {
	w := newTestWorld(t, 2)
	w.c.Net.Isolate(cluster.DirNode)
	_, err := OpenDyn(context.Background(), w.c.Client, cluster.DirNode, "set", DynOptions{})
	if !errors.Is(err, ErrFailure) {
		t.Fatalf("err = %v, want ErrFailure", err)
	}
}

// TestDynSetNextContextCancel: a Next waiting on a slow node's batch
// returns false once its context ends, and Err reports the context's.
func TestDynSetNextContextCancel(t *testing.T) {
	c, err := cluster.New(cluster.Config{StorageNodes: 1, Seed: 3, Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if err := c.Client.CreateCollection(ctx, cluster.DirNode, "d"); err != nil {
		t.Fatal(err)
	}
	ref, err := c.Client.Put(ctx, c.Storage[0], repo.Object{ID: "slow", Data: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Client.Add(ctx, cluster.DirNode, "d", ref); err != nil {
		t.Fatal(err)
	}
	c.Net.SetLinkLatency(cluster.HomeNode, c.Storage[0], sim.Fixed(100*time.Second)) // a second each way
	ds, err := OpenDyn(ctx, c.Client, cluster.DirNode, "d", DynOptions{Width: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close(ctx)
	short, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
	defer cancel()
	if ds.Next(short) {
		t.Fatal("Next yielded before the batch landed")
	}
	if !errors.Is(ds.Err(), context.DeadlineExceeded) {
		t.Fatalf("Err = %v", ds.Err())
	}
}

func TestDynSetClosestFirstOrdering(t *testing.T) {
	// Distinguish near and far storage with very different latencies and a
	// real (scaled) clock; with Width 1 the fetch order is fully
	// determined by the ordering policy.
	c, err := cluster.New(cluster.Config{
		StorageNodes: 2,
		Seed:         1,
		Scale:        0.001, // 1000x compression
		Latency:      sim.Fixed(10 * time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if err := c.Client.CreateCollection(ctx, cluster.DirNode, "d"); err != nil {
		t.Fatal(err)
	}
	near, far := c.Storage[0], c.Storage[1]
	c.Net.SetLinkLatency(cluster.HomeNode, near, sim.Fixed(time.Millisecond))
	c.Net.SetLinkLatency(cluster.HomeNode, far, sim.Fixed(80*time.Millisecond))
	farRef, err := c.Client.Put(ctx, far, repo.Object{ID: "aa-far", Data: []byte("far")})
	if err != nil {
		t.Fatal(err)
	}
	nearRef, err := c.Client.Put(ctx, near, repo.Object{ID: "zz-near", Data: []byte("near")})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Client.Add(ctx, cluster.DirNode, "d", farRef); err != nil {
		t.Fatal(err)
	}
	if err := c.Client.Add(ctx, cluster.DirNode, "d", nearRef); err != nil {
		t.Fatal(err)
	}

	ds, err := OpenDyn(ctx, c.Client, cluster.DirNode, "d", DynOptions{Width: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close(context.Background())
	var order []string
	for ds.Next(ctx) {
		order = append(order, string(ds.Element().Ref.ID))
	}
	// Closest-first: the near object (later in ID order) must come first.
	if len(order) != 2 || order[0] != "zz-near" {
		t.Fatalf("order = %v, want zz-near first", order)
	}
	// The listing-order baseline is the experiments harness's
	// (A1, listingFetch), not an option of the dynamic set.
}

func TestDynSetParallelSpeedup(t *testing.T) {
	// With 8 elements at 20ms one-way latency, width 8 must be much
	// faster than width 1. Uses the scaled clock (100x) so sleeps dominate
	// scheduler noise even when test packages run in parallel.
	c, err := cluster.New(cluster.Config{
		StorageNodes: 4,
		Seed:         2,
		Scale:        0.01,
		Latency:      sim.Fixed(20 * time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if err := c.Client.CreateCollection(ctx, cluster.DirNode, "d"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		ref, err := c.Client.Put(ctx, c.StorageFor(i), repo.Object{ID: repo.ObjectID(fmt.Sprintf("p%02d", i)), Data: []byte("x")})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Client.Add(ctx, cluster.DirNode, "d", ref); err != nil {
			t.Fatal(err)
		}
	}
	run := func(width int) time.Duration {
		start := time.Now()
		ds, err := OpenDyn(ctx, c.Client, cluster.DirNode, "d", DynOptions{Width: width})
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close(context.Background())
		n := 0
		for ds.Next(ctx) {
			n++
		}
		if n != 8 {
			t.Fatalf("width %d yielded %d", width, n)
		}
		return time.Since(start)
	}
	seq := run(1)
	par := run(8)
	if par >= seq {
		t.Fatalf("no speedup: width1=%v width8=%v", seq, par)
	}
}

func TestDynSetFallbackCacheServesDisconnected(t *testing.T) {
	w := newTestWorld(t, 6)
	ctx := context.Background()
	cache := repo.NewCache(16)
	w.c.Client.UseCache(cache)

	// First pass warms the cache.
	ds, err := OpenDyn(ctx, w.c.Client, cluster.DirNode, "set", DynOptions{Width: 3})
	if err != nil {
		t.Fatal(err)
	}
	got := collectDyn(t, ds, 100)
	_ = ds.Close(ctx)
	if len(got) != 6 || cache.Len() != 6 {
		t.Fatalf("warmup yielded %d, cached %d", len(got), cache.Len())
	}

	// Disconnect a storage node; the second pass still yields everything,
	// with the disconnected node's elements marked stale.
	w.c.Net.Isolate(w.c.Storage[0])
	ds2, err := OpenDyn(ctx, w.c.Client, cluster.DirNode, "set", DynOptions{Width: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close(context.Background())
	staleCount, freshCount := 0, 0
	ctx2, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	for ds2.Next(ctx2) {
		if ds2.Element().Stale {
			staleCount++
			if ds2.Element().Ref.Node != w.c.Storage[0] {
				t.Fatalf("stale element from reachable node: %v", ds2.Element().Ref)
			}
		} else {
			freshCount++
		}
	}
	if staleCount != 2 || freshCount != 4 {
		t.Fatalf("stale=%d fresh=%d, want 2/4", staleCount, freshCount)
	}
	if len(ds2.Skipped()) != 0 {
		t.Fatalf("skipped = %v, cache should have answered", ds2.Skipped())
	}
	if st := cache.Stats(); st.StaleServes != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDynSetFallbackCacheColdMissStillSkips(t *testing.T) {
	w := newTestWorld(t, 4)
	w.c.Net.Isolate(w.c.Storage[0])
	w.c.Client.UseCache(repo.NewCache(8)) // cold: nothing to serve
	ds, err := OpenDyn(context.Background(), w.c.Client, cluster.DirNode, "set", DynOptions{Width: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close(context.Background())
	got := collectDyn(t, ds, 100)
	if len(got) != 3 {
		t.Fatalf("yielded %d, want 3", len(got))
	}
	if len(ds.Skipped()) != 1 {
		t.Fatalf("skipped = %v", ds.Skipped())
	}
}

// TestDynSetBatchOneIsOneIDPerRoundTrip pins the one element path at its
// smallest batch: Batch: 1 is a one-id GetBatch per member — the same
// round trips the per-member Get path cost — and never a repo.Get.
func TestDynSetBatchOneIsOneIDPerRoundTrip(t *testing.T) {
	w := newTestWorld(t, 10)
	ctx := context.Background()
	w.c.Bus.ResetStats()
	ds, err := OpenDyn(ctx, w.c.Client, cluster.DirNode, "set", DynOptions{Width: 3, Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := collectDyn(t, ds, 100)
	_ = ds.Close(ctx)
	if len(got) != 10 {
		t.Fatalf("yielded %d, want 10", len(got))
	}
	if gets, batches := w.c.Bus.MethodCalls(repo.MethodGet), w.c.Bus.MethodCalls(repo.MethodGetBatch); gets != 0 || batches != 10 {
		t.Fatalf("%d Get and %d GetBatch calls, want 0 and 10", gets, batches)
	}
}

// TestDynSetFallbackAccountsFailedChunk isolates a node holding two
// members with the cache holding one of the two: the run reads the
// failure detector before it fetches, so no round trip is attempted (no
// fetch failure), and each member is a stale serve or a miss of its own.
func TestDynSetFallbackAccountsFailedChunk(t *testing.T) {
	w := newTestWorld(t, 8)
	ctx := context.Background()
	cache := repo.NewCache(16)
	cache.Put(repo.Object{ID: w.refs[0].ID, Data: []byte("cached")})
	w.c.Client.UseCache(cache)
	w.c.Net.Isolate(w.c.Storage[0]) // holds e000 (cached) and e004 (not)

	ds, err := OpenDyn(ctx, w.c.Client, cluster.DirNode, "set", DynOptions{Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	got := collectDyn(t, ds, 100)
	_ = ds.Close(ctx)
	stale := 0
	for _, e := range got {
		if e.Stale {
			stale++
			if e.Ref.ID != w.refs[0].ID || string(e.Data) != "cached" {
				t.Fatalf("stale element %s = %q", e.Ref.ID, e.Data)
			}
		}
	}
	if len(got) != 7 || stale != 1 {
		t.Fatalf("yielded %d elements, %d stale; want 7 and 1", len(got), stale)
	}
	if sk := ds.Skipped(); len(sk) != 1 || sk[0].ID != w.refs[4].ID {
		t.Fatalf("skipped = %v, want the uncached member of the failed chunk", sk)
	}
	if wk := ds.Weakness(); wk.FetchFailures != 0 || wk.GhostsServed != 1 || wk.UnreachableSkipped != 1 {
		t.Fatalf("weakness = %+v, want no fetch failure, one ghost and one skipped", wk)
	}
	if st := cache.Stats(); st.StaleServes != 1 || st.Misses != 1 {
		t.Fatalf("cache stats = %+v, want one stale serve and one miss", st)
	}
	if cache.Len() != 7 {
		t.Fatalf("cache holds %d entries, want the 6 fetched plus the seeded one", cache.Len())
	}
}

// TestDynSetFallbackDoesNotResurrectDeleted deletes a cached member's
// data at its (reachable) owner: the owner's "missing" is an answer, not
// a failure, so the cache must not mask the deletion — the member, still
// listed, arrives as the stale identity every snapshot-governed run
// yields for missing data (Fig. 4), with no data.
func TestDynSetFallbackDoesNotResurrectDeleted(t *testing.T) {
	w := newTestWorld(t, 4)
	ctx := context.Background()
	cache := repo.NewCache(8)
	w.c.Client.UseCache(cache)
	run := func() []Element {
		t.Helper()
		ds, err := OpenDyn(ctx, w.c.Client, cluster.DirNode, "set", DynOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close(context.Background())
		return collectDyn(t, ds, 100)
	}
	if got := run(); len(got) != 4 || cache.Len() != 4 {
		t.Fatalf("warmup yielded %d, cached %d", len(got), cache.Len())
	}
	if err := w.c.Client.Delete(ctx, w.refs[1]); err != nil {
		t.Fatal(err)
	}
	got := run()
	if len(got) != 4 {
		t.Fatalf("yielded %v, want the 3 surviving members and the deleted one's identity", elementIDs(got))
	}
	for _, e := range got {
		if deleted := e.Ref.ID == w.refs[1].ID; deleted != e.Stale || deleted && e.Data != nil {
			t.Fatalf("deleted member came back: %+v", e)
		}
	}
	if st := cache.Stats(); st.StaleServes != 0 || st.Misses != 0 {
		t.Fatalf("cache stats = %+v: a reachable owner is no fallback", st)
	}
}

// TestDynSetFallbackStress shares one client's cache among concurrent
// dynamic sets across a connect → partition → heal cycle (under -race in
// `make race`): while an owner is unreachable every member it holds is
// answered stale or counted a miss, never both, never neither.
func TestDynSetFallbackStress(t *testing.T) {
	const (
		members  = 24
		capacity = 16 // smaller than members: some entries must evict
		readers  = 6
	)
	w := newTestWorld(t, members)
	ctx := context.Background()
	cache := repo.NewCache(capacity)
	w.c.Client.UseCache(cache)
	// phase runs the readers concurrently and totals what they saw.
	phase := func() (yielded, stale, skipped, failures int64) {
		var mu sync.Mutex
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				ds, err := OpenDyn(ctx, w.c.Client, cluster.DirNode, "set", DynOptions{Width: 3, Batch: 1 + r%3})
				if err != nil {
					t.Error(err)
					return
				}
				n, st := int64(0), int64(0)
				for ds.Next(ctx) {
					n++
					if ds.Element().Stale {
						st++
					}
				}
				_ = ds.Close(ctx)
				mu.Lock()
				defer mu.Unlock()
				yielded, stale = yielded+n, stale+st
				skipped += int64(len(ds.Skipped()))
				failures += ds.Weakness().FetchFailures
			}(r)
		}
		wg.Wait()
		return
	}

	if yielded, stale, skipped, failures := phase(); yielded != readers*members || stale+skipped+failures != 0 {
		t.Fatalf("connected: yielded %d stale %d skipped %d failures %d", yielded, stale, skipped, failures)
	}
	warm := cache.Stats()
	if warm.StaleServes != 0 || warm.Misses != 0 || cache.Len() != capacity {
		t.Fatalf("connected phase: len %d, stats %+v", cache.Len(), warm)
	}

	w.c.Net.Isolate(w.c.Storage[0]) // a quarter of the members
	yielded, stale, skipped, failures := phase()
	part := cache.Stats()
	if yielded+skipped != readers*members {
		t.Fatalf("partitioned: %d yielded + %d skipped, want every member of every run accounted", yielded, skipped)
	}
	if part.StaleServes-warm.StaleServes != stale || part.Misses-warm.Misses != skipped {
		t.Fatalf("partitioned: cache counted %d stale serves and %d misses, readers saw %d and %d",
			part.StaleServes, part.Misses, stale, skipped)
	}
	// Each run reads the failure detector before it fetches, so the
	// isolated owner costs no failed round trip.
	if stale+skipped != readers*members/4 || failures != 0 {
		t.Fatalf("partitioned: %d stale + %d skipped over %d failed round trips, want %d unreachable members and no failure",
			stale, skipped, failures, readers*members/4)
	}

	w.c.Net.Heal()
	if yielded, stale, skipped, failures := phase(); yielded != readers*members || stale+skipped+failures != 0 {
		t.Fatalf("healed: yielded %d stale %d skipped %d failures %d", yielded, stale, skipped, failures)
	}
	if healed := cache.Stats(); healed.StaleServes != part.StaleServes || healed.Misses != part.Misses {
		t.Fatalf("healed fetches counted as failures: %+v", healed)
	}
}
