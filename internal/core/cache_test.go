package core

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"weaksets/internal/cluster"
	"weaksets/internal/netsim"
	"weaksets/internal/obs"
	"weaksets/internal/repo"
	"weaksets/internal/rpc"
	"weaksets/internal/store"
)

// batchTotals sums the engine batch counters across every storage node —
// the server-side view of what conditional fetching actually shipped.
func batchTotals(c *cluster.Cluster) store.BatchStats {
	var tot store.BatchStats
	for _, srv := range c.Servers {
		b := srv.Store().Stats().Batch
		tot.BatchedGets += b.BatchedGets
		tot.NotModified += b.NotModified
		tot.BytesShipped += b.BytesShipped
		tot.BytesSaved += b.BytesSaved
	}
	return tot
}

// TestSnapshotWarmRunServesWithoutRPC is the tentpole's headline property:
// a snapshot run whose pinned listing version matches the cache stamps
// serves every element with no fetch RPC at all.
func TestSnapshotWarmRunServesWithoutRPC(t *testing.T) {
	w := newTestWorld(t, 12)
	ctx := context.Background()
	cache := repo.NewCache(64)
	w.c.Client.UseCache(cache)
	reg := obs.NewRegistry()
	s := w.set(t, Options{Semantics: Snapshot, Weakness: reg})

	cold, err := s.Collect(ctx)
	if err != nil || len(cold) != 12 {
		t.Fatalf("cold run: %d elems, %v", len(cold), err)
	}

	gets := w.c.Bus.MethodCalls(repo.MethodGet)
	batches := w.c.Bus.MethodCalls(repo.MethodGetBatch)
	warm, err := s.Collect(ctx)
	if err != nil || len(warm) != 12 {
		t.Fatalf("warm run: %d elems, %v", len(warm), err)
	}
	for _, e := range warm {
		if len(e.Data) == 0 || e.Stale {
			t.Fatalf("warm element %s served without data", e.Ref.ID)
		}
	}
	if d := w.c.Bus.MethodCalls(repo.MethodGetBatch) - batches; d != 0 {
		t.Fatalf("warm snapshot run issued %d GetBatch RPCs", d)
	}
	if d := w.c.Bus.MethodCalls(repo.MethodGet) - gets; d != 0 {
		t.Fatalf("warm snapshot run issued %d Get RPCs", d)
	}
	rep, ok := reg.Last("set")
	if !ok || rep.CacheHits != 12 {
		t.Fatalf("weakness report: ok=%v cacheHits=%d, want 12", ok, rep.CacheHits)
	}

	// What a warm run yields is the cache's own, not a copy per serve: a
	// second warm run's Data is the same bytes in the same array. That
	// sharing is why Element.Data and Attrs are read-only.
	again, err := s.Collect(ctx)
	if err != nil || len(again) != 12 {
		t.Fatalf("second warm run: %d elems, %v", len(again), err)
	}
	for i, e := range warm {
		if again[i].Ref != e.Ref || !bytes.Equal(again[i].Data, e.Data) || &again[i].Data[0] != &e.Data[0] {
			t.Fatalf("%s: two warm runs yielded %q and %q, in different arrays or not the same bytes", e.Ref.ID, e.Data, again[i].Data)
		}
	}
}

// TestWarmRunsServeAtYield holds the warm read path to serve-at-yield: a
// warm snapshot run and lease-served GrowOnly and Optimistic runs (the
// semantics of the benchmark's cur_leased_1k and cur_churn_500) hand out
// every element from the cache when Next asks for it, by position —
// never a replan, never a chunk created. The snapshot run opens on the
// set's held pinned listing, which its table aliases rather than copies,
// and on the in-process bus it must leave the store's shared pin exactly
// as the store holds it.
func TestWarmRunsServeAtYield(t *testing.T) {
	ctx := context.Background()
	const n = 300
	for _, tc := range []struct {
		sem    Semantics
		leased bool
	}{{Snapshot, false}, {GrowOnly, true}, {Optimistic, true}} {
		w := newTestWorld(t, n)
		var ls *repo.LeaseState
		if tc.leased {
			ls = leaseWorld(t, w)
		}
		w.c.Client.UseCache(repo.NewCache(2 * n))
		s := w.set(t, Options{Semantics: tc.sem})
		for i := 0; i < 2; i++ { // fill the cache, publish the listing, land the grant
			if _, err := s.Collect(ctx); err != nil {
				t.Fatal(err)
			}
		}
		if tc.leased {
			awaitLease(t, w, ls)
		}

		it, err := s.Elements(ctx)
		if err != nil {
			t.Fatal(err)
		}
		st := w.c.Servers[cluster.DirNode].Store()
		var pin, pinCopy [][]repo.Ref
		if it.pin != 0 {
			if pin, _, err = st.ListPinned("set", it.pin); err != nil {
				t.Fatal(err)
			}
			for _, part := range pin {
				pinCopy = append(pinCopy, slices.Clone(part))
			}
		}
		yielded := 0
		for it.Next(ctx) {
			if len(it.Element().Data) == 0 {
				t.Fatalf("%s: %s yielded without data", tc.sem, it.Element().ID())
			}
			yielded++
		}
		wk := it.Weakness()
		it.pf.mu.Lock()
		plans, chunks := it.pf.plans, cap(it.pf.live)
		it.pf.mu.Unlock()
		if it.Err() != nil || yielded != n || wk.CacheHits != n || tc.leased && wk.LeaseServed != n+1 {
			t.Fatalf("%s: yielded %d, %d cache hits, %d lease-served invocations, err %v", tc.sem, yielded, wk.CacheHits, wk.LeaseServed, it.Err())
		}
		if plans != 0 || chunks != 0 {
			t.Fatalf("%s: a warm run planned %d times and made room for %d chunks; want 0, 0", tc.sem, plans, chunks)
		}
		if pin != nil {
			after, _, err := st.ListPinned("set", it.pin)
			if err != nil || &after[0] != &pin[0] || !slices.EqualFunc(after, pinCopy, slices.Equal) {
				t.Fatalf("the run moved or wrote the store's pin (err %v)", err)
			}
			held := s.lastPinned.Load()
			if held == nil || len(it.tab.parts) != len(held.parts) {
				t.Fatal("the run table is not the set's held pinned listing")
			}
			for p := range held.parts {
				if !sameRefs(it.tab.parts[p], held.parts[p]) {
					t.Fatalf("the run table's partition %d is not the set's held pinned listing's", p)
				}
			}
		}
		_ = it.Close(ctx)
	}
}

// TestPartlyEvictedWarmRunFetchesOnlyTheEvicted: a snapshot run over a
// warm cache that lost k entries serves the other n−k at yield and plans
// once, fetching exactly the k evicted ids — all held on one node — in
// ⌈k/64⌉ GetBatch calls.
func TestPartlyEvictedWarmRunFetchesOnlyTheEvicted(t *testing.T) {
	ctx := context.Background()
	const n, k = 600, 70
	w := newTestWorld(t, n)
	cache := repo.NewCache(2 * n)
	w.c.Client.UseCache(cache)
	s := w.set(t, Options{Semantics: Snapshot})
	if _, err := s.Collect(ctx); err != nil {
		t.Fatal(err)
	}
	var evictedBytes int64
	for i := 0; i < k*len(w.c.Storage); i += len(w.c.Storage) { // members 0, 4, 8, … live on s0
		cache.Drop(w.refs[i].ID)
		evictedBytes += int64(len(fmt.Sprintf("data-%d", i)))
	}

	it, err := s.Elements(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close(ctx)
	// The run opens on the set's held pinned listing; were it streaming,
	// fold the whole opening listing first, so one plan sees every member.
	for it.ingestActive() {
		if err := it.drainIngest(); err != nil {
			t.Fatal(err)
		}
		if !it.ingDone {
			<-it.ing.notify
		}
	}
	before, batches := batchTotals(w.c), w.c.Bus.MethodCalls(repo.MethodGetBatch)
	yielded := 0
	for it.Next(ctx) {
		yielded++
	}
	after, wk := batchTotals(w.c), it.Weakness()
	if it.Err() != nil || yielded != n || wk.CacheHits != n-k {
		t.Fatalf("yielded %d, %d cache hits, err %v; want %d, %d, nil", yielded, wk.CacheHits, it.Err(), n, n-k)
	}
	if got, want := w.c.Bus.MethodCalls(repo.MethodGetBatch)-batches, int64((k+63)/64); got != want || it.pf.plans != 1 {
		t.Fatalf("%d GetBatch calls from %d plans, want %d from 1", got, it.pf.plans, want)
	}
	if ids, shipped := after.BatchedGets-before.BatchedGets, after.BytesShipped-before.BytesShipped; ids != k || shipped != evictedBytes {
		t.Fatalf("fetched %d ids and %d payload bytes, want the %d evicted ones' %d", ids, shipped, k, evictedBytes)
	}
}

// TestFreshBetweenServeAndPlanYieldsData: a ref that turns fresh in the
// shared cache after fetch's serve check — another run's batch landed —
// is left out of the plan, and must then be served with its data, not
// reported as an empty object with a nil error as if the pipeline had
// closed.
func TestFreshBetweenServeAndPlanYieldsData(t *testing.T) {
	ctx := context.Background()
	w := newTestWorld(t, 1)
	cache := repo.NewCache(8)
	w.c.Client.UseCache(cache)
	s := w.set(t, Options{Semantics: Snapshot})
	p := newPrefetcher(ctx, w.c.Client, "set", s.router, &replicaTally{}, s.opts.Fetch, nil)
	defer p.close()
	ref, batches := w.refs[0], w.c.Bus.MethodCalls(repo.MethodGetBatch)
	got, obj, err := p.fetch(ctx, member{Ref: ref}, &listing{vers: []uint64{5}}, true, func() ([]member, bool) {
		// Called between the serve check and the plan.
		cache.PutValidated("set", 5, repo.Object{ID: ref.ID, Version: 1, Data: []byte("landed")})
		return []member{{Ref: ref}}, false
	}, acceptNone)
	if err != nil || got.Ref != ref || string(obj.Data) != "landed" {
		t.Fatalf("fetched %v, %v; want the landed entry", obj, err)
	}
	if d := w.c.Bus.MethodCalls(repo.MethodGetBatch) - batches; d != 0 || p.plans != 1 || p.cacheHits != 1 {
		t.Fatalf("%d GetBatch calls, %d plans, %d cache hits; want 0, 1, 1", d, p.plans, p.cacheHits)
	}
}

// TestCurrentStateRunValidatesWithoutPayload checks the conditional-fetch
// half: a current-state (grow-only) run over an unchanged set still takes
// the validation round trips but the servers ship no object payload —
// every entry answers NotModified.
func TestCurrentStateRunValidatesWithoutPayload(t *testing.T) {
	w := newTestWorld(t, 12)
	ctx := context.Background()
	cache := repo.NewCache(64)
	w.c.Client.UseCache(cache)
	reg := obs.NewRegistry()
	s := w.set(t, Options{Semantics: GrowOnly, Weakness: reg})

	if cold, err := s.Collect(ctx); err != nil || len(cold) != 12 {
		t.Fatalf("cold run: %d elems, %v", len(cold), err)
	}

	before := batchTotals(w.c)
	batches := w.c.Bus.MethodCalls(repo.MethodGetBatch)
	warm, err := s.Collect(ctx)
	if err != nil || len(warm) != 12 {
		t.Fatalf("warm run: %d elems, %v", len(warm), err)
	}
	if d := w.c.Bus.MethodCalls(repo.MethodGetBatch) - batches; d == 0 {
		t.Fatal("current-state run served without revalidating")
	}
	after := batchTotals(w.c)
	if d := after.NotModified - before.NotModified; d != 12 {
		t.Fatalf("NotModified delta = %d, want 12", d)
	}
	if d := after.BytesShipped - before.BytesShipped; d != 0 {
		t.Fatalf("unchanged set shipped %d payload bytes", d)
	}
	if after.BytesSaved == before.BytesSaved {
		t.Fatal("servers recorded no bytes saved")
	}
	rep, ok := reg.Last("set")
	if !ok || rep.CacheValidatedHits != 12 || rep.CacheHits != 0 {
		t.Fatalf("weakness report: ok=%v validated=%d direct=%d", ok, rep.CacheValidatedHits, rep.CacheHits)
	}
}

// readRPCs sums every RPC a membership-or-element read could cost: the
// lease acceptance bar is that a warm current-state run issues none.
func readRPCs(c *cluster.Cluster) int64 {
	return c.Bus.MethodCalls(repo.MethodListParts) +
		c.Bus.MethodCalls(repo.MethodGet) +
		c.Bus.MethodCalls(repo.MethodGetBatch)
}

// TestLeaseHeldCurrentStateRunZeroRPC is the lease tentpole's headline
// property: with a lease held and the caches warm, a current-state
// (grow-only) run over a quiescent set costs zero RPCs — no ListParts, no
// GetBatch, nothing — because the server promised to push any change.
// Losing the lease degrades the same run back to conditional
// revalidation, never to silent staleness.
func TestLeaseHeldCurrentStateRunZeroRPC(t *testing.T) {
	w := newTestWorld(t, 12)
	ctx := context.Background()
	cache := repo.NewCache(64)
	w.c.Client.UseCache(cache)
	ls := repo.NewLeaseState(w.c.Client, cluster.DirNode, "set")
	if err := ls.Start(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ls.Stop)
	w.c.Client.UseLeases(ls)
	reg := obs.NewRegistry()
	s := w.set(t, Options{Semantics: GrowOnly, Weakness: reg})

	if cold, err := s.Collect(ctx); err != nil || len(cold) != 12 {
		t.Fatalf("cold run: %d elems, %v", len(cold), err)
	}

	before := readRPCs(w.c)
	warm, err := s.Collect(ctx)
	if err != nil || len(warm) != 12 {
		t.Fatalf("warm run: %d elems, %v", len(warm), err)
	}
	for _, e := range warm {
		if len(e.Data) == 0 || e.Stale {
			t.Fatalf("warm element %s served without data", e.Ref.ID)
		}
	}
	if d := readRPCs(w.c) - before; d != 0 {
		t.Fatalf("lease-held warm run issued %d read RPCs, want 0", d)
	}
	rep, ok := reg.Last("set")
	if !ok || rep.LeaseServed == 0 {
		t.Fatalf("weakness report: ok=%v leaseServed=%d, want > 0", ok, rep.LeaseServed)
	}
	if rep.LeaseAge < 0 {
		t.Fatalf("lease age = %v", rep.LeaseAge)
	}

	// A write invalidates by push: once the bump lands, the next run
	// falls back to one gated ListParts (the degradation ladder's middle
	// rung), fetches only the new member, and then resumes serving
	// RPC-free.
	v0, _, ok := ls.Serveable("set")
	if !ok {
		t.Fatal("lease not serveable after warm run")
	}
	w.addElement(t, 100)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, _, ok := ls.Serveable("set"); ok && v > v0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pushed invalidation never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	lists := w.c.Bus.MethodCalls(repo.MethodListParts)
	if moved, err := s.Collect(ctx); err != nil || len(moved) != 13 {
		t.Fatalf("post-write run: %d elems, %v", len(moved), err)
	}
	if d := w.c.Bus.MethodCalls(repo.MethodListParts) - lists; d != 1 {
		t.Fatalf("post-write run issued %d ListParts RPCs, want exactly 1", d)
	}
	before = readRPCs(w.c)
	if again, err := s.Collect(ctx); err != nil || len(again) != 13 {
		t.Fatalf("re-warm run: %d elems, %v", len(again), err)
	}
	if d := readRPCs(w.c) - before; d != 0 {
		t.Fatalf("re-warm lease-held run issued %d read RPCs, want 0", d)
	}

	// Lease loss: the same warm run degrades to conditional revalidation
	// — a version-gated ListParts plus NotModified batch validation, the
	// leaseless path's numbers — not to serving unverified cache entries.
	ls.Stop()
	before = batchTotals(w.c).NotModified
	lists = w.c.Bus.MethodCalls(repo.MethodListParts)
	batches := w.c.Bus.MethodCalls(repo.MethodGetBatch)
	if lost, err := s.Collect(ctx); err != nil || len(lost) != 13 {
		t.Fatalf("leaseless run: %d elems, %v", len(lost), err)
	}
	if d := w.c.Bus.MethodCalls(repo.MethodListParts) - lists; d == 0 {
		t.Fatal("leaseless run never revalidated the listing")
	}
	if d := w.c.Bus.MethodCalls(repo.MethodGetBatch) - batches; d == 0 {
		t.Fatal("leaseless run served elements without revalidating")
	}
	if d := batchTotals(w.c).NotModified - before; d != 13 {
		t.Fatalf("NotModified delta = %d, want 13", d)
	}
}

// listingTap is node "dir-tap", a relay in front of the directory for the
// listing, pin and lease methods, which notes every ListParts frame it
// relays. afterPin, when set, runs once after a pin has been taken and
// before its answer is relayed.
type listingTap struct {
	mu       sync.Mutex
	frames   []repo.PartListing
	afterPin func()
}

func (tap *listingTap) take() []repo.PartListing {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	out := tap.frames
	tap.frames = nil
	return out
}

// tappedStream relays a stream, noting its listing frames.
type tappedStream struct {
	rpc.Streamer
	tap *listingTap
}

func (s tappedStream) Next() (any, bool) {
	chunk, ok := s.Streamer.Next()
	if pl, isFrame := chunk.(repo.PartListing); ok && isFrame {
		s.tap.mu.Lock()
		s.tap.frames = append(s.tap.frames, pl)
		s.tap.mu.Unlock()
	}
	return chunk, ok
}

func newListingTap(t *testing.T, c *cluster.Cluster) (netsim.NodeID, *listingTap) {
	t.Helper()
	const node = netsim.NodeID("dir-tap")
	c.Net.AddNode(node)
	tap := &listingTap{}
	srv := rpc.NewServer(node)
	for _, method := range []string{repo.MethodListParts, repo.MethodPin, repo.MethodUnpin, repo.MethodLease, repo.MethodWatch} {
		srv.Handle(method, func(ctx context.Context, _ netsim.NodeID, req any) (any, error) {
			out, _, err := c.Bus.Call(ctx, node, cluster.DirNode, method, req)
			if st, ok := out.(rpc.Streamer); ok && method == repo.MethodListParts {
				out = tappedStream{Streamer: st, tap: tap}
			}
			if method == repo.MethodPin {
				tap.mu.Lock()
				hook := tap.afterPin
				tap.afterPin = nil
				tap.mu.Unlock()
				if hook != nil {
					hook()
				}
			}
			return out, err
		})
	}
	if err := c.Bus.Register(srv); err != nil {
		t.Fatal(err)
	}
	return node, tap
}

// TestCurrentStateRelistShipsMovedPartition holds what a write costs a
// leased current-state reader: after one Add to a 512-member collection,
// the run's one relist carries exactly the partition the Add moved — its
// members, no other partition's — and the run yields the new member.
func TestCurrentStateRelistShipsMovedPartition(t *testing.T) {
	w := newTestWorld(t, 512)
	ctx := context.Background()
	dir, tap := newListingTap(t, w.c)
	w.c.Client.UseCache(repo.NewCache(1024))
	ls := repo.NewLeaseState(w.c.Client, dir, "set")
	if err := ls.Start(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ls.Stop)
	w.c.Client.UseLeases(ls)
	s, err := NewSet(w.c.Client, dir, "set", Options{Semantics: GrowOnly})
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ { // cold, then lease-served
		if elems, err := s.Collect(ctx); err != nil || len(elems) != 512 {
			t.Fatalf("run %d: %d elems, %v", run, len(elems), err)
		}
	}
	if frames := tap.take(); len(frames) != store.DefaultPartitions {
		t.Fatalf("cold and warm runs relayed %d frames, want one listing of %d partitions", len(frames), store.DefaultPartitions)
	}

	v0, _, _ := ls.Serveable("set")
	added := w.addElement(t, 512)
	deadline := time.Now().Add(5 * time.Second)
	for v, _, ok := ls.Serveable("set"); !ok || v <= v0; v, _, ok = ls.Serveable("set") {
		if time.Now().After(deadline) {
			t.Fatal("pushed invalidation never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	elems, err := s.Collect(ctx)
	if err != nil || len(elems) != 513 {
		t.Fatalf("post-write run: %d elems, %v", len(elems), err)
	}
	frames := tap.take()
	if len(frames) != 1 {
		t.Fatalf("post-write relist shipped %d frames, want the one moved partition", len(frames))
	}
	var want []repo.Ref
	if err := w.c.Client.ListPartsSubset(ctx, cluster.DirNode, "set", 0, nil, []int{frames[0].Part}, func(pl repo.PartListing) error {
		want = pl.Members
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(frames[0].Members, want) || !slices.Contains(want, added) {
		t.Fatalf("relist carried %d refs of partition %d; the partition holds %d, the added member among them: %v",
			len(frames[0].Members), frames[0].Part, len(want), slices.Contains(want, added))
	}
	if len(want) >= 513/4 {
		t.Fatalf("partition %d holds %d of 513 members: not a partition-sized relist", frames[0].Part, len(want))
	}
}

// batchTap is a storage node's stand-in that relays its object methods
// to the real node and notes the ids of every GetBatch it relays.
type batchTap struct {
	mu  sync.Mutex
	ids []repo.ObjectID
}

func (tap *batchTap) take() []repo.ObjectID {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	out := tap.ids
	tap.ids = nil
	return out
}

func newBatchTap(t *testing.T, c *cluster.Cluster, storage netsim.NodeID) (netsim.NodeID, *batchTap) {
	t.Helper()
	node := storage + "-tap"
	c.Net.AddNode(node)
	tap := &batchTap{}
	srv := rpc.NewServer(node)
	for _, method := range []string{repo.MethodPut, repo.MethodGet, repo.MethodGetBatch} {
		srv.Handle(method, func(ctx context.Context, _ netsim.NodeID, req any) (any, error) {
			if r, ok := req.(repo.GetBatchReq); ok {
				tap.mu.Lock()
				for _, id := range r.IDs {
					tap.ids = append(tap.ids, repo.ObjectID(strings.Clone(string(id))))
				}
				tap.mu.Unlock()
			}
			out, _, err := c.Bus.Call(ctx, node, storage, method, req)
			return out, err
		})
	}
	if err := c.Bus.Register(srv); err != nil {
		t.Fatal(err)
	}
	return node, tap
}

// TestChurnRevalidatesOnlyTheMovedPartition holds what a write costs a
// leased current-state reader's element cache: after one Add to a warm,
// 500-member collection of 16 partitions, the next run re-reads the one
// partition the Add moved, and every id its batches carry is a member of
// that partition — the other fifteen partitions' entries are fresh under
// versions that did not move, and the lease that certifies the re-read
// listing certifies them too. Were entries stamped with the collection's
// version, every one would go stale with the write and the run would
// revalidate all 501.
func TestChurnRevalidatesOnlyTheMovedPartition(t *testing.T) {
	const n = 500
	c, err := cluster.New(cluster.Config{StorageNodes: 1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ctx := context.Background()
	if err := c.Client.CreateCollection(ctx, cluster.DirNode, "set"); err != nil {
		t.Fatal(err)
	}
	node, tap := newBatchTap(t, c, c.StorageFor(0))
	add := func(i int) repo.Ref {
		t.Helper()
		ref, err := c.Client.Put(ctx, node, repo.Object{ID: repo.ObjectID(fmt.Sprintf("e%03d", i)), Data: []byte(fmt.Sprintf("data-%d", i))})
		if err == nil {
			err = c.Client.Add(ctx, cluster.DirNode, "set", ref)
		}
		if err != nil {
			t.Fatal(err)
		}
		return ref
	}
	for i := 0; i < n; i++ {
		add(i)
	}
	if parts, err := c.Servers[cluster.DirNode].Store().Partitions("set"); err != nil || parts != 16 {
		t.Fatalf("collection laid out in %d partitions (%v), want 16", parts, err)
	}
	w := &testWorld{c: c}
	ls := leaseWorld(t, w)
	c.Client.UseCache(repo.NewCache(2 * n))
	s := w.set(t, Options{Semantics: GrowOnly})
	for run := 0; run < 2; run++ { // cold, then warm
		if elems, err := s.Collect(ctx); err != nil || len(elems) != n {
			t.Fatalf("run %d: %d elems, %v", run, len(elems), err)
		}
	}
	awaitLease(t, w, ls)
	tap.take()

	v0, _, _ := ls.Serveable("set")
	added := add(n)
	deadline := time.Now().Add(5 * time.Second)
	for v, _, ok := ls.Serveable("set"); !ok || v <= v0; v, _, ok = ls.Serveable("set") {
		if time.Now().After(deadline) {
			t.Fatal("pushed invalidation never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	if elems, err := s.Collect(ctx); err != nil || len(elems) != n+1 {
		t.Fatalf("post-write run: %d elems, %v", len(elems), err)
	}
	moved := store.PartOf(added.ID, 16)
	ids := tap.take()
	if !slices.Contains(ids, added.ID) {
		t.Fatalf("the post-write run's batches carried %d ids, not the added member's", len(ids))
	}
	for _, id := range ids {
		if p := store.PartOf(id, 16); p != moved {
			t.Fatalf("the post-write run batched %q of partition %d among %d ids; the write moved partition %d only", id, p, len(ids), moved)
		}
	}
	t.Logf("the post-write run batched %d ids of partition %d, of %d members", len(ids), moved, n+1)
}

// TestCacheCoherenceAcrossMutations interleaves a remote mutation between
// two validated runs: the changed object must be re-shipped and yielded
// fresh, the untouched ones still answer NotModified.
func TestCacheCoherenceAcrossMutations(t *testing.T) {
	w := newTestWorld(t, 8)
	ctx := context.Background()
	cache := repo.NewCache(64)
	w.c.Client.UseCache(cache)
	s := w.set(t, Options{Semantics: GrowOnly})

	if cold, err := s.Collect(ctx); err != nil || len(cold) != 8 {
		t.Fatalf("cold run: %d elems, %v", len(cold), err)
	}

	// A different client (no cache attached) overwrites one member, so the
	// owner's version moves behind our cache's back.
	victim := w.refs[3]
	mutator := w.c.ClientAt(victim.Node)
	if _, err := mutator.Put(ctx, victim.Node, repo.Object{ID: victim.ID, Data: []byte("mutated")}); err != nil {
		t.Fatal(err)
	}

	before := batchTotals(w.c)
	warm, err := s.Collect(ctx)
	if err != nil || len(warm) != 8 {
		t.Fatalf("warm run: %d elems, %v", len(warm), err)
	}
	var got string
	for _, e := range warm {
		if e.Ref.ID == victim.ID {
			got = string(e.Data)
		}
	}
	if got != "mutated" {
		t.Fatalf("mutated member yielded %q from cache", got)
	}
	after := batchTotals(w.c)
	if d := after.NotModified - before.NotModified; d != 7 {
		t.Fatalf("NotModified delta = %d, want 7", d)
	}
	if d := after.BytesShipped - before.BytesShipped; d != int64(len("mutated")) {
		t.Fatalf("BytesShipped delta = %d, want %d", d, len("mutated"))
	}

	// The validated copy now in cache must serve the new data.
	if obj, ok := cache.Get(victim.ID); !ok || string(obj.Data) != "mutated" {
		t.Fatalf("cache holds %q after validation", obj.Data)
	}
}

// TestNegativeCacheUntilListingMoves pins the ghost rule: a member whose
// data is missing costs one round trip, then answers from the negative
// entry until the listing version moves, at which point it revalidates.
func TestNegativeCacheUntilListingMoves(t *testing.T) {
	w := newTestWorld(t, 4)
	ctx := context.Background()
	cache := repo.NewCache(64)
	w.c.Client.UseCache(cache)
	s := w.set(t, Options{Semantics: Snapshot})

	// Membership lists an object that was never stored.
	phantom := repo.Ref{ID: "phantom", Node: w.c.StorageFor(0)}
	if err := w.c.Client.Add(ctx, cluster.DirNode, "set", phantom); err != nil {
		t.Fatal(err)
	}

	stales := func(es []Element) int {
		n := 0
		for _, e := range es {
			if e.Stale {
				n++
			}
		}
		return n
	}

	cold, err := s.Collect(ctx)
	if err != nil || len(cold) != 5 || stales(cold) != 1 {
		t.Fatalf("cold run: %d elems (%d stale), %v", len(cold), stales(cold), err)
	}

	gets := w.c.Bus.MethodCalls(repo.MethodGet)
	batches := w.c.Bus.MethodCalls(repo.MethodGetBatch)
	warm, err := s.Collect(ctx)
	if err != nil || len(warm) != 5 || stales(warm) != 1 {
		t.Fatalf("warm run: %d elems (%d stale), %v", len(warm), stales(warm), err)
	}
	if d := (w.c.Bus.MethodCalls(repo.MethodGetBatch) - batches) +
		(w.c.Bus.MethodCalls(repo.MethodGet) - gets); d != 0 {
		t.Fatalf("warm run with a negative entry issued %d fetch RPCs", d)
	}
	if st := cache.Stats(); st.NegativeHits == 0 {
		t.Fatalf("missing member not served negatively: %+v", st)
	}

	// A membership change moves the listing version: the stamps are now
	// behind the pin, so the next run revalidates.
	w.addElement(t, 100)
	moved, err := s.Collect(ctx)
	if err != nil || len(moved) != 6 || stales(moved) != 1 {
		t.Fatalf("post-move run: %d elems (%d stale), %v", len(moved), stales(moved), err)
	}
	if d := w.c.Bus.MethodCalls(repo.MethodGetBatch) - batches; d == 0 {
		t.Fatal("listing moved but the run never revalidated")
	}

	// Stamps are per partition: a member added to another partition than
	// the phantom's leaves its negative entry serving — the run fetches the
	// new member alone — and one added to the phantom's own partition
	// makes the run ask the owner again.
	home := store.PartOf(phantom.ID, store.DefaultPartitions)
	next := 101
	addIn := func(inHome bool) {
		t.Helper()
		for ; (store.PartOf(repo.ObjectID(fmt.Sprintf("e%03d", next)), store.DefaultPartitions) == home) != inHome; next++ {
		}
		w.addElement(t, next)
		next++
	}
	for _, inHome := range []bool{false, true} {
		addIn(inHome)
		before, negs := batchTotals(w.c), cache.Stats().NegativeHits
		es, err := s.Collect(ctx)
		if err != nil || len(es) != len(w.refs)+1 || stales(es) != 1 {
			t.Fatalf("run after an add (phantom's partition: %v): %d elems (%d stale), %v", inHome, len(es), stales(es), err)
		}
		// What the run fetches is the moved partition, the new member and
		// the phantom among it when it is the phantom's.
		part, want := store.PartOf(w.refs[len(w.refs)-1].ID, store.DefaultPartitions), int64(0)
		for _, ref := range append(w.refs, phantom) {
			if store.PartOf(ref.ID, store.DefaultPartitions) == part {
				want++
			}
		}
		fetched, served := batchTotals(w.c).BatchedGets-before.BatchedGets, cache.Stats().NegativeHits-negs
		switch {
		case !inHome && (fetched != want || served != 1):
			t.Fatalf("an add to another partition: %d ids fetched, %d negative serves; want partition %d's %d, and the phantom served", fetched, served, part, want)
		case inHome && (fetched != want || served != 0):
			t.Fatalf("an add to the phantom's partition: %d ids fetched, %d negative serves; want partition %d's %d, the phantom among them, and no serve", fetched, served, part, want)
		}
	}
}

// TestCacheKeepsReadYourWrites re-runs the prefetcher read-your-writes
// scenario with a cache attached: our own delete drops the cache entry and
// bumps the mutation epoch, so the deleted member still comes back as a
// stale identity-only yield, never as cached data.
func TestCacheKeepsReadYourWrites(t *testing.T) {
	w := newTestWorld(t, 4)
	ctx := context.Background()
	cache := repo.NewCache(64)
	w.c.Client.UseCache(cache)
	s := w.set(t, Options{Semantics: Snapshot})

	// Warm every entry first, so the delete must beat a warm cache.
	if cold, err := s.Collect(ctx); err != nil || len(cold) != 4 {
		t.Fatalf("cold run: %d elems, %v", len(cold), err)
	}

	it, err := s.Elements(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close(ctx)
	if !it.Next(ctx) {
		t.Fatalf("first next: %v", it.Err())
	}
	victim := w.refs[3]
	if err := w.c.Client.Delete(ctx, victim); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Get(victim.ID); ok {
		t.Fatal("delete left the victim in the cache")
	}
	var last Element
	for it.Next(ctx) {
		last = it.Element()
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if last.ID() != victim.ID || !last.Stale || last.Data != nil {
		t.Fatalf("deleted member yielded as %+v, want stale identity-only yield", last)
	}
}
