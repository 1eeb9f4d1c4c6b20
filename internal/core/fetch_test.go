package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
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

// TestChunkByNode: refs split into per-node batches of at most size, in
// first-appearance order, each ref once and in its fetch order, and no
// chunk allocated for more refs than it could be given — size, or the
// refs left when it opened.
func TestChunkByNode(t *testing.T) {
	refs := make([]member, 23)
	for i := range refs {
		refs[i] = member{Ref: repo.Ref{ID: repo.ObjectID(fmt.Sprintf("e%02d", i)), Node: netsim.NodeID(fmt.Sprintf("n%d", i%3))}, part: int32(i / 8)}
	}
	for _, tc := range []struct {
		size int
		want [][]int
	}{
		{4, [][]int{{0, 3, 6, 9}, {1, 4, 7, 10}, {2, 5, 8, 11}, {12, 15, 18, 21}, {13, 16, 19, 22}, {14, 17, 20}}},
		{64, [][]int{{0, 3, 6, 9, 12, 15, 18, 21}, {1, 4, 7, 10, 13, 16, 19, 22}, {2, 5, 8, 11, 14, 17, 20}}},
	} {
		chunks := chunkByNode(refs, tc.size)
		if len(chunks) != len(tc.want) {
			t.Fatalf("size %d: %d chunks, want %d", tc.size, len(chunks), len(tc.want))
		}
		for c, idx := range tc.want {
			got := chunks[c]
			if len(got) != len(idx) || cap(got) > min(tc.size, len(refs)-idx[0]) {
				t.Fatalf("size %d chunk %d: len %d cap %d, want len %d", tc.size, c, len(got), cap(got), len(idx))
			}
			for j, i := range idx {
				if got[j] != refs[i] {
					t.Fatalf("size %d chunk %d[%d] = %v, want %v", tc.size, c, j, got[j], refs[i])
				}
			}
		}
	}
}

// TestOrderSortsAChunksRequest: a chunk's refs are in yield order — a run
// ascending by id per partition — and order lists their positions by
// ascending id, whatever the runs: one, several interleaved, or one
// wholly after another.
func TestOrderSortsAChunksRequest(t *testing.T) {
	var buf []int32 // reused, as a prefetcher's plans reuse theirs
	for _, runs := range [][][]string{
		{{"a", "c", "e"}},
		{{"b", "d"}, {"a", "c", "e"}},
		{{"m", "n"}, {"a", "b"}, {"c", "z"}},
		{{"a"}, {"b"}, {"c"}, {"d"}},
		{{"d", "e"}, {"a", "b", "c"}, {"f"}},
		{{"b", "g"}, {"a", "h"}, {"c", "f"}, {"d", "e"}, {"i"}},
	} {
		var refs []member
		for p, ids := range runs {
			for _, id := range ids {
				refs = append(refs, member{Ref: repo.Ref{ID: repo.ObjectID(id)}, part: int32(p)})
			}
		}
		ord := make([]int32, len(refs))
		buf = order(refs, ord, buf)
		seen := make([]bool, len(refs))
		for j, i := range ord {
			if seen[i] || j > 0 && refs[ord[j-1]].ID >= refs[i].ID {
				t.Fatalf("runs %v: order %v is not the positions by ascending id", runs, ord)
			}
			seen[i] = true
		}
	}
}

// TestMergeByPosition: two answers to disjoint parts of one request, each
// in request order — a replica's and the owner's for the replica's gap,
// or the shipped and the revalidated objects of a conditional batch —
// merge into one answer in request order, ids answered by neither left
// out, so deliver can match it to the chunk by position.
func TestMergeByPosition(t *testing.T) {
	ids := []repo.ObjectID{"a", "b", "c", "d", "e"}
	objs := func(ids ...repo.ObjectID) []repo.Object {
		out := make([]repo.Object, len(ids))
		for i, id := range ids {
			out[i] = repo.Object{ID: id}
		}
		return out
	}
	for _, tc := range []struct{ a, b, want []repo.Object }{
		{objs("a", "d"), objs("b", "e"), objs("a", "b", "d", "e")},
		{objs("c"), nil, objs("c")},
		{nil, objs("a", "e"), objs("a", "e")},
		{nil, nil, objs()},
	} {
		if got := mergeByPosition(ids, tc.a, tc.b); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Fatalf("merge %v + %v = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

// TestBatchedIteratorUsesBatchRPC pins the transport win: a batched
// iterator over a populated set issues GetBatch RPCs and far fewer
// per-object Gets than elements yielded.
func TestBatchedIteratorUsesBatchRPC(t *testing.T) {
	w := newTestWorld(t, 12)
	ctx := context.Background()
	gets := w.c.Bus.MethodCalls(repo.MethodGet)
	batches := w.c.Bus.MethodCalls(repo.MethodGetBatch)

	s := w.set(t, Options{Semantics: Snapshot})
	elems, err := s.Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(elems) != 12 {
		t.Fatalf("yielded %d, want 12", len(elems))
	}
	if got := w.c.Bus.MethodCalls(repo.MethodGetBatch) - batches; got == 0 {
		t.Fatal("batched iterator issued no GetBatch RPCs")
	}
	if got := w.c.Bus.MethodCalls(repo.MethodGet) - gets; got != 0 {
		t.Fatalf("batched iterator issued %d per-object Gets", got)
	}
}

// TestFetchDisableRestoresPerObjectPath keeps the per-object baseline
// honest now that it is a parameter value of the one pipeline: with
// Batch: 1, Inflight: 1 every yield costs exactly one one-id GetBatch and
// no Get is issued.
func TestFetchDisableRestoresPerObjectPath(t *testing.T) {
	w := newTestWorld(t, 6)
	ctx := context.Background()
	gets := w.c.Bus.MethodCalls(repo.MethodGet)
	batches := w.c.Bus.MethodCalls(repo.MethodGetBatch)

	s := w.set(t, Options{Semantics: Snapshot, Fetch: FetchOptions{Batch: 1, Inflight: 1}})
	elems, err := s.Collect(ctx)
	if err != nil || len(elems) != 6 {
		t.Fatalf("collect = %d elems, %v", len(elems), err)
	}
	if got := w.c.Bus.MethodCalls(repo.MethodGetBatch) - batches; got != 6 {
		t.Fatalf("6 yields at one id per batch issued %d GetBatch RPCs, want 6", got)
	}
	if got := w.c.Bus.MethodCalls(repo.MethodGet) - gets; got != 0 {
		t.Fatalf("per-object arm issued %d Gets, want 0", got)
	}
}

// TestBatchedIteratorLossyLinks runs the batch path under message loss:
// ErrDropped mid-batch fails one round trip, the candidates are
// re-batched, and every semantics still yields the full set.
func TestBatchedIteratorLossyLinks(t *testing.T) {
	c, err := cluster.New(cluster.Config{StorageNodes: 4, Seed: 7, DropProb: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if err := createPopulated(ctx, c, "lossy-batch", 12); err != nil {
		t.Fatal(err)
	}
	for _, sem := range []Semantics{Snapshot, GrowOnly, Optimistic} {
		sem := sem
		t.Run(sem.String(), func(t *testing.T) {
			s, err := NewSet(c.Client, cluster.DirNode, "lossy-batch", Options{
				Semantics:  sem,
				BlockRetry: time.Millisecond,
				// Small batches and a narrow pipe force many round trips,
				// so drops land mid-pipeline, not just on the first batch.
				Fetch: FetchOptions{Batch: 3, Inflight: 2},
			})
			if err != nil {
				t.Fatal(err)
			}
			var elems []Element
			for attempt := 0; attempt < 10; attempt++ {
				elems, err = s.Collect(ctx)
				if err == nil {
					break
				}
			}
			if err != nil {
				t.Fatalf("collect kept failing: %v", err)
			}
			if len(elems) != 12 {
				t.Fatalf("yielded %d, want 12", len(elems))
			}
		})
	}
}

// TestPartitionMidBatchNeverYieldsUnreachable cuts a storage node off
// after the prefetcher has already parked its objects in the ready queue.
// Pessimistic semantics must not serve those prefetched copies: every
// yield is re-validated against a fresh pre-state, so the run fails
// instead of yielding an unreachable member.
func TestPartitionMidBatchNeverYieldsUnreachable(t *testing.T) {
	w := newTestWorld(t, 8)
	ctx := context.Background()
	victim := w.c.Storage[1] // hosts e001 and e005

	s := w.set(t, Options{Semantics: Immutable})
	it, err := s.Elements(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close(ctx)

	var yielded []Element
	for it.Next(ctx) {
		yielded = append(yielded, it.Element())
		if len(yielded) == 1 {
			// One element is out and the first fetch prefetched every
			// member in per-node batches — e001 and e005 sit in the ready
			// queue. Partition their node before the kernel reaches them;
			// when the first batch to land was theirs (runs yield in
			// completion order), partition e002 and e006's instead: a
			// yielded element gone unreachable makes Fig. 3 return, which
			// is not the case under test.
			if it.Element().Ref.Node == victim {
				victim = w.c.Storage[2]
			}
			w.c.Net.Isolate(victim)
		}
		if len(yielded) > 1 {
			if n := it.Element().Ref.Node; n == victim {
				t.Fatalf("yielded %q from partitioned node %s", it.Element().ID(), n)
			}
		}
	}
	if err := it.Err(); !errors.Is(err, ErrFailure) {
		t.Fatalf("err = %v, want ErrFailure (unreachable members remain)", err)
	}
	// The six members on still-reachable nodes precede the failure; the
	// two prefetched-but-partitioned ones are never served.
	if len(yielded) != 6 {
		t.Fatalf("yielded %d before failing, want 6", len(yielded))
	}
}

// TestBatchFailureCountsOncePerRoundTrip proves the liveness-guard
// accounting: four same-node members behind a blackhole link share one
// GetBatch per attempt, and each failed round trip costs exactly one
// consecutive-failure tick — so the iterator gives up only after
// maxConsecutiveFetchFailures whole batches, not after 64/4 of them.
func TestBatchFailureCountsOncePerRoundTrip(t *testing.T) {
	c, err := cluster.New(cluster.Config{StorageNodes: 2, Seed: 4, DropProb: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	// The directory is the client's own node: self-sends never drop, so
	// membership reads succeed while every cross-node fetch blackholes.
	if err := c.Client.CreateCollection(ctx, cluster.HomeNode, "bh"); err != nil {
		t.Fatal(err)
	}
	ref, err := c.Client.Put(ctx, cluster.HomeNode, repo.Object{ID: "local", Data: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Client.Add(ctx, cluster.HomeNode, "bh", ref); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		id := repo.ObjectID(fmt.Sprintf("remote-%d", i))
		if err := c.Client.Add(ctx, cluster.HomeNode, "bh", repo.Ref{ID: id, Node: c.Storage[0]}); err != nil {
			t.Fatal(err)
		}
	}

	s, err := NewSet(c.Client, cluster.HomeNode, "bh", Options{Semantics: GrowOnly})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Collect(ctx); !errors.Is(err, ErrFailure) {
		t.Fatalf("err = %v, want ErrFailure after repeated batch failures", err)
	}
	// One failed GetBatch per consecutive-failure tick. Per-element
	// accounting would give up after ~64/4 round trips.
	if got := c.Bus.MethodCalls(repo.MethodGetBatch); got < maxConsecutiveFetchFailures {
		t.Fatalf("gave up after %d failed batches, want ≥ %d (once per round trip)",
			got, maxConsecutiveFetchFailures)
	}
}

// TestVersionGatedListSkipsMembershipShipping checks the not-modified
// path: a current-state iteration over a stable collection re-reads
// membership every Next, but only the first List ships members — and the
// retry accounting treats the gated replies as successes.
func TestVersionGatedListSkipsMembershipShipping(t *testing.T) {
	w := newTestWorld(t, 10)
	ctx := context.Background()

	s := w.set(t, Options{Semantics: GrowOnly})
	it, err := s.Elements(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close(ctx)
	n := 0
	for it.Next(ctx) {
		n++
		// The cached listing must track reality: the kernel still sees
		// every member.
		if it.Element().Data == nil {
			t.Fatalf("element %q yielded without data", it.Element().ID())
		}
	}
	if err := it.Err(); err != nil || n != 10 {
		t.Fatalf("run: n=%d err=%v", n, err)
	}
	if it.listFails != 0 {
		t.Fatalf("listFails = %d after clean gated run", it.listFails)
	}
}

// TestDynSetBatchSkipsMissingMember exercises a batch whose node reports
// some ids missing: the vanished member is yielded as its stale identity
// (Fig. 4's tolerated anomaly, the rule every snapshot-governed run
// follows), never surfaced as skipped.
func TestDynSetBatchSkipsMissingMember(t *testing.T) {
	c, err := cluster.New(cluster.Config{StorageNodes: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if err := c.Client.CreateCollection(ctx, cluster.DirNode, "dyn"); err != nil {
		t.Fatal(err)
	}
	var refs []repo.Ref
	for i := 0; i < 3; i++ {
		id := repo.ObjectID(fmt.Sprintf("m%d", i))
		ref, err := c.Client.Put(ctx, c.Storage[0], repo.Object{ID: id, Data: []byte("d")})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Client.Add(ctx, cluster.DirNode, "dyn", ref); err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	// m1's data vanishes while its membership survives — the mid-batch
	// deletion, frozen deterministically.
	if err := c.Client.Delete(ctx, refs[1]); err != nil {
		t.Fatal(err)
	}

	ds, err := OpenDyn(ctx, c.Client, cluster.DirNode, "dyn", DynOptions{Width: 2, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close(ctx)
	stale := map[repo.ObjectID]bool{}
	for ds.Next(ctx) {
		stale[ds.Element().ID()] = ds.Element().Stale
	}
	if len(stale) != 3 || stale["m0"] || !stale["m1"] || stale["m2"] {
		t.Fatalf("yielded %v (id: stale), want m0 and m2 and m1's stale identity", stale)
	}
	if sk := ds.Skipped(); len(sk) != 0 {
		t.Fatalf("missing member reported as skipped: %v", sk)
	}
}

// TestDynSetBatchPartitionSkipsChunk partitions a node holding a whole
// chunk's members: none is yielded, and every one lands in Skipped,
// preserving the partial-result report.
func TestDynSetBatchPartitionSkipsChunk(t *testing.T) {
	c, err := cluster.New(cluster.Config{StorageNodes: 3, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if err := c.Client.CreateCollection(ctx, cluster.DirNode, "dynp"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		node := c.Storage[0]
		if i >= 2 {
			node = c.Storage[1]
		}
		id := repo.ObjectID(fmt.Sprintf("p%d", i))
		ref, err := c.Client.Put(ctx, node, repo.Object{ID: id, Data: []byte("d")})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Client.Add(ctx, cluster.DirNode, "dynp", ref); err != nil {
			t.Fatal(err)
		}
	}
	c.Net.Isolate(c.Storage[1])

	ds, err := OpenDyn(ctx, c.Client, cluster.DirNode, "dynp", DynOptions{Width: 2, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close(ctx)
	n := 0
	for ds.Next(ctx) {
		if ds.Element().Ref.Node == c.Storage[1] {
			t.Fatalf("yielded %q from isolated node", ds.Element().ID())
		}
		n++
	}
	if n != 2 {
		t.Fatalf("yielded %d reachable members, want 2", n)
	}
	if sk := ds.Skipped(); len(sk) != 2 {
		t.Fatalf("skipped = %v, want the 2 members behind the partition", sk)
	}
}

// TestPrefetcherReadYourWrites drives the mutation-epoch invalidation
// directly: the whole set is prefetched in one batch, then the client
// itself deletes a later member's data. The prefetched copy must NOT be
// served; the refetch observes the deletion and yields the Fig. 4 stale
// anomaly instead of live cached data.
func TestPrefetcherReadYourWrites(t *testing.T) {
	w := newTestWorld(t, 4)
	ctx := context.Background()

	s := w.set(t, Options{Semantics: Snapshot})
	it, err := s.Elements(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close(ctx)
	if !it.Next(ctx) { // prefetches every member in node batches
		t.Fatalf("first next: %v", it.Err())
	}
	victim := w.refs[3]
	if err := w.c.Client.Delete(ctx, victim); err != nil {
		t.Fatal(err)
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

// batchSpans runs one cold snapshot run of every member of w under a
// tracer, fetching as fo says, a whole first window of the opening listing
// folded before the first plan, and returns its fetch.batch spans' id
// counts in the order the batches were issued. The prefetcher must be
// left with no live chunk.
func batchSpans(t *testing.T, w *testWorld, fo FetchOptions) (ids []int) {
	t.Helper()
	ctx := context.Background()
	tr := obs.NewTracer("test", obs.Config{Capacity: 1 << 12})
	s := w.set(t, Options{Semantics: Snapshot, Tracer: tr, Fetch: fo})
	it, err := s.Elements(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close(ctx)
	for !it.ingDone && it.tab.unyielded() < it.pf.window() {
		if err := it.drainIngest(); err != nil {
			t.Fatal(err)
		}
		if !it.ingDone && it.tab.unyielded() < it.pf.window() {
			<-it.ing.notify
		}
	}
	yielded := 0
	for it.Next(ctx) {
		yielded++
	}
	if it.Err() != nil || yielded != len(w.refs) {
		t.Fatalf("yielded %d of %d, err %v", yielded, len(w.refs), it.Err())
	}
	it.pf.mu.Lock()
	live := len(it.pf.live)
	it.pf.mu.Unlock()
	if live != 0 {
		t.Fatalf("%d chunks still live after a full run, want every one retired", live)
	}
	spans := tr.Spans()
	slices.SortStableFunc(spans, func(a, b obs.SpanRecord) int { return a.Start.Compare(b.Start) })
	for _, sp := range spans {
		for _, a := range sp.Attrs {
			if sp.Name == "fetch.batch" && a.Key == "ids" {
				n, _ := strconv.Atoi(a.Value)
				ids = append(ids, n)
			}
		}
	}
	return ids
}

// TestByteSizedLaterPlans: a run's first window is cut at Batch ids a
// call, and every plan after its first landing at callBytes of answer,
// within [Batch, 16 × Batch] ids.
//   - A cold 10 000-member run of small objects fetches its first window
//     (1 024 ids, less each node's short last chunk, which waits for the
//     next plan) at Batch ids a call, then the rest at 16 × Batch: about
//     16 calls for the first window and 10 for the rest. A 1 000-member
//     run fits in its first window and issues exactly the batches a fixed
//     Batch does: per node, ⌈250/64⌉ batches of 64, 64, 64 and 58 ids.
//   - Over 64 KiB objects no call carries more than max(callBytes,
//     Batch × object) bytes: at Batch 2, three objects a call once sized.
//   - Batch: 1 stays one id per call.
func TestByteSizedLaterPlans(t *testing.T) {
	const batch = 64
	ids := batchSpans(t, newTestWorld(t, 10_000), FetchOptions{})
	first, issued, widest := 0, 0, 0
	for first < len(ids) && ids[first] <= batch {
		issued += ids[first]
		first++
	}
	if issued < 1024-4*(batch-1) || issued > 1024 {
		t.Fatalf("%d ids in the first %d calls of at most %d: want the first window's 1 024 less the short chunks", issued, first, batch)
	}
	for _, n := range ids[first:] {
		issued, widest = issued+n, max(widest, n)
	}
	if issued != 10_000 || widest != 16*batch || len(ids) > 32 {
		t.Fatalf("%d GetBatch calls %v fetched %d ids, the widest %d; want at most 32, 10000 and %d", len(ids), ids, issued, widest, 16*batch)
	}

	ids = batchSpans(t, newTestWorld(t, 1000), FetchOptions{})
	sizes := map[int]int{}
	for _, n := range ids {
		sizes[n]++
	}
	if len(ids) != 16 || sizes[64] != 12 || sizes[58] != 4 {
		t.Fatalf("a 1 000-member run issued %d batches sized %v, want 12 × 64 and 4 × 58", len(ids), sizes)
	}

	const object = 64 << 10
	w := newTestWorld(t, 0)
	ctx := context.Background()
	for i := 0; i < 64; i++ {
		ref, err := w.c.Client.Put(ctx, w.c.StorageFor(i), repo.Object{ID: repo.ObjectID(fmt.Sprintf("e%03d", i)), Data: make([]byte, object)})
		if err == nil {
			err = w.c.Client.Add(ctx, cluster.DirNode, "set", ref)
		}
		if err != nil {
			t.Fatal(err)
		}
		w.refs = append(w.refs, ref)
	}
	ids, widest = batchSpans(t, w, FetchOptions{Batch: 2, Inflight: 2}), 0
	for _, n := range ids {
		if n*object > max(callBytes, 2*object) {
			t.Fatalf("a %d-id call of %d KiB objects: %d KiB, over max(callBytes, Batch × object)", n, object>>10, n*object>>10)
		}
		widest = max(widest, n)
	}
	if widest != callBytes/object-1 {
		t.Fatalf("calls of %v ids: the widest %d, want %d", ids, widest, callBytes/object-1)
	}

	for _, n := range batchSpans(t, newTestWorld(t, 100), FetchOptions{Batch: 1, Inflight: 2}) {
		if n != 1 {
			t.Fatalf("a %d-id call at Batch 1", n)
		}
	}
}

// fetchChosen fetches ref, planning candidates on a miss, with no other
// landed slot standing in for it.
func fetchChosen(ctx context.Context, p *prefetcher, ref repo.Ref, candidates []repo.Ref) (repo.Object, error) {
	_, obj, err := p.fetch(ctx, ref, 0, 0, nil, false, func() []member { return asMembers(candidates) }, func(member) bool { return false })
	return obj, err
}

// asMembers gives refs as members of partition 0.
func asMembers(refs []repo.Ref) []member {
	out := make([]member, len(refs))
	for i, ref := range refs {
		out[i] = member{Ref: ref}
	}
	return out
}

// sameNode returns the test world's members held on the first storage
// node (members 0, 4, 8, …): the refs one chunk batches together.
func sameNode(w *testWorld) []repo.Ref {
	var refs []repo.Ref
	for i := 0; i < len(w.refs); i += len(w.c.Storage) {
		refs = append(refs, w.refs[i])
	}
	return refs
}

// TestParkedChunkMissingSlot: an id missing from the middle of a batch
// answer is reported missing for that slot alone; its neighbours in the
// same chunk serve their data, with no second round trip.
func TestParkedChunkMissingSlot(t *testing.T) {
	ctx := context.Background()
	w := newTestWorld(t, 12)
	refs := sameNode(w) // e000, e004, e008
	if err := w.c.ClientAt(refs[1].Node).Delete(ctx, refs[1]); err != nil {
		t.Fatal(err)
	}
	p := newPrefetcher(ctx, w.c.Client, "set", w.set(t, Options{Semantics: Snapshot}).router, &replicaTally{}, FetchOptions{}.WithDefaults(), nil)
	defer p.close()
	batches := w.c.Bus.MethodCalls(repo.MethodGetBatch)
	for k, ref := range refs {
		obj, err := fetchChosen(ctx, p, ref, refs[k:])
		switch {
		case k == 1 && !errors.Is(err, repo.ErrNotFound):
			t.Fatalf("%s: fetched %q, %v; want ErrNotFound", ref.ID, obj.Data, err)
		case k != 1 && (err != nil || string(obj.Data) != fmt.Sprintf("data-%d", 4*k)):
			t.Fatalf("%s: fetched %q, %v", ref.ID, obj.Data, err)
		}
	}
	if d := w.c.Bus.MethodCalls(repo.MethodGetBatch) - batches; d != 1 || len(p.live) != 0 {
		t.Fatalf("%d GetBatch calls, %d live chunks; want 1, 0", d, len(p.live))
	}
}

// TestParkedChunkFailureErrorsOnce: a batch that fails in transport
// errors the one fetch waiting on it and is retired; the chunk's other
// refs are refetched, together, when they are asked for.
func TestParkedChunkFailureErrorsOnce(t *testing.T) {
	ctx := context.Background()
	w := newTestWorld(t, 12)
	refs := sameNode(w)
	p := newPrefetcher(ctx, w.c.Client, "set", w.set(t, Options{Semantics: Snapshot}).router, &replicaTally{}, FetchOptions{}.WithDefaults(), nil)
	defer p.close()
	batches := w.c.Bus.MethodCalls(repo.MethodGetBatch)
	w.c.Net.Isolate(refs[0].Node)
	if _, err := fetchChosen(ctx, p, refs[0], refs); err == nil || errors.Is(err, repo.ErrNotFound) {
		t.Fatalf("fetch behind a partition: %v, want a transport error", err)
	}
	if d := w.c.Bus.MethodCalls(repo.MethodGetBatch) - batches; d != 1 || len(p.live) != 0 {
		t.Fatalf("%d GetBatch calls, %d live chunks after the failure; want 1, 0", d, len(p.live))
	}
	w.c.Net.Rejoin(refs[0].Node)
	for k, ref := range refs[1:] {
		if obj, err := fetchChosen(ctx, p, ref, refs[1+k:]); err != nil || len(obj.Data) == 0 {
			t.Fatalf("%s after rejoin: %q, %v", ref.ID, obj.Data, err)
		}
	}
	if d := w.c.Bus.MethodCalls(repo.MethodGetBatch) - batches; d != 2 {
		t.Fatalf("%d GetBatch calls, want the failed one and one refetch of the other two", d)
	}
}

// TestParkedChunkEpochRetryRebatchesTheChunk: after the client's own
// mutation every landed slot of a chunk is stale — one epoch covers the
// batch — so asking for one retires the chunk, and the refs it still held
// are refetched together, in one batch.
func TestParkedChunkEpochRetryRebatchesTheChunk(t *testing.T) {
	ctx := context.Background()
	w := newTestWorld(t, 12)
	refs := sameNode(w)
	p := newPrefetcher(ctx, w.c.Client, "set", w.set(t, Options{Semantics: Snapshot}).router, &replicaTally{}, FetchOptions{}.WithDefaults(), nil)
	defer p.close()
	if _, err := fetchChosen(ctx, p, refs[0], refs); err != nil {
		t.Fatal(err)
	}
	if _, err := w.c.Client.Put(ctx, w.c.Storage[1], repo.Object{ID: "unrelated", Data: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	batches, before := w.c.Bus.MethodCalls(repo.MethodGetBatch), batchTotals(w.c).BatchedGets
	for k, ref := range refs[1:] {
		if obj, err := fetchChosen(ctx, p, ref, refs[1+k:]); err != nil || len(obj.Data) == 0 {
			t.Fatalf("%s after the write: %q, %v", ref.ID, obj.Data, err)
		}
	}
	b, ids := w.c.Bus.MethodCalls(repo.MethodGetBatch)-batches, batchTotals(w.c).BatchedGets-before
	if got := p.epochRetries.Load(); b != 1 || ids != 2 || got != 1 || len(p.live) != 0 {
		t.Fatalf("%d batches of %d ids in all, %d epoch retries, %d live chunks; want 1, 2, 1, 0", b, ids, got, len(p.live))
	}
}

// TestRemovedPlannedMemberRetiresItsChunk: a member removed after its
// batch was planned is never asked for by a current-state run, so its slot
// is never taken; a later plan, whose candidates no longer list it, drops
// the slot, and the run still ends with every chunk retired.
func TestRemovedPlannedMemberRetiresItsChunk(t *testing.T) {
	ctx := context.Background()
	w := newTestWorld(t, 200)
	s := w.set(t, Options{Semantics: Optimistic, Fetch: FetchOptions{Batch: 4, Inflight: 1}})
	it, err := s.Elements(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close(ctx)
	if !it.Next(ctx) { // plans the first window, e000–e015, the victim with it
		t.Fatalf("first next: %v", it.Err())
	}
	victim := w.refs[5]
	// Another client's write: the run's own epoch, and its landed slots, stay good.
	if err := w.c.ClientAt(w.c.Storage[0]).DeleteMember(ctx, cluster.DirNode, "set", victim); err != nil {
		t.Fatal(err)
	}
	yielded := 1
	for it.Next(ctx) {
		if it.Element().ID() == victim.ID {
			t.Fatalf("%s yielded after its removal", victim.ID)
		}
		yielded++
	}
	it.pf.mu.Lock()
	live := len(it.pf.live)
	it.pf.mu.Unlock()
	if it.Err() != nil || yielded != len(w.refs)-1 || live != 0 {
		t.Fatalf("yielded %d of %d, err %v, %d chunks live; want every chunk retired", yielded, len(w.refs)-1, it.Err(), live)
	}
}

// TestColdRunBatchesAscendByID: a chunk's slots follow the run's yield
// order, partition-major, while its request is sorted, so every GetBatch
// a cold snapshot run issues — over windows spanning several partitions,
// with chunks that cross a partition boundary — is strictly ascending by
// id, which keeps the store's duplicate filter off.
func TestColdRunBatchesAscendByID(t *testing.T) {
	ctx := context.Background()
	c, err := cluster.New(cluster.Config{StorageNodes: 1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	// Every member is held on the tap node, which notes each request and
	// relays it to the storage node holding the objects: one node, so
	// every chunk lists consecutive members of the yield order.
	const tap = netsim.NodeID("batch-tap")
	c.Net.AddNode(tap)
	var mu sync.Mutex
	var reqs [][]repo.ObjectID
	srv := rpc.NewServer(tap)
	srv.Handle(repo.MethodGetBatch, rpc.Typed(func(ctx context.Context, _ netsim.NodeID, req repo.GetBatchReq) (any, error) {
		mu.Lock()
		reqs = append(reqs, slices.Clone(req.IDs))
		mu.Unlock()
		out, _, err := c.Bus.Call(ctx, tap, c.Storage[0], repo.MethodGetBatch, req)
		return out, err
	}))
	if err := c.Bus.Register(srv); err != nil {
		t.Fatal(err)
	}
	if err := c.Client.CreateCollection(ctx, cluster.DirNode, "set"); err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		id := repo.ObjectID(fmt.Sprintf("e%04d", i))
		if _, err := c.Client.Put(ctx, c.Storage[0], repo.Object{ID: id, Data: []byte("x")}); err != nil {
			t.Fatal(err)
		}
		if err := c.Client.Add(ctx, cluster.DirNode, "set", repo.Ref{ID: id, Node: tap}); err != nil {
			t.Fatal(err)
		}
	}
	s, err := NewSet(c.Client, cluster.DirNode, "set", Options{Semantics: Snapshot})
	if err != nil {
		t.Fatal(err)
	}
	if elems, err := s.Collect(ctx); err != nil || len(elems) != n {
		t.Fatalf("yielded %d, err %v; want %d", len(elems), err, n)
	}
	crossing, ids := 0, 0
	for _, req := range reqs {
		for i := 1; i < len(req); i++ {
			if req[i-1] >= req[i] {
				t.Fatalf("a GetBatch of %d ids not strictly ascending at %d: %q, %q", len(req), i, req[i-1], req[i])
			}
		}
		parts := map[int]bool{}
		for _, id := range req {
			parts[store.PartOf(id, store.DefaultPartitions)] = true
		}
		if len(parts) > 1 {
			crossing++
		}
		ids += len(req)
	}
	if ids != n || crossing == 0 {
		t.Fatalf("%d GetBatch calls fetched %d ids, %d of them across partitions; want %d ids, some across", len(reqs), ids, crossing, n)
	}
}
