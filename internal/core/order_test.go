package core

import (
	"context"
	"slices"
	"strings"
	"testing"
	"time"

	"weaksets/internal/cluster"
	"weaksets/internal/netsim"
	"weaksets/internal/obs"
	"weaksets/internal/repo"
	"weaksets/internal/sim"
	"weaksets/internal/spec"
)

// slowWorld is a 12-member test world on a real clock whose first storage
// node, holding e000, e004 and e008 — among them the cursor's head — is
// twenty times as far as the other three.
func slowWorld(t *testing.T) (*testWorld, netsim.NodeID) {
	t.Helper()
	c, err := cluster.New(cluster.Config{StorageNodes: 4, Seed: 5, Scale: 1, Latency: sim.Fixed(2 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Client.CreateCollection(context.Background(), cluster.DirNode, "set"); err != nil {
		t.Fatal(err)
	}
	w := &testWorld{c: c}
	for i := 0; i < 12; i++ {
		w.addElement(t, i)
	}
	slow := c.Storage[0]
	c.Net.SetLinkLatency(cluster.HomeNode, slow, sim.Fixed(40*time.Millisecond))
	return w, slow
}

// foldWhole folds a run's whole opening listing, so its first plan holds
// every member; a dynamic or recorded run does so itself.
func foldWhole(t *testing.T, it *Iterator) {
	t.Helper()
	for it.ing != nil && !it.ingDone {
		if err := it.drainIngest(); err != nil {
			t.Fatal(err)
		}
		if !it.ingDone {
			<-it.ing.notify
		}
	}
}

// drain yields the rest of a run's elements, in yield order.
func drain(t *testing.T, it *Iterator) []repo.Ref {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var out []repo.Ref
	for it.Next(ctx) {
		out = append(out, it.Element().Ref)
	}
	return out
}

// TestCompletionOrderFastNodesFirst: with one storage node twenty times as
// far as the rest, a run yields every member the fast nodes hold before
// the slow node's first — the cursor's head among them — on a snapshot
// run and on a dynamic one.
func TestCompletionOrderFastNodesFirst(t *testing.T) {
	ctx := context.Background()
	w, slow := slowWorld(t)
	s := w.set(t, Options{Semantics: Snapshot})
	snap, err := s.Elements(ctx)
	if err != nil {
		t.Fatal(err)
	}
	foldWhole(t, snap)
	dyn, err := OpenDyn(ctx, w.c.Client, cluster.DirNode, "set", DynOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for name, it := range map[string]*Iterator{"snapshot": snap, "dynamic": dyn} {
		got := drain(t, it)
		_ = it.Close(ctx)
		if it.Err() != nil || len(got) != 12 {
			t.Fatalf("%s: yielded %d, err %v", name, len(got), it.Err())
		}
		first := slices.IndexFunc(got, func(ref repo.Ref) bool { return ref.Node == slow })
		if first != 9 {
			t.Fatalf("%s: the slow node's first member came %d of %d: %v", name, first+1, len(got), got)
		}
	}
}

// TestRecordedRunsYieldInCompletionOrder: recorded runs of every
// semantics over the slow world yield out of id order — the kernel's
// choice, the slow node's e000, stands aside for what landed first — and
// every invocation still meets its figure.
func TestRecordedRunsYieldInCompletionOrder(t *testing.T) {
	ctx := context.Background()
	w, _ := slowWorld(t)
	for _, sem := range AllSemantics() {
		it, err := w.set(t, Options{Semantics: sem}).Elements(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var hist []invocation
		it.hist = &hist
		got := drain(t, it)
		_ = it.Close(ctx)
		if it.Err() != nil || len(got) != 12 {
			t.Fatalf("%s: yielded %d, err %v", sem, len(got), it.Err())
		}
		if slices.IsSortedFunc(got, func(a, b repo.Ref) int { return strings.Compare(string(a.ID), string(b.ID)) }) {
			t.Fatalf("%s: yielded in id order: %v", sem, got)
		}
		if err := spec.CheckRun(sem.Figure(), historyRun(sem, hist)); err != nil {
			t.Fatalf("%s: %v", sem, err)
		}
	}
}

// TestSubstituteSkipsDroppedYieldedAndUnreachable: a current-state run
// whose re-list drops a parked member never yields it in place of the
// kernel's choice, nor a member it yielded already, nor one parked from a
// node since cut off.
func TestSubstituteSkipsDroppedYieldedAndUnreachable(t *testing.T) {
	ctx := context.Background()
	w, slow := slowWorld(t)
	s := w.set(t, Options{Semantics: Optimistic, BlockRetry: time.Millisecond, MaxBlock: 10 * time.Millisecond})
	it, err := s.Elements(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close(ctx)
	if !it.Next(ctx) {
		t.Fatal(it.Err())
	}
	firstRef := it.Element().Ref
	if firstRef.Node == slow {
		t.Fatalf("first yield %v is the slow node's: the run waited out the head's batch", firstRef.ID)
	}

	// Wait for every fast batch to land; then drop a parked member of one
	// fast node and cut another off, with the slow batch still in flight.
	var parked []member
	for deadline := time.Now().Add(5 * time.Second); ; {
		it.pf.mu.Lock()
		landed, n := 0, len(it.pf.live)
		parked = parked[:0]
		for _, c := range it.pf.live {
			if c.landed {
				landed++
				for i := c.next; i < len(c.refs); i++ {
					if c.at[i] >= 0 {
						parked = append(parked, c.refs[i])
					}
				}
			}
		}
		it.pf.mu.Unlock()
		if landed == n-1 && len(parked) >= 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d batches landed, %d slots parked", landed, n, len(parked))
		}
		time.Sleep(time.Millisecond)
	}
	dropped, cut := parked[0].Ref, netsim.NodeID("")
	for _, ref := range parked {
		if ref.Node != dropped.Node && ref.Node != firstRef.Node {
			cut = ref.Node
		}
	}
	if cut == "" || dropped.Node == firstRef.Node {
		t.Fatalf("parked %v: want two fast nodes besides the first yield's", parked)
	}
	if err := w.c.ClientAt(cluster.DirNode).DeleteMember(ctx, cluster.DirNode, "set", dropped); err != nil {
		t.Fatal(err)
	}
	w.c.Net.Isolate(cut)

	seen := map[repo.ObjectID]bool{firstRef.ID: true}
	for _, ref := range drain(t, it) {
		switch {
		case seen[ref.ID]:
			t.Fatalf("%v yielded twice", ref.ID)
		case ref == dropped:
			t.Fatalf("dropped member %v yielded", ref.ID)
		case ref.Node == cut:
			t.Fatalf("%v yielded from cut-off node %s", ref.ID, cut)
		}
		seen[ref.ID] = true
	}
	if len(seen) != 12-1-3 || !seen[w.refs[0].ID] {
		t.Fatalf("yielded %d members, want all but the dropped one and the cut node's three", len(seen))
	}
}

// TestClosestBatchIssuedFirstAtInflightOne: at Inflight 1 the batches
// take the in-flight budget in the order the plan cut them, so the near
// node's batch is issued before the far node's — every time, though the
// far member is the cursor's head.
func TestClosestBatchIssuedFirstAtInflightOne(t *testing.T) {
	ctx := context.Background()
	c, err := cluster.New(cluster.Config{StorageNodes: 2, Seed: 1, Scale: 0.001, Latency: sim.Fixed(10 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Client.CreateCollection(ctx, cluster.DirNode, "d"); err != nil {
		t.Fatal(err)
	}
	near, far := c.Storage[0], c.Storage[1]
	c.Net.SetLinkLatency(cluster.HomeNode, near, sim.Fixed(time.Millisecond))
	c.Net.SetLinkLatency(cluster.HomeNode, far, sim.Fixed(80*time.Millisecond))
	for id, node := range map[repo.ObjectID]netsim.NodeID{"aa-far": far, "zz-near": near} {
		ref, err := c.Client.Put(ctx, node, repo.Object{ID: id, Data: []byte("x")})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Client.Add(ctx, cluster.DirNode, "d", ref); err != nil {
			t.Fatal(err)
		}
	}
	for rep := 0; rep < 50; rep++ {
		tr := obs.NewTracer("test", obs.Config{Capacity: 64})
		s, err := NewSet(c.Client, cluster.DirNode, "d", Options{Semantics: Immutable, Fetch: FetchOptions{Inflight: 1}, Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		it, err := s.Elements(ctx)
		if err != nil {
			t.Fatal(err)
		}
		foldWhole(t, it)
		got := drain(t, it)
		_ = it.Close(ctx)
		if len(got) != 2 || got[0].Node != near {
			t.Fatalf("rep %d: yielded %v, want zz-near first", rep, got)
		}
		var issued []string
		spans := tr.Spans()
		slices.SortStableFunc(spans, func(a, b obs.SpanRecord) int { return a.Start.Compare(b.Start) })
		for _, sp := range spans {
			for _, a := range sp.Attrs {
				if sp.Name == "fetch.batch" && a.Key == "node" {
					issued = append(issued, a.Value)
				}
			}
		}
		if len(issued) != 2 || issued[0] != string(near) {
			t.Fatalf("rep %d: batches issued to %v, want %s first", rep, issued, near)
		}
	}
}
