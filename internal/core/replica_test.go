package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"weaksets/internal/cluster"
	"weaksets/internal/netsim"
	"weaksets/internal/repo"
	"weaksets/internal/sim"
	"weaksets/internal/store"
)

// The replica-routing tests run under -race via `make race`: the router is
// shared by every iterator and prefetcher of a Set, so the concurrent
// scenarios here (parallel readers, probes racing markDead, scatter
// streams racing a kill) are exactly where a locking mistake would
// surface.

func probesWithRTT(rtts map[netsim.NodeID]time.Duration) []replicaProbe {
	out := make([]replicaProbe, 0, len(rtts))
	for node, rtt := range rtts {
		out = append(out, replicaProbe{node: node, live: true, rtt: rtt})
	}
	return out
}

func TestLiveByRTTOrdersAndFilters(t *testing.T) {
	probes := []replicaProbe{
		{node: "s2", live: true, rtt: 30 * time.Millisecond},
		{node: "dir", live: true, rtt: 10 * time.Millisecond},
		{node: "s0", live: false, rtt: time.Millisecond},
		{node: "s1", live: true, rtt: 10 * time.Millisecond},
	}
	live := liveByRTT(probes)
	want := []netsim.NodeID{"dir", "s1", "s2"} // dead s0 gone, RTT asc, id ties
	if len(live) != len(want) {
		t.Fatalf("live = %d replicas, want %d", len(live), len(want))
	}
	for i, n := range want {
		if live[i].node != n {
			t.Fatalf("live[%d] = %s, want %s", i, live[i].node, n)
		}
	}
}

// TestNearTieRotateSpreadsNearGroup pins the rotation contract: replicas
// within 2x of the closest RTT take turns leading, while a clearly
// farther replica never jumps the queue and never disappears.
func TestNearTieRotateSpreadsNearGroup(t *testing.T) {
	rt := newReplicaRouter(nil, "dir", "set", ReplicaConfig{Nodes: []netsim.NodeID{"dir", "s0", "s1"}})
	live := liveByRTT(probesWithRTT(map[netsim.NodeID]time.Duration{
		"dir": 10 * time.Millisecond,
		"s0":  12 * time.Millisecond, // near-tie with dir
		"s1":  50 * time.Millisecond, // far: hedge only
	}))

	leads := map[netsim.NodeID]int{}
	for i := 0; i < 10; i++ {
		got := rt.nearTieRotate(live)
		if len(got) != 3 {
			t.Fatalf("rotation changed the replica count: %v", got)
		}
		if got[2].node != "s1" {
			t.Fatalf("far replica moved up: order %v %v %v", got[0].node, got[1].node, got[2].node)
		}
		leads[got[0].node]++
	}
	if leads["dir"] == 0 || leads["s0"] == 0 {
		t.Fatalf("rotation elected a single leader: %v", leads)
	}
	if leads["s1"] != 0 {
		t.Fatalf("far replica led %d reads", leads["s1"])
	}

	// No near-tie group (gaps > 2x): order must be stable closest-first.
	spread := liveByRTT(probesWithRTT(map[netsim.NodeID]time.Duration{
		"dir": 10 * time.Millisecond,
		"s0":  25 * time.Millisecond,
		"s1":  60 * time.Millisecond,
	}))
	for i := 0; i < 5; i++ {
		if got := rt.nearTieRotate(spread); got[0].node != "dir" {
			t.Fatalf("closest replica displaced by rotation: %v", got[0].node)
		}
	}
}

// addHomeElement adds one element whose object lives on the home
// (directory) node — the replicated layout: anti-entropy ships
// home-resident objects to the replicas, so any replica can serve the
// element even with storage nodes down.
func addHomeElement(t *testing.T, w *testWorld, i int) {
	t.Helper()
	ctx := context.Background()
	id := repo.ObjectID(fmt.Sprintf("e%03d", i))
	ref, err := w.c.Client.Put(ctx, cluster.DirNode, repo.Object{ID: id, Data: []byte(fmt.Sprintf("data-%d", i))})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.c.Client.Add(ctx, cluster.DirNode, "set", ref); err != nil {
		t.Fatal(err)
	}
	w.refs = append(w.refs, ref)
}

// newReplicaWorld builds a cluster with the test collection replicated
// onto dir (home) plus n-1 storage nodes, every element homed at dir so
// the replicas carry full copies.
func newReplicaWorld(t *testing.T, elements, replicas int, scale sim.TimeScale) (*testWorld, []netsim.NodeID) {
	t.Helper()
	c, err := cluster.New(cluster.Config{StorageNodes: 4, Seed: 42, Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ctx := context.Background()
	if err := c.Client.CreateCollection(ctx, cluster.DirNode, "set"); err != nil {
		t.Fatal(err)
	}
	w := &testWorld{c: c}
	for i := 0; i < elements; i++ {
		addHomeElement(t, w, i)
	}
	nodes, err := c.Replicate("set", replicas)
	if err != nil {
		t.Fatal(err)
	}
	waitForReplicaVersions(t, w, nodes)
	return w, nodes
}

// waitForReplicaVersions blocks until every replica's digest has caught
// up with the home's per-partition version vector, in the home's
// partition layout — anti-entropy convergence.
func waitForReplicaVersions(t *testing.T, w *testWorld, nodes []netsim.NodeID) {
	t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(5 * time.Second)
	for {
		home, err := w.c.Client.Digest(ctx, nodes[0], "set")
		synced := err == nil
		for _, n := range nodes[1:] {
			if !synced {
				break
			}
			d, derr := w.c.Client.Digest(ctx, n, "set")
			if derr != nil || d.Partitions != home.Partitions {
				synced = false
				break
			}
			for i, v := range home.Versions {
				if i >= len(d.Versions) || d.Versions[i] < v {
					synced = false
					break
				}
			}
		}
		if synced {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("replicas never converged with the home")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestClosestReplicaSelection places one replica much nearer the client
// than the home and the other replica: the probe must rank it first and
// reads must actually be served from it, with the staleness accounted.
func TestClosestReplicaSelection(t *testing.T) {
	// The scale must be real (not zero) so probe RTTs reflect the
	// configured link latencies; 0.01 keeps the gaps two orders above
	// scheduler noise (5ms -> 50us vs 100ms -> 1ms real one-way).
	w, nodes := newReplicaWorld(t, 24, 3, sim.TimeScale(0.01))
	near := nodes[1]
	for _, n := range append([]netsim.NodeID{cluster.DirNode}, w.c.Storage...) {
		w.c.Net.SetLinkLatency(cluster.HomeNode, n, sim.Fixed(100*time.Millisecond))
	}
	w.c.Net.SetLinkLatency(cluster.HomeNode, near, sim.Fixed(5*time.Millisecond))

	rt := newReplicaRouter(w.c.Client, cluster.DirNode, "set", ReplicaConfig{Nodes: nodes})
	live := liveByRTT(rt.probe(context.Background()))
	if len(live) != len(nodes) {
		t.Fatalf("probe found %d live replicas, want %d", len(live), len(nodes))
	}
	if live[0].node != near {
		t.Fatalf("closest replica = %s (rtt %v), want %s", live[0].node, live[0].rtt, near)
	}

	// A grow-only run routes its membership reads and batches through the
	// router; with the near replica converged, reads land there and the
	// report says so.
	s := w.set(t, Options{Semantics: GrowOnly, Replicas: ReplicaConfig{Nodes: nodes}})
	it, err := s.Elements(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for it.Next(context.Background()) {
		n++
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if n != 24 {
		t.Fatalf("yielded %d elements, want 24", n)
	}
	wk := it.Weakness()
	if wk.ReplicaServed == 0 {
		t.Fatal("no reads served from a replica despite one being 20x closer")
	}
	if wk.ReplicaSkew != 0 {
		t.Fatalf("converged replica reported skew %d", wk.ReplicaSkew)
	}
}

// TestRelistNeverMovesAPartitionBackwards routes a current-state read to
// a replica lagging the home on one partition: the gated read ships
// nothing the run does not already hold newer, so the held listing stands
// — the lagging partition is not rolled back to the replica's — and the
// read still counts as replica-served. A replica in another layout is
// never asked, since it would ship its whole listing unchecked. A held
// listing in another partition layout is replaced whole by the served one.
func TestRelistNeverMovesAPartitionBackwards(t *testing.T) {
	w := newTestWorld(t, 0)
	c, ctx := w.c, context.Background()
	for i := 0; i < 24; i++ {
		addHomeElement(t, w, i)
	}
	readHome := func() []repo.PartListing {
		var frames []repo.PartListing
		if err := c.Client.ListPartsSubset(ctx, cluster.DirNode, "set", 0, nil, nil, func(pl repo.PartListing) error {
			frames = append(frames, pl)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return frames
	}
	// The replica is pushed the home's listing by hand, then the home
	// moves on by one Add the replica never hears of.
	c.Net.AddNode("lag")
	replica, err := repo.NewServer(c.Bus, "lag")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(replica.Close)
	for _, pl := range readHome() {
		if _, _, err := c.Bus.Call(ctx, cluster.DirNode, "lag", repo.MethodSyncPart,
			repo.SyncPartReq{Name: "set", Partitions: pl.Partitions, Part: pl.Part, Members: pl.Members, Version: pl.Version}); err != nil {
			t.Fatal(err)
		}
	}
	addHomeElement(t, w, 24)
	held, err := (*listing)(nil).with(readHome(), nil)
	if err != nil {
		t.Fatal(err)
	}
	lagging := 0
	if d, err := c.Client.Digest(ctx, "lag", "set"); err != nil {
		t.Fatal(err)
	} else {
		for part, v := range d.Versions {
			if v < held.vers[part] {
				lagging++
			}
		}
	}
	if lagging != 1 {
		t.Fatalf("replica lags the home on %d partitions, want 1", lagging)
	}

	// The replica is the closest live one by far: the read goes there.
	rt := newReplicaRouter(c.Client, cluster.DirNode, "set", ReplicaConfig{Nodes: []netsim.NodeID{cluster.DirNode, "lag"}, ProbeTTL: time.Hour})
	rt.probes = []replicaProbe{
		{node: cluster.DirNode, home: true, live: true, rtt: time.Second, partitions: len(held.vers)},
		{node: "lag", live: true, rtt: time.Millisecond, partitions: len(held.vers)},
	}
	rt.probedAt = time.Now()
	c.Net.Crash(cluster.DirNode) // so only the replica can answer
	var tally replicaTally
	l, err := rt.relist(ctx, held, nil, &tally)
	c.Net.Restart(cluster.DirNode)
	if err != nil {
		t.Fatal(err)
	}
	if tally.served.Load() != 1 {
		t.Fatalf("the lagging replica's certification counted as %d replica reads, want 1", tally.served.Load())
	}
	if l != held {
		t.Fatalf("relist from a lagging replica replaced the listing: versions %v, held %v", l.vers, held.vers)
	}

	// A closer replica in another layout (one partition, a member the
	// collection never had, at a higher version) sits the read out: the
	// home certifies the held listing.
	c.Net.AddNode("odd")
	odd, err := repo.NewServer(c.Bus, "odd")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(odd.Close)
	if _, _, err := c.Bus.Call(ctx, cluster.DirNode, "odd", repo.MethodSyncPart,
		repo.SyncPartReq{Name: "set", Partitions: 1, Members: []repo.Ref{{ID: "zz-stale", Node: cluster.DirNode}}, Version: held.version + 5}); err != nil {
		t.Fatal(err)
	}
	rt = newReplicaRouter(c.Client, cluster.DirNode, "set", ReplicaConfig{Nodes: []netsim.NodeID{cluster.DirNode, "odd"}, ProbeTTL: time.Hour})
	rt.probes = []replicaProbe{
		{node: cluster.DirNode, home: true, live: true, rtt: time.Second, partitions: len(held.vers)},
		{node: "odd", live: true, rtt: time.Millisecond, partitions: 1},
	}
	rt.probedAt = time.Now()
	tally = replicaTally{}
	if l, err = rt.relist(ctx, held, nil, &tally); err != nil {
		t.Fatal(err)
	}
	if l != held || tally.served.Load() != 0 {
		t.Fatalf("a replica in another layout answered (%d replica reads): %d partitions, %d members", tally.served.Load(), len(l.vers), len(listedRefs(l)))
	}

	// A listing in another layout (one partition, members the collection
	// never had) is replaced whole by the home's 16-partition one.
	other := newListing(held.version, []repo.Ref{{ID: "zz-stale", Node: cluster.DirNode}})
	l, err = newReplicaRouter(c.Client, cluster.DirNode, "set", ReplicaConfig{}).relist(ctx, other, nil, &tally)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.vers) != len(held.vers) || !reflect.DeepEqual(listedRefs(l), listedRefs(held)) {
		t.Fatalf("layout change kept %d partitions and %d members, want the home's %d and %d", len(l.vers), len(listedRefs(l)), len(held.vers), len(listedRefs(held)))
	}
}

// TestReplicaCertifiedRelistIsReported runs a replicated current-state
// run whose first listing comes from the home and whose later
// invocations are certified by a replica with empty gated answers: those
// reads are the replica's, so the run's report must count them and carry
// the replica's sync age, not read as if the home served it all.
func TestReplicaCertifiedRelistIsReported(t *testing.T) {
	w := newTestWorld(t, 12) // elements on storage nodes: batches never replica-routed
	c, ctx := w.c, context.Background()
	c.Net.AddNode("r1")
	r1, err := repo.NewServer(c.Bus, "r1")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r1.Close)
	partitions := 0
	if err := c.Client.ListPartsSubset(ctx, cluster.DirNode, "set", 0, nil, nil, func(pl repo.PartListing) error {
		partitions = pl.Partitions
		_, _, err := c.Bus.Call(ctx, cluster.DirNode, "r1", repo.MethodSyncPart,
			repo.SyncPartReq{Name: "set", Partitions: pl.Partitions, Part: pl.Part, Members: pl.Members, Version: pl.Version})
		return err
	}); err != nil {
		t.Fatal(err)
	}

	s := w.set(t, Options{Semantics: GrowOnly, Fetch: FetchOptions{Batch: 1, Inflight: 1}, Replicas: ReplicaConfig{Nodes: []netsim.NodeID{cluster.DirNode, "r1"}, ProbeTTL: time.Hour}})
	route := func(replicaLive bool) {
		s.router.mu.Lock()
		s.router.probes = []replicaProbe{
			{node: cluster.DirNode, home: true, live: true, rtt: time.Second, partitions: partitions},
			{node: "r1", live: replicaLive, rtt: time.Millisecond, partitions: partitions, ageMs: 40},
		}
		s.router.probedAt = time.Now()
		s.router.mu.Unlock()
	}
	route(false)
	it, err := s.Elements(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close(ctx)
	if !it.Next(ctx) {
		t.Fatal(it.Err())
	}
	if served := it.Weakness().ReplicaServed; served != 0 {
		t.Fatalf("the home's opening listing counted %d replica reads", served)
	}
	route(true)
	n := 1
	for it.Next(ctx) {
		n++
	}
	if it.Err() != nil || n != 12 {
		t.Fatalf("yielded %d of 12, err %v", n, it.Err())
	}
	wk := it.Weakness()
	if wk.ReplicaServed < int64(n-1) {
		t.Fatalf("ReplicaServed %d after %d replica-certified invocations", wk.ReplicaServed, n-1)
	}
	if wk.GhostAge != 40*time.Millisecond {
		t.Fatalf("GhostAge %v, want the certifying replica's 40ms", wk.GhostAge)
	}
}

// TestMarkDeadExcludesUntilReprobe kills a replica after it was probed
// live: the first read that hits it marks it dead for the rest of the
// probe interval, and a fresh probe restores it after restart.
func TestMarkDeadExcludesUntilReprobe(t *testing.T) {
	w, nodes := newReplicaWorld(t, 8, 2, 0)
	rt := newReplicaRouter(w.c.Client, cluster.DirNode, "set", ReplicaConfig{Nodes: nodes, ProbeTTL: time.Hour})
	ctx := context.Background()
	if live := liveByRTT(rt.probe(ctx)); len(live) != 2 {
		t.Fatalf("want 2 live replicas, got %d", len(live))
	}

	w.c.Net.Crash(nodes[1])
	rt.markDead(nodes[1])
	live := liveByRTT(rt.probe(ctx)) // cached: must reflect the mark, not re-probe
	if len(live) != 1 || live[0].node != nodes[0] {
		t.Fatalf("dead replica still routed: %v", live)
	}

	// Reads keep completing from the home while the replica is dead.
	var tally replicaTally
	if l, err := rt.relist(ctx, nil, nil, &tally); err != nil || len(listedRefs(l)) != 8 {
		t.Fatalf("relist with dead replica: %v, err %v", l, err)
	} else if served := tally.served.Load(); served != 0 {
		t.Fatalf("%d frames served by a replica, want all from home %s", served, nodes[0])
	}

	// Restart and force a fresh probe: the replica must rejoin routing.
	w.c.Net.Restart(nodes[1])
	rt.mu.Lock()
	rt.probedAt = time.Time{}
	rt.mu.Unlock()
	if live := liveByRTT(rt.probe(ctx)); len(live) != 2 {
		t.Fatalf("restarted replica never rejoined: %v", live)
	}
}

// TestAntiEntropyConvergenceAfterPartition isolates a replica, grows the
// set, heals, and requires the replica to converge via the background
// ticker — at which point a replica-routed run must report zero skew.
// Readers run concurrently with the repair to exercise the router and
// ingest accounting under -race.
func TestAntiEntropyConvergenceAfterPartition(t *testing.T) {
	w, nodes := newReplicaWorld(t, 12, 3, 0)
	w.c.Servers[cluster.DirNode].SetAntiEntropy(5 * time.Millisecond)
	ctx := context.Background()

	w.c.Net.Isolate(nodes[1])
	for i := 12; i < 20; i++ {
		addHomeElement(t, w, i)
	}

	// While the replica lags, concurrent replica-routed readers must all
	// still complete (home and the healthy replica carry the reads).
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := NewSet(w.c.ClientAt(cluster.HomeNode), cluster.DirNode, "set", Options{
				Semantics: GrowOnly,
				Replicas:  ReplicaConfig{Nodes: nodes, ProbeTTL: time.Millisecond},
			})
			if err != nil {
				t.Error(err)
				return
			}
			elems, err := s.Collect(ctx)
			if err != nil {
				t.Errorf("collect during partition: %v", err)
				return
			}
			if len(elems) < 12 {
				t.Errorf("yielded %d elements, want >= 12", len(elems))
			}
		}()
	}
	wg.Wait()

	// Heal; the ticker must converge the replica with no further writes.
	w.c.Net.Rejoin(nodes[1])
	waitForReplicaVersions(t, w, nodes)

	s := w.set(t, Options{Semantics: GrowOnly, Replicas: ReplicaConfig{Nodes: nodes}})
	it, err := s.Elements(ctx)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for it.Next(ctx) {
		n++
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if n != 20 {
		t.Fatalf("yielded %d elements after repair, want 20", n)
	}
	if wk := it.Weakness(); wk.ReplicaSkew != 0 {
		t.Fatalf("converged replicas reported skew %d", wk.ReplicaSkew)
	}
}

// newDirReplicaWorld replicates only the directory: membership lives on
// dir (home), s0 and s1, while every element's object lives on s2 or s3 —
// so crashing membership replicas takes out listings, never element data.
func newDirReplicaWorld(t *testing.T, elements int) (*testWorld, []netsim.NodeID) {
	t.Helper()
	w := newTestWorld(t, 0)
	c, ctx := w.c, context.Background()
	for i := 0; i < elements; i++ {
		id := repo.ObjectID(fmt.Sprintf("e%03d", i))
		ref, err := c.Client.Put(ctx, c.Storage[2+i%2], repo.Object{ID: id, Data: []byte("x")})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Client.Add(ctx, cluster.DirNode, "set", ref); err != nil {
			t.Fatal(err)
		}
		w.refs = append(w.refs, ref)
	}
	nodes := []netsim.NodeID{cluster.DirNode, c.Storage[0], c.Storage[1]}
	if err := c.Servers[cluster.DirNode].ReplicateCollection("set", nodes[1:]); err != nil {
		t.Fatal(err)
	}
	waitForReplicaVersions(t, w, nodes)
	return w, nodes
}

// TestReplicaAdoptsHomeLayout puts a replica whose engine lays
// collections out in 4 partitions, already holding the collection in
// that layout, under a 16-partition home. Per-partition pushes alone must
// bring it to the home's layout and membership, and a scattered read must
// then take partitions from it and yield exactly the home's members.
func TestReplicaAdoptsHomeLayout(t *testing.T) {
	w := newTestWorld(t, 0)
	c, ctx := w.c, context.Background()
	for i := 0; i < 24; i++ {
		addHomeElement(t, w, i)
	}
	c.Net.AddNode("r4")
	replica, err := repo.NewServerWithStore(c.Bus, "r4", store.NewSharded(store.Config{Partitions: 4}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(replica.Close)
	if err := replica.Store().CreateCollection("set"); err != nil {
		t.Fatal(err)
	}
	nodes := []netsim.NodeID{cluster.DirNode, "r4"}
	pushes := c.Bus.MethodCalls(repo.MethodSyncPart)
	if err := c.Servers[cluster.DirNode].ReplicateCollection("set", nodes[1:]); err != nil {
		t.Fatal(err)
	}
	waitForReplicaVersions(t, w, nodes)
	if total, _ := replica.Store().Partitions("set"); total != store.DefaultPartitions {
		t.Fatalf("replica holds %d partitions, want the home's %d", total, store.DefaultPartitions)
	}
	if got := c.Bus.MethodCalls(repo.MethodSyncPart) - pushes; got < store.DefaultPartitions {
		t.Fatalf("converged after %d partition pushes, want one per partition at least", got)
	}

	// An Immutable opening scatters: partitions are dealt to both nodes.
	it, err := w.set(t, Options{Semantics: Immutable, Replicas: ReplicaConfig{Nodes: nodes}}).Elements(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close(ctx)
	var got []string
	for it.Next(ctx) {
		got = append(got, string(it.Element().Ref.ID))
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	sort.Strings(got)
	want := make([]string, len(w.refs))
	for i, ref := range w.refs {
		want[i] = string(ref.ID)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scattered read yielded %v, want the home's %v", got, want)
	}
	if it.Weakness().ReplicaServed == 0 {
		t.Fatal("the re-laid out replica served nothing")
	}
}

// TestGrowOnlyReplicasToleratePrimaryOutage crashes the home directory:
// a single-directory grow-only run cannot even read membership, while a
// replica-routed one lists from a surviving replica and completes.
func TestGrowOnlyReplicasToleratePrimaryOutage(t *testing.T) {
	w, nodes := newDirReplicaWorld(t, 6)
	ctx := context.Background()
	w.c.Net.Crash(cluster.DirNode)

	plain := w.set(t, Options{Semantics: GrowOnly})
	if _, err := plain.Collect(ctx); !errors.Is(err, ErrFailure) {
		t.Fatalf("single-directory read should fail: %v", err)
	}

	s := w.set(t, Options{Semantics: GrowOnly, Replicas: ReplicaConfig{Nodes: nodes}})
	elems, err := s.Collect(ctx)
	if err != nil {
		t.Fatalf("replicated grow-only failed: %v", err)
	}
	if len(elems) != 6 {
		t.Fatalf("yielded %d, want 6", len(elems))
	}
}

// TestOptimisticReplicasBlockWhileAllDownThenRecover takes out the home
// and every replica: the optimistic run blocks (no node can list the
// set), then finishes once a single non-home replica restarts.
func TestOptimisticReplicasBlockWhileAllDownThenRecover(t *testing.T) {
	w, nodes := newDirReplicaWorld(t, 4)
	ctx := context.Background()
	for _, n := range nodes {
		w.c.Net.Crash(n)
	}
	s := w.set(t, Options{
		Semantics:  Optimistic,
		BlockRetry: time.Millisecond,
		Replicas:   ReplicaConfig{Nodes: nodes, ProbeTTL: time.Millisecond},
	})
	go func() {
		time.Sleep(20 * time.Millisecond)
		w.c.Net.Restart(nodes[1])
	}()
	it, err := s.Elements(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close(ctx)
	n := 0
	for it.Next(ctx) {
		n++
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if n != 4 {
		t.Fatalf("yielded %d, want 4", n)
	}
	if it.Weakness().Blocked == 0 {
		t.Fatal("run never blocked with every replica down")
	}
}

// TestScatterSurvivesReplicaKill crashes a replica between two snapshot
// runs sharing one (cached) probe: the second run's scatter still
// believes the replica is live, so its share of partitions must be
// reassigned to the survivors mid-stream and the run must stay complete.
func TestScatterSurvivesReplicaKill(t *testing.T) {
	w, nodes := newReplicaWorld(t, 40, 3, 0)
	ctx := context.Background()
	cfg := ReplicaConfig{Nodes: nodes, ProbeTTL: time.Hour}

	s := w.set(t, Options{Semantics: Immutable, Replicas: cfg})
	elems, err := s.Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(elems) != 40 {
		t.Fatalf("healthy scatter yielded %d elements, want 40", len(elems))
	}

	// Same Set, same cached probe — the kill happens under the router's
	// feet. Concurrent runs race their scatter streams against markDead.
	w.c.Net.Crash(nodes[1])
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			it, err := s.Elements(ctx)
			if err != nil {
				t.Errorf("run %d: %v", r, err)
				return
			}
			n := 0
			for it.Next(ctx) {
				n++
			}
			if it.Err() != nil {
				t.Errorf("run %d after kill: %v", r, it.Err())
				return
			}
			if n != 40 {
				t.Errorf("run %d yielded %d elements after kill, want 40", r, n)
			}
		}(r)
	}
	wg.Wait()
}

// TestReplicaRouterConcurrentProbes hammers one router from many
// goroutines while replicas flap, purely for the race detector: probes,
// markDead, rotation and batch routing share the router's state.
func TestReplicaRouterConcurrentProbes(t *testing.T) {
	w, nodes := newReplicaWorld(t, 8, 3, 0)
	rt := newReplicaRouter(w.c.Client, cluster.DirNode, "set", ReplicaConfig{Nodes: nodes, ProbeTTL: time.Microsecond})
	ctx := context.Background()

	stop := make(chan struct{})
	var flapper sync.WaitGroup
	flapper.Add(1)
	go func() {
		defer flapper.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			node := nodes[1+i%2]
			w.c.Net.Crash(node)
			time.Sleep(200 * time.Microsecond)
			w.c.Net.Restart(node)
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := rt.relist(ctx, nil, nil, new(replicaTally)); err != nil {
					t.Errorf("relist with home up: %v", err)
					return
				}
				rt.routeBatch(ctx, nodes[0])
			}
		}()
	}
	wg.Wait()
	close(stop)
	flapper.Wait()
}

// readMethods are the repository methods a run can reach for membership
// or element data.
var readMethods = []string{
	repo.MethodListParts, repo.MethodGet, repo.MethodGetBatch,
	repo.MethodPin, repo.MethodStats, repo.MethodSyncDigest,
}

// TestUnreplicatedSetReadsThroughRouterAtNoCost pins what one run of an
// unreplicated set costs on the wire, method by method. Every set reads
// through the router, so the figures are the router's over the one-node
// replica set — and they are the plain path's figures from before every
// set had a router: the home alone is never probed, a snapshot opening is
// one streamed ListParts, a current-state run pays one gated ListParts
// per invocation (n yields plus the terminal one), and 12 elements spread
// over 4 nodes are 4 GetBatch.
func TestUnreplicatedSetReadsThroughRouterAtNoCost(t *testing.T) {
	const n = 12
	want := map[Semantics]map[string]int64{
		Snapshot:   {repo.MethodListParts: 1, repo.MethodGetBatch: 4, repo.MethodPin: 1},
		GrowOnly:   {repo.MethodListParts: n + 1, repo.MethodGetBatch: 4},
		Optimistic: {repo.MethodListParts: n + 1, repo.MethodGetBatch: 4},
	}
	for sem, calls := range want {
		t.Run(sem.String(), func(t *testing.T) {
			w := newTestWorld(t, n)
			s := w.set(t, Options{Semantics: sem})
			w.c.Bus.ResetStats()
			elems, err := s.Collect(context.Background())
			if err != nil || len(elems) != n {
				t.Fatalf("collected %d elements, err %v", len(elems), err)
			}
			for _, m := range readMethods {
				if got := w.c.Bus.MethodCalls(m); got != calls[m] {
					t.Errorf("%s: %d calls, want %d", m, got, calls[m])
				}
			}
		})
	}
}

// TestPinnedRunStaysHomeBound opens a Snapshot run on a replicated set:
// pins are primary-resident, so its listing must stream from the home in
// one ListParts with no frame counted as replica-served, while the
// unpinned Immutable opening over the same replicas scatters.
func TestPinnedRunStaysHomeBound(t *testing.T) {
	w, nodes := newReplicaWorld(t, 40, 3, 0)
	ctx := context.Background()
	for _, tc := range []struct {
		sem       Semantics
		listParts int64
		scattered bool
	}{
		{Snapshot, 1, false},
		{Immutable, int64(len(nodes)), true},
	} {
		s := w.set(t, Options{Semantics: tc.sem, Replicas: ReplicaConfig{Nodes: nodes}})
		w.c.Bus.ResetStats()
		it, err := s.Elements(ctx)
		if err != nil {
			t.Fatal(err)
		}
		yielded := 0
		for it.Next(ctx) {
			yielded++
		}
		_ = it.Close(ctx)
		if it.Err() != nil || yielded != 40 {
			t.Fatalf("%s: yielded %d, err %v", tc.sem, yielded, it.Err())
		}
		if got := w.c.Bus.MethodCalls(repo.MethodListParts); got != tc.listParts {
			t.Errorf("%s: %d ListParts streams, want %d", tc.sem, got, tc.listParts)
		}
		// Element batches may be replica-served either way; only the
		// listing frames are in question, and those show as skew-free
		// replica serves beyond the batches'.
		batches := w.c.Bus.MethodCalls(repo.MethodGetBatch)
		if served := it.Weakness().ReplicaServed; (served > batches) != tc.scattered {
			t.Errorf("%s: %d replica-served reads over %d batches, scattered=%v", tc.sem, served, batches, tc.scattered)
		}
	}
}

// TestProbeRefreshIsSingleFlight expires the probe under 16 concurrent
// readers: one of them refreshes it — one Digest per replica — and the
// rest share that result instead of each fanning out its own.
func TestProbeRefreshIsSingleFlight(t *testing.T) {
	// A real scale and 100 ms links (1 ms real, one way) keep the refresh
	// in flight long enough for every reader to find the probe expired.
	w, nodes := newReplicaWorld(t, 8, 3, sim.TimeScale(0.01))
	for _, n := range nodes {
		w.c.Net.SetLinkLatency(cluster.HomeNode, n, sim.Fixed(100*time.Millisecond))
	}
	rt := newReplicaRouter(w.c.Client, cluster.DirNode, "set", ReplicaConfig{Nodes: nodes, ProbeTTL: time.Hour})
	ctx := context.Background()
	rt.probe(ctx)
	rt.mu.Lock()
	rt.probedAt = time.Time{}
	rt.mu.Unlock()

	w.c.Bus.ResetStats()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if l, err := rt.relist(ctx, nil, nil, new(replicaTally)); err != nil || len(listedRefs(l)) != 8 {
				t.Errorf("relist: %v, err %v", l, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := w.c.Bus.MethodCalls(repo.MethodSyncDigest); got != int64(len(nodes)) {
		t.Fatalf("%d Digest calls for one refresh of %d replicas", got, len(nodes))
	}
}
