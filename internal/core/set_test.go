package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"weaksets/internal/cluster"
	"weaksets/internal/locksvc"
	"weaksets/internal/repo"
	"weaksets/internal/spec"
)

// testWorld is a zero-scale cluster with a populated collection.
type testWorld struct {
	c    *cluster.Cluster
	refs []repo.Ref
}

func newTestWorld(t *testing.T, n int) *testWorld {
	t.Helper()
	c, err := cluster.New(cluster.Config{StorageNodes: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ctx := context.Background()
	if err := c.Client.CreateCollection(ctx, cluster.DirNode, "set"); err != nil {
		t.Fatal(err)
	}
	w := &testWorld{c: c}
	for i := 0; i < n; i++ {
		w.addElement(t, i)
	}
	return w
}

func (w *testWorld) addElement(t *testing.T, i int) repo.Ref {
	t.Helper()
	ctx := context.Background()
	id := repo.ObjectID(fmt.Sprintf("e%03d", i))
	node := w.c.StorageFor(i)
	ref, err := w.c.Client.Put(ctx, node, repo.Object{ID: id, Data: []byte(fmt.Sprintf("data-%d", i))})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.c.Client.Add(ctx, cluster.DirNode, "set", ref); err != nil {
		t.Fatal(err)
	}
	w.refs = append(w.refs, ref)
	return ref
}

func (w *testWorld) set(t *testing.T, opts Options) *Set {
	t.Helper()
	if opts.LockServer == "" && opts.Semantics == ImmutablePerRun {
		opts.LockServer = w.c.LockNode
	}
	s, err := NewSet(w.c.Client, cluster.DirNode, "set", opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func elementIDs(es []Element) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = string(e.Ref.ID)
	}
	sort.Strings(out)
	return out
}

func TestNewSetValidation(t *testing.T) {
	w := newTestWorld(t, 0)
	if _, err := NewSet(w.c.Client, cluster.DirNode, "set", Options{}); err == nil {
		t.Fatal("invalid semantics accepted")
	}
	if _, err := NewSet(w.c.Client, cluster.DirNode, "set", Options{Semantics: ImmutablePerRun}); err == nil {
		t.Fatal("ImmutablePerRun without lock server accepted")
	}
}

func TestCollectHealthyAllSemantics(t *testing.T) {
	w := newTestWorld(t, 6)
	want := elementIDs(nil)
	for _, ref := range w.refs {
		want = append(want, string(ref.ID))
	}
	sort.Strings(want)
	for _, sem := range AllSemantics() {
		sem := sem
		t.Run(sem.String(), func(t *testing.T) {
			s := w.set(t, Options{Semantics: sem})
			got, err := s.Collect(context.Background())
			if err != nil {
				t.Fatalf("collect: %v", err)
			}
			gotIDs := elementIDs(got)
			if len(gotIDs) != len(want) {
				t.Fatalf("got %v, want %v", gotIDs, want)
			}
			for i := range want {
				if gotIDs[i] != want[i] {
					t.Fatalf("got %v, want %v", gotIDs, want)
				}
			}
			for _, e := range got {
				if len(e.Data) == 0 || e.Stale {
					t.Fatalf("element %s missing data", e.Ref.ID)
				}
			}
		})
	}
}

func TestSetProcedures(t *testing.T) {
	w := newTestWorld(t, 3)
	ctx := context.Background()
	s := w.set(t, Options{Semantics: Optimistic})
	n, err := s.Size(ctx)
	if err != nil || n != 3 {
		t.Fatalf("size = %d, %v", n, err)
	}
	ref, err := w.c.Client.Put(ctx, w.c.StorageFor(9), repo.Object{ID: "extra", Data: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(ctx, ref); err != nil {
		t.Fatal(err)
	}
	if n, _ = s.Size(ctx); n != 4 {
		t.Fatalf("size after add = %d", n)
	}
	if err := s.Remove(ctx, ref); err != nil {
		t.Fatal(err)
	}
	if n, _ = s.Size(ctx); n != 3 {
		t.Fatalf("size after remove = %d", n)
	}
	if s.Name() != "set" || s.Dir() != cluster.DirNode || s.Semantics() != Optimistic {
		t.Fatal("accessors wrong")
	}
}

// TestSizeCountsWithoutListing holds Size to the listing's length — on a
// live set and while an open grow window keeps a removed member listed as
// a ghost — and to never shipping the listing to count it.
func TestSizeCountsWithoutListing(t *testing.T) {
	w := newTestWorld(t, 5)
	ctx := context.Background()
	s := w.set(t, Options{Semantics: GrowOnlyPerRun})
	check := func(when string) {
		t.Helper()
		listed, _, err := w.c.Client.List(ctx, cluster.DirNode, "set")
		if err != nil {
			t.Fatal(err)
		}
		w.c.Bus.ResetStats()
		n, err := s.Size(ctx)
		if err != nil || n != len(listed) {
			t.Fatalf("%s: size = %d, %v; the listing holds %d", when, n, err, len(listed))
		}
		if calls := w.c.Bus.MethodCalls(repo.MethodListParts); calls != 0 {
			t.Fatalf("%s: Size issued %d ListParts calls", when, calls)
		}
	}
	check("live")

	it, err := s.Elements(ctx) // opens the grow window
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close(ctx)
	if err := s.Remove(ctx, w.refs[2]); err != nil {
		t.Fatal(err)
	}
	if st, err := s.Stats(ctx); err != nil || st.Ghosts != 1 {
		t.Fatalf("removal under the window was not deferred: %+v, %v", st, err)
	}
	check("deferred removal")
}

func TestImmutableFailsUnderPartition(t *testing.T) {
	w := newTestWorld(t, 8)
	ctx := context.Background()
	// Partition one storage node away; its elements become unreachable.
	w.c.Net.Isolate(w.c.Storage[0])
	s := w.set(t, Options{Semantics: Immutable})
	got, err := s.Collect(ctx)
	if !errors.Is(err, ErrFailure) {
		t.Fatalf("err = %v, want ErrFailure", err)
	}
	// 8 elements round-robin over 4 nodes: 2 are unreachable.
	if len(got) != 6 {
		t.Fatalf("yielded %d elements before failing, want 6", len(got))
	}
}

func TestImmutableRepairedMidRunCompletes(t *testing.T) {
	w := newTestWorld(t, 8)
	ctx := context.Background()
	w.c.Net.Isolate(w.c.Storage[0])
	s := w.set(t, Options{Semantics: Immutable})
	it, err := s.Elements(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close(ctx)
	count := 0
	for it.Next(ctx) {
		count++
		if count == 3 {
			// Repair before the reachable ones run out.
			w.c.Net.Rejoin(w.c.Storage[0])
		}
	}
	if err := it.Err(); err != nil {
		t.Fatalf("iterator failed despite repair: %v", err)
	}
	if count != 8 {
		t.Fatalf("yielded %d, want 8", count)
	}
}

func TestSnapshotLosesMutations(t *testing.T) {
	w := newTestWorld(t, 4)
	ctx := context.Background()
	s := w.set(t, Options{Semantics: Snapshot})
	it, err := s.Elements(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close(ctx)

	// Mutate after the pin: add one, remove one not yet yielded.
	added := w.addElement(t, 100)
	removed := w.refs[3]
	if !it.Next(ctx) {
		t.Fatalf("first next failed: %v", it.Err())
	}
	if err := w.c.Client.DeleteMember(ctx, cluster.DirNode, "set", removed); err != nil {
		t.Fatal(err)
	}

	var got []Element
	got = append(got, it.Element())
	for it.Next(ctx) {
		got = append(got, it.Element())
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	ids := elementIDs(got)
	if len(ids) != 4 {
		t.Fatalf("snapshot yielded %v, want the 4 original members", ids)
	}
	for _, id := range ids {
		if id == string(added.ID) {
			t.Fatal("snapshot saw a later addition")
		}
	}
	// The deleted member is still yielded — as stale, since its data is
	// gone.
	foundStale := false
	for _, e := range got {
		if e.Ref.ID == removed.ID {
			if !e.Stale {
				t.Fatal("deleted member yielded with data")
			}
			foundStale = true
		}
	}
	if !foundStale {
		t.Fatal("snapshot lost a member deleted mid-run")
	}
}

func TestGrowOnlySeesAdditions(t *testing.T) {
	w := newTestWorld(t, 2)
	ctx := context.Background()
	s := w.set(t, Options{Semantics: GrowOnly})
	it, err := s.Elements(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close(ctx)
	if !it.Next(ctx) {
		t.Fatalf("next: %v", it.Err())
	}
	w.addElement(t, 50)
	count := 1
	for it.Next(ctx) {
		count++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("yielded %d, want 3 (addition seen mid-run)", count)
	}
}

func TestGrowOnlyFailsPessimistically(t *testing.T) {
	w := newTestWorld(t, 4)
	ctx := context.Background()
	w.c.Net.Isolate(w.c.Storage[1])
	s := w.set(t, Options{Semantics: GrowOnly})
	_, err := s.Collect(ctx)
	if !errors.Is(err, ErrFailure) {
		t.Fatalf("err = %v, want ErrFailure", err)
	}
}

func TestGrowOnlyPerRunGhosts(t *testing.T) {
	w := newTestWorld(t, 4)
	ctx := context.Background()
	s := w.set(t, Options{Semantics: GrowOnlyPerRun})
	it, err := s.Elements(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Delete a member mid-run: the ghost must keep it iterable.
	if !it.Next(ctx) {
		t.Fatalf("next: %v", it.Err())
	}
	victim := w.refs[3]
	if err := w.c.Client.DeleteMember(ctx, cluster.DirNode, "set", victim); err != nil {
		t.Fatal(err)
	}
	stats, err := w.c.Client.Stats(ctx, cluster.DirNode, "set")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ghosts != 1 {
		t.Fatalf("ghosts = %d, want 1", stats.Ghosts)
	}

	count := 1
	sawVictim := false
	for it.Next(ctx) {
		count++
		if it.Element().Ref.ID == victim.ID {
			sawVictim = true
			if it.Element().Stale {
				t.Fatal("ghost yielded without data")
			}
		}
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if count != 4 || !sawVictim {
		t.Fatalf("yielded %d (victim %v), want all 4 including ghost", count, sawVictim)
	}
	if err := it.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// Window closed: ghost reclaimed.
	stats, err = w.c.Client.Stats(ctx, cluster.DirNode, "set")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ghosts != 0 || stats.Members != 3 {
		t.Fatalf("after close: %+v", stats)
	}
}

func TestOptimisticBlocksThenCompletesOnRepair(t *testing.T) {
	w := newTestWorld(t, 4)
	ctx := context.Background()
	victimNode := w.c.Storage[2]
	w.c.Net.Isolate(victimNode)
	s := w.set(t, Options{Semantics: Optimistic, BlockRetry: time.Millisecond})
	done := make(chan struct{})
	go func() {
		// Repair after a moment.
		time.Sleep(20 * time.Millisecond)
		w.c.Net.Rejoin(victimNode)
		close(done)
	}()
	got, err := s.Collect(ctx)
	<-done
	if err != nil {
		t.Fatalf("optimistic run errored: %v", err)
	}
	if len(got) != 4 {
		t.Fatalf("yielded %d, want 4", len(got))
	}
}

func TestOptimisticMaxBlock(t *testing.T) {
	w := newTestWorld(t, 4)
	w.c.Net.Isolate(w.c.Storage[0])
	s := w.set(t, Options{
		Semantics:  Optimistic,
		BlockRetry: time.Millisecond,
		MaxBlock:   5 * time.Millisecond,
	})
	_, err := s.Collect(context.Background())
	if !errors.Is(err, ErrBlocked) {
		t.Fatalf("err = %v, want ErrBlocked", err)
	}
}

func TestOptimisticContextCancelWhileBlocked(t *testing.T) {
	w := newTestWorld(t, 4)
	w.c.Net.Isolate(w.c.Storage[0])
	s := w.set(t, Options{Semantics: Optimistic, BlockRetry: time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := s.Collect(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestOptimisticToleratesConcurrentDeletion(t *testing.T) {
	w := newTestWorld(t, 6)
	ctx := context.Background()
	s := w.set(t, Options{Semantics: Optimistic})
	it, err := s.Elements(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close(ctx)
	if !it.Next(ctx) {
		t.Fatalf("next: %v", it.Err())
	}
	// Delete two not-yet-yielded members mid-run.
	for _, victim := range w.refs[4:6] {
		if err := w.c.Client.DeleteMember(ctx, cluster.DirNode, "set", victim); err != nil {
			t.Fatal(err)
		}
	}
	count := 1
	for it.Next(ctx) {
		count++
	}
	if err := it.Err(); err != nil {
		t.Fatalf("optimistic errored on deletion: %v", err)
	}
	if count != 4 {
		t.Fatalf("yielded %d, want 4 (two deleted mid-run)", count)
	}
}

func TestImmutablePerRunExcludesWriters(t *testing.T) {
	w := newTestWorld(t, 3)
	ctx := context.Background()
	s := w.set(t, Options{Semantics: ImmutablePerRun, LockTTL: 10 * time.Second})
	it, err := s.Elements(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// While the run is open, a writer cannot take the write lock.
	writer := w.c.Client
	wl, err := NewSet(writer, cluster.DirNode, "set", Options{Semantics: ImmutablePerRun, LockServer: w.c.LockNode})
	if err != nil {
		t.Fatal(err)
	}
	_ = wl
	lockCli := s.lockClient("writer-1")
	granted, err := lockCli.TryAcquire(ctx, w.c.LockNode, lockName("set"), locksvc.Write, 0)
	if err != nil {
		t.Fatal(err)
	}
	if granted {
		t.Fatal("writer acquired lock during iteration")
	}
	for it.Next(ctx) {
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if err := it.Close(ctx); err != nil {
		t.Fatal(err)
	}
	granted, err = lockCli.TryAcquire(ctx, w.c.LockNode, lockName("set"), locksvc.Write, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !granted {
		t.Fatal("writer still excluded after Close")
	}
}

func TestTwoReadersShareImmutablePerRun(t *testing.T) {
	w := newTestWorld(t, 3)
	ctx := context.Background()
	s := w.set(t, Options{Semantics: ImmutablePerRun})
	it1, err := s.Elements(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer it1.Close(ctx)
	it2, err := s.Elements(ctx)
	if err != nil {
		t.Fatalf("second reader blocked: %v", err)
	}
	defer it2.Close(ctx)
	for it2.Next(ctx) {
	}
	if err := it2.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestElementsFailsWhenDirUnreachable(t *testing.T) {
	w := newTestWorld(t, 3)
	w.c.Net.Isolate(cluster.HomeNode)
	s := w.set(t, Options{Semantics: Snapshot})
	if _, err := s.Elements(context.Background()); !errors.Is(err, ErrFailure) {
		t.Fatalf("err = %v, want ErrFailure", err)
	}
}

func TestIteratorAfterClose(t *testing.T) {
	w := newTestWorld(t, 2)
	ctx := context.Background()
	s := w.set(t, Options{Semantics: Optimistic})
	it, err := s.Elements(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if it.Next(ctx) {
		t.Fatal("Next succeeded after Close")
	}
	if err := it.Close(ctx); err != nil {
		t.Fatal("Close not idempotent")
	}
}

func TestLiveRunConformance(t *testing.T) {
	// Check a live distributed run's history against the executable spec.
	// The environment is quiescent during the run, so the recorded
	// pre-states are exact.
	for _, sem := range AllSemantics() {
		sem := sem
		t.Run(sem.String(), func(t *testing.T) {
			w := newTestWorld(t, 5)
			run, err := collectRecorded(context.Background(), w.set(t, Options{Semantics: sem}))
			if err != nil {
				t.Fatal(err)
			}
			if err := spec.CheckRun(sem.Figure(), run); err != nil {
				t.Fatalf("live run violates %s: %v", sem.Figure(), err)
			}
		})
	}
}

func TestLiveRunConformanceUnderFailure(t *testing.T) {
	// Pessimistic semantics under partition must record a spec-conformant
	// failing run.
	for _, sem := range []Semantics{Immutable, Snapshot, GrowOnly} {
		sem := sem
		t.Run(sem.String(), func(t *testing.T) {
			w := newTestWorld(t, 8)
			w.c.Net.Isolate(w.c.Storage[3])
			run, err := collectRecorded(context.Background(), w.set(t, Options{Semantics: sem}))
			if !errors.Is(err, ErrFailure) {
				t.Fatalf("err = %v, want ErrFailure", err)
			}
			if err := spec.CheckRun(sem.Figure(), run); err != nil {
				t.Fatalf("failing run violates %s: %v", sem.Figure(), err)
			}
			if !run.Terminated() {
				t.Fatal("run not terminated")
			}
			last := run.Invocations[len(run.Invocations)-1]
			if last.Outcome != spec.Failed {
				t.Fatalf("last outcome = %s, want fails", last.Outcome)
			}
		})
	}
}

// TestPerRunRelaxationAcrossRuns exercises the §3.1 story end to end: two
// recorded runs with a mutation between them satisfy the per-run
// relaxation but refute global immutability.
func TestPerRunRelaxationAcrossRuns(t *testing.T) {
	w := newTestWorld(t, 3)
	ctx := context.Background()

	runOnce := func() spec.Run {
		run, err := collectRecorded(ctx, w.set(t, Options{Semantics: ImmutablePerRun}))
		if err != nil {
			t.Fatal(err)
		}
		return run
	}

	run1 := runOnce()
	w.addElement(t, 50) // mutation strictly between runs
	run2 := runOnce()

	runs := []spec.Run{run1, run2}
	if err := spec.CheckRuns(spec.ConstraintImmutablePerRun, runs); err != nil {
		t.Fatalf("per-run relaxation rejected between-run mutation: %v", err)
	}
	if err := spec.CheckRuns(spec.ConstraintImmutable, runs); err == nil {
		t.Fatal("global immutability accepted between-run mutation")
	}
	// Each run individually satisfies Fig 3.
	for i, run := range runs {
		if err := spec.CheckRun(spec.Fig3, run); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if run2.Invocations[0].Pre.Members["e050"] == false {
		t.Fatal("second run did not observe the new element")
	}
}
