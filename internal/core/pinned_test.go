package core

import (
	"context"
	"slices"
	"testing"

	"weaksets/internal/cluster"
	"weaksets/internal/repo"
	"weaksets/internal/store"
)

// snapshotThroughTap is an n-member world whose Snapshot set reads its
// directory through a listing tap, and the set after one run has
// published its pinned listing.
func snapshotThroughTap(t *testing.T, n int) (*testWorld, *Set, *listingTap) {
	t.Helper()
	w := newTestWorld(t, n)
	dir, tap := newListingTap(t, w.c)
	s, err := NewSet(w.c.Client, dir, "set", Options{Semantics: Snapshot})
	if err != nil {
		t.Fatal(err)
	}
	if elems, err := s.Collect(context.Background()); err != nil || len(elems) != n {
		t.Fatalf("first run: %d elems, %v", len(elems), err)
	}
	if frames := tap.take(); len(frames) != store.DefaultPartitions {
		t.Fatalf("the first run streamed %d frames, want the pin's %d partitions", len(frames), store.DefaultPartitions)
	}
	return w, s, tap
}

// TestUnchangedSnapshotOpenListsNothing: a snapshot run of a set whose
// held pinned listing is what the pin holds opens on it with no ListParts
// call at all, and yields the whole set.
func TestUnchangedSnapshotOpenListsNothing(t *testing.T) {
	w, s, tap := snapshotThroughTap(t, 64)
	lists := w.c.Bus.MethodCalls(repo.MethodListParts)
	elems, err := s.Collect(context.Background())
	if err != nil || len(elems) != 64 {
		t.Fatalf("unchanged run: %d elems, %v", len(elems), err)
	}
	if d := w.c.Bus.MethodCalls(repo.MethodListParts) - lists; d != 0 {
		t.Fatalf("an unchanged snapshot open made %d ListParts calls, want 0", d)
	}
	if frames := tap.take(); len(frames) != 0 {
		t.Fatalf("an unchanged snapshot open relayed %d frames", len(frames))
	}
}

// TestSnapshotRunAfterWriteShipsMovedPartition: after one Add, the next
// snapshot run receives exactly the partition the Add moved — at the
// pin, so holding the added member — and yields the set with it.
func TestSnapshotRunAfterWriteShipsMovedPartition(t *testing.T) {
	w, s, tap := snapshotThroughTap(t, 512)
	ctx := context.Background()
	added := w.addElement(t, 512)
	elems, err := s.Collect(ctx)
	if err != nil || len(elems) != 513 || !slices.Contains(elementIDs(elems), string(added.ID)) {
		t.Fatalf("post-write run: %d elems, %v", len(elems), err)
	}
	frames := tap.take()
	if len(frames) != 1 {
		t.Fatalf("post-write run received %d frames, want the one moved partition", len(frames))
	}
	var want []repo.Ref
	if err := w.c.Client.ListPartsSubset(ctx, cluster.DirNode, "set", 0, nil, []int{frames[0].Part}, func(pl repo.PartListing) error {
		want = pl.Members
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(frames[0].Members, want) || !slices.Contains(want, added) {
		t.Fatalf("the run received %d refs of partition %d; it holds %d, the added member among them: %v",
			len(frames[0].Members), frames[0].Part, len(want), slices.Contains(want, added))
	}
}

// TestHeldListingNewerThanPinYieldsThePin: a run pins; before it opens,
// a write lands and another run of the same set pins after it and
// publishes its listing. The first run's held listing is then newer than
// its pin in the written partition, which it reads back at the pin: it
// yields exactly the pin's membership.
func TestHeldListingNewerThanPinYieldsThePin(t *testing.T) {
	w, s, tap := snapshotThroughTap(t, 64)
	ctx := context.Background()
	var added repo.Ref
	tap.mu.Lock()
	tap.afterPin = func() {
		added = w.addElement(t, 64)
		if elems, err := s.Collect(ctx); err != nil || len(elems) != 65 {
			t.Errorf("the later run: %d elems, %v", len(elems), err)
		}
		if frames := tap.take(); len(frames) != 1 {
			t.Errorf("the later run received %d frames, want the written partition", len(frames))
		}
	}
	tap.mu.Unlock()
	it, err := s.Elements(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close(ctx)
	var got []Element
	for it.Next(ctx) {
		got = append(got, it.Element())
	}
	if it.Err() != nil || len(got) != 64 || slices.Contains(elementIDs(got), string(added.ID)) {
		t.Fatalf("the earlier pin's run yielded %d elements (the later add among them: %v), err %v; want the 64 at its pin",
			len(got), slices.Contains(elementIDs(got), string(added.ID)), it.Err())
	}
	if frames := tap.take(); len(frames) != 1 {
		t.Fatalf("the earlier pin's run received %d frames, want the written partition read back at the pin", len(frames))
	}
	if held := s.lastPinned.Load(); held == nil || held.version <= it.tab.version {
		t.Fatal("the earlier pin's listing replaced the newer held one")
	}
}

// TestSnapshotRunYieldsNoGhost: a member removed while a GrowOnlyPerRun
// window is open stays listed as a ghost, at a new partition version.
// A snapshot run pinned then holds no ghost, even though the set holds a
// current-state listing that lists it at the very versions the pin
// reports — and neither does the next run, opened on the held pinned
// listing.
func TestSnapshotRunYieldsNoGhost(t *testing.T) {
	w := newTestWorld(t, 64)
	ctx := context.Background()
	s := w.set(t, Options{Semantics: Snapshot})
	if _, err := s.Collect(ctx); err != nil {
		t.Fatal(err)
	}
	window, err := w.set(t, Options{Semantics: GrowOnlyPerRun}).Elements(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer window.Close(ctx)
	victim := w.refs[7]
	if err := s.Remove(ctx, victim); err != nil {
		t.Fatal(err)
	}
	listed, err := s.router.relist(ctx, nil, nil, &replicaTally{})
	if err != nil || !slices.Contains(listedRefs(listed), victim) {
		t.Fatalf("the live listing does not list the ghost (err %v)", err)
	}
	s.lastListing.Store(listed)
	for run := 0; run < 2; run++ {
		elems, err := s.Collect(ctx)
		if err != nil || len(elems) != 63 || slices.Contains(elementIDs(elems), string(victim.ID)) {
			t.Fatalf("run %d: %d elems (the ghost among them: %v), %v", run, len(elems), slices.Contains(elementIDs(elems), string(victim.ID)), err)
		}
	}
	if held := s.lastPinned.Load(); !slices.Equal(held.vers, listed.vers) {
		t.Fatalf("pinned versions %v, listed %v: the ghost's partition should read the same version", held.vers, listed.vers)
	}
}
