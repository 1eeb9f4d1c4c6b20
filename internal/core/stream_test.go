package core

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"weaksets/internal/repo"
	"weaksets/internal/spec"
)

// TestStreamedListingMatchesMonolithic holds the streamed scatter-gather
// opening listing to the test world's ground truth (the refs the world
// added, i.e. what one monolithic listing of the quiescent collection
// holds): for every snapshot-governed semantics the run must yield
// exactly those members, each once, with its own data.
func TestStreamedListingMatchesMonolithic(t *testing.T) {
	w := newTestWorld(t, 60)
	want := make([]string, len(w.refs))
	for i, ref := range w.refs {
		want[i] = string(ref.ID)
	}
	sort.Strings(want)
	for _, sem := range []Semantics{Immutable, ImmutablePerRun, Snapshot} {
		t.Run(sem.String(), func(t *testing.T) {
			streamed, err := w.set(t, Options{Semantics: sem}).Collect(context.Background())
			if err != nil {
				t.Fatalf("streamed collect: %v", err)
			}
			got := elementIDs(streamed)
			if len(got) != len(want) {
				t.Fatalf("streamed yielded %d elements, world holds %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("element %d: streamed %s != world %s", i, got[i], want[i])
				}
			}
			for _, e := range streamed {
				var i int
				if _, err := fmt.Sscanf(string(e.Ref.ID), "e%03d", &i); err != nil {
					t.Fatalf("element id %q: %v", e.Ref.ID, err)
				}
				if string(e.Data) != fmt.Sprintf("data-%d", i) || e.Ref.Node != w.c.StorageFor(i) {
					t.Fatalf("element %s came back as %q from %s", e.Ref.ID, e.Data, e.Ref.Node)
				}
			}
		})
	}
}

// TestStreamedListingWithRecorder runs the streamed listing under a
// conformance recorder: the cursor fast path must stand down and every
// invocation must still satisfy the executable specification.
func TestStreamedListingWithRecorder(t *testing.T) {
	w := newTestWorld(t, 40)
	for _, sem := range []Semantics{Immutable, Snapshot} {
		t.Run(sem.String(), func(t *testing.T) {
			rec := spec.NewRecorder()
			s := w.set(t, Options{Semantics: sem, Recorder: rec})
			got, err := s.Collect(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 40 {
				t.Fatalf("yielded %d, want 40", len(got))
			}
			if err := spec.CheckRun(sem.Figure(), rec.Run()); err != nil {
				t.Fatalf("conformance: %v", err)
			}
		})
	}
}

// TestFoldCountsPartitionSkew unit-tests the ingest fold: Skewed frames
// feed the weakness counter, members merge dedup'd into the cursor in
// id order, and the sealed snapshot version is the max partition
// version.
func TestFoldCountsPartitionSkew(t *testing.T) {
	it := &Iterator{held: newListing(0, nil), yielded: make(map[spec.ElemID]bool)}
	it.ing = newPartIngest(&it.rep)
	it.fold(repo.PartListing{Part: 1, Partitions: 2, Version: 7, Members: []repo.Ref{
		{ID: "b", Node: "n1"}, {ID: "d", Node: "n2"},
	}})
	it.fold(repo.PartListing{Part: 0, Partitions: 2, Version: 9, Skewed: true, Members: []repo.Ref{
		{ID: "a", Node: "n1"}, {ID: "c", Node: "n1"}, {ID: "b", Node: "n1"},
	}})
	if it.wk.PartitionSkew != 1 {
		t.Fatalf("PartitionSkew = %d, want 1", it.wk.PartitionSkew)
	}
	if it.maxPartVer != 9 {
		t.Fatalf("maxPartVer = %d, want 9", it.maxPartVer)
	}
	want := []spec.ElemID{"a", "b", "c", "d"}
	if len(it.cursor) != len(want) {
		t.Fatalf("cursor = %v, want %v", it.cursor, want)
	}
	for i, id := range want {
		if it.cursor[i] != id {
			t.Fatalf("cursor = %v, want %v", it.cursor, want)
		}
	}
	if len(it.held.members) != 4 || !it.held.nodes["n1"] || !it.held.nodes["n2"] {
		t.Fatalf("members=%v nodes=%v", it.held.members, it.held.nodes)
	}
}
