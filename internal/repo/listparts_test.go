package repo

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"weaksets/internal/store"
)

// partFor mirrors the store's FNV-1a partition map so tests can aim
// mutations at a chosen partition.
func partFor(id ObjectID, total int) int {
	if total == 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return int(h % uint32(total))
}

func seedParts(t *testing.T, w *world, n int) map[ObjectID]bool {
	t.Helper()
	w.mustColl(t, "c")
	ids := make(map[ObjectID]bool, n)
	for i := 0; i < n; i++ {
		ref := w.mustPut(t, "s1", ObjectID(fmt.Sprintf("p%03d", i)), "x")
		if err := w.client.Add(context.Background(), "dir", "c", ref); err != nil {
			t.Fatal(err)
		}
		ids[ref.ID] = true
	}
	return ids
}

func collectParts(t *testing.T, w *world, gates []uint64) []PartListing {
	t.Helper()
	var out []PartListing
	err := w.client.ListPartsSubset(context.Background(), "dir", "c", 0, gates, nil, func(pl PartListing) error {
		out = append(out, pl)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestListPartsReassemblesMembership(t *testing.T) {
	w := newWorld(t)
	want := seedParts(t, w, 50)
	parts := collectParts(t, w, nil)
	if len(parts) < 2 {
		t.Fatalf("got %d partitions, want a partitioned listing", len(parts))
	}
	got := make(map[ObjectID]bool)
	for _, pl := range parts {
		if pl.Partitions != len(parts) {
			t.Fatalf("frame %d stamps Partitions=%d, want %d", pl.Part, pl.Partitions, len(parts))
		}
		for _, m := range pl.Members {
			if got[m.ID] {
				t.Fatalf("member %s listed twice", m.ID)
			}
			got[m.ID] = true
		}
	}
	if len(got) != len(want) {
		t.Fatalf("reassembled %d members, want %d", len(got), len(want))
	}
}

func TestListPartsVersionVectorGating(t *testing.T) {
	w := newWorld(t)
	seedParts(t, w, 50)
	first := collectParts(t, w, nil)
	gates := make([]uint64, len(first))
	for _, pl := range first {
		gates[pl.Part] = pl.Version
	}
	// Gated at the current vector no partition has moved: nothing ships.
	if moved := collectParts(t, w, gates); len(moved) != 0 {
		t.Fatalf("%d partitions shipped under the current gate", len(moved))
	}
	// One add invalidates exactly that member's partition.
	ref := w.mustPut(t, "s1", "fresh-member", "x")
	if err := w.client.Add(context.Background(), "dir", "c", ref); err != nil {
		t.Fatal(err)
	}
	target := partFor(ref.ID, len(first))
	moved := collectParts(t, w, gates)
	if len(moved) != 1 || moved[0].Part != target {
		t.Fatalf("shipped %d partitions (first %+v), want only the mutated partition %d", len(moved), moved, target)
	}
	if moved[0].Version <= gates[target] {
		t.Fatalf("mutated partition %d shipped at version %d, gate %d", target, moved[0].Version, gates[target])
	}
}

// TestListPartsSkewStamping mutates the collection between partition
// snapshots of one streamed listing: the partition snapshotted after
// the write must carry the Skewed mark (and the write), while
// partitions taken before it don't.
func TestListPartsSkewStamping(t *testing.T) {
	w := newWorld(t)
	seedParts(t, w, 50)
	total := len(collectParts(t, w, nil))
	// An id hashing past partition 0, so the mid-stream add lands in a
	// partition not yet snapshotted when frame 0 is delivered.
	var lateID ObjectID
	for i := 0; ; i++ {
		id := ObjectID(fmt.Sprintf("late-%d", i))
		if partFor(id, total) > 0 {
			lateID = id
			break
		}
	}
	ctx := context.Background()
	var (
		sawSkew bool
		sawLate bool
	)
	err := w.client.ListPartsSubset(ctx, "dir", "c", 0, nil, nil, func(pl PartListing) error {
		if pl.Part == 0 {
			if pl.Skewed {
				t.Fatal("first partition marked Skewed before any mid-stream write")
			}
			ref := w.mustPut(t, "s1", lateID, "x")
			if err := w.client.Add(ctx, "dir", "c", ref); err != nil {
				t.Fatal(err)
			}
			return nil
		}
		if pl.Skewed {
			sawSkew = true
		}
		for _, m := range pl.Members {
			if m.ID == lateID {
				sawLate = true
				if !pl.Skewed {
					t.Fatal("partition listing the mid-stream add is not marked Skewed")
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawSkew {
		t.Fatal("no partition marked Skewed after a mid-stream write")
	}
	if !sawLate {
		t.Fatal("mid-stream add never surfaced in a later partition")
	}
}

// TestListPartsPinnedSnapshot reads a pin after a write landed between
// the pin and the read: the frames list the membership at the pin, in
// the collection's layout, each stamped with its partition's version as
// PinResp reported it — not the live version the write moved — and a
// gate at that vector ships nothing.
func TestListPartsPinnedSnapshot(t *testing.T) {
	w := newWorld(t)
	want := seedParts(t, w, 40)
	ctx := context.Background()
	pin, vers, err := w.client.Pin(ctx, "dir", "c")
	if err != nil {
		t.Fatal(err)
	}
	if len(vers) != store.DefaultPartitions {
		t.Fatalf("pin reported %d partition versions, want %d", len(vers), store.DefaultPartitions)
	}
	atPin := slices.Clone(vers)
	defer func() { _ = w.client.Unpin(ctx, "dir", "c", pin) }()
	// Mutations after the pin must not show in the pinned listing.
	ref := w.mustPut(t, "s1", "post-pin", "x")
	if err := w.client.Add(ctx, "dir", "c", ref); err != nil {
		t.Fatal(err)
	}
	got := make(map[ObjectID]bool)
	frameVers := make([]uint64, store.DefaultPartitions)
	err = w.client.ListPartsSubset(ctx, "dir", "c", pin, nil, nil, func(pl PartListing) error {
		for _, m := range pl.Members {
			got[m.ID] = true
		}
		if pl.Partitions != len(atPin) || pl.Skewed {
			t.Errorf("pinned frame %d of %d, skewed %v", pl.Part, pl.Partitions, pl.Skewed)
		}
		frameVers[pl.Part] = pl.Version
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("pinned listing has %d members, want %d", len(got), len(want))
	}
	if got["post-pin"] {
		t.Fatal("pinned listing leaked a post-pin add")
	}
	if !slices.Equal(frameVers, atPin) {
		t.Fatalf("pinned frames carry versions %v, the pin reported %v", frameVers, atPin)
	}
	err = w.client.ListPartsSubset(ctx, "dir", "c", pin, atPin, nil, func(pl PartListing) error {
		t.Fatalf("partition %d shipped under the pin's own vector", pl.Part)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
