package store

import (
	"errors"
	"fmt"
	"sort"
	"testing"
)

// Partitioned-listing conformance: both engines must present exactly the
// monolithic listing when the partitions are reassembled, gate each
// partition on its own version, and keep untouched partitions' versions
// still — the contracts the streaming scatter-gather List builds on.

// gatherParts reads every partition and reassembles the full listing.
func gatherParts(t *testing.T, st Store, name string) (all []Ref, maxVer uint64) {
	t.Helper()
	total, err := st.Partitions(name)
	if err != nil {
		t.Fatalf("partitions: %v", err)
	}
	for pi := 0; pi < total; pi++ {
		members, ver, notMod, err := st.ListPart(name, pi, 0)
		if err != nil {
			t.Fatalf("listPart %d: %v", pi, err)
		}
		if notMod {
			t.Fatalf("listPart %d: notModified with no gate", pi)
		}
		if !sort.SliceIsSorted(members, func(i, j int) bool { return members[i].ID < members[j].ID }) {
			t.Fatalf("listPart %d: members not sorted", pi)
		}
		all = append(all, members...)
		if ver > maxVer {
			maxVer = ver
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	return all, maxVer
}

// partVersions snapshots every partition's version.
func partVersions(t *testing.T, st Store, name string) []uint64 {
	t.Helper()
	total, err := st.Partitions(name)
	if err != nil {
		t.Fatalf("partitions: %v", err)
	}
	out := make([]uint64, total)
	for pi := 0; pi < total; pi++ {
		_, ver, _, err := st.ListPart(name, pi, 0)
		if err != nil {
			t.Fatalf("listPart %d: %v", pi, err)
		}
		out[pi] = ver
	}
	return out
}

func TestPartitionedListingMatchesMonolithic(t *testing.T) {
	engines(t, func(t *testing.T, st Store) {
		mustColl(t, st, "c")
		for i := 0; i < 100; i++ {
			id := ObjectID(fmt.Sprintf("elem-%03d", i))
			if _, err := st.Add("c", Ref{ID: id, Node: "n1"}); err != nil {
				t.Fatal(err)
			}
		}
		mono, monoVer, err := st.List("c")
		if err != nil {
			t.Fatal(err)
		}
		parts, maxVer := gatherParts(t, st, "c")
		if len(parts) != len(mono) {
			t.Fatalf("partitioned listing has %d members, monolithic %d", len(parts), len(mono))
		}
		for i := range mono {
			if parts[i] != mono[i] {
				t.Fatalf("member %d: partitioned %+v != monolithic %+v", i, parts[i], mono[i])
			}
		}
		// Partition versions are drawn from the collection counter, so the
		// newest partition is exactly the collection version.
		if maxVer != monoVer {
			t.Fatalf("max partition version = %d, collection version = %d", maxVer, monoVer)
		}
		lv, err := st.ListVersion("c")
		if err != nil || lv != monoVer {
			t.Fatalf("ListVersion = %d, %v (want %d)", lv, err, monoVer)
		}
	})
}

func TestListPartVersionGating(t *testing.T) {
	engines(t, func(t *testing.T, st Store) {
		mustColl(t, st, "c")
		for i := 0; i < 64; i++ {
			if _, err := st.Add("c", Ref{ID: ObjectID(fmt.Sprintf("e%02d", i)), Node: "n1"}); err != nil {
				t.Fatal(err)
			}
		}
		vers := partVersions(t, st, "c")
		total := len(vers)
		// Gating each partition at its own version answers NotModified
		// with no members.
		for pi := 0; pi < total; pi++ {
			members, ver, notMod, err := st.ListPart("c", pi, vers[pi])
			if err != nil {
				t.Fatal(err)
			}
			if !notMod || members != nil || ver != vers[pi] {
				t.Fatalf("part %d gated at own version: notMod=%v members=%v ver=%d", pi, notMod, members, ver)
			}
		}
		// The gate is checked before the partition is listed, so a
		// NotModified answer copies and sorts no member slice.
		if !raceEnabled {
			if allocs := testing.AllocsPerRun(20, func() { _, _, _, _ = st.ListPart("c", 0, vers[0]) }); allocs != 0 {
				t.Fatalf("a NotModified ListPart allocates %.0f objects, want 0", allocs)
			}
		}
		// Mutating one member invalidates exactly its partition's gate.
		target := Ref{ID: "e00", Node: "n2"}
		if _, err := st.Add("c", target); err != nil {
			t.Fatal(err)
		}
		after := partVersions(t, st, "c")
		touched := -1
		for pi := 0; pi < total; pi++ {
			if after[pi] != vers[pi] {
				if touched != -1 {
					t.Fatalf("partitions %d and %d both moved for one add", touched, pi)
				}
				touched = pi
			}
		}
		if touched == -1 {
			t.Fatal("no partition version moved after add")
		}
		for pi := 0; pi < total; pi++ {
			members, _, notMod, err := st.ListPart("c", pi, vers[pi])
			if err != nil {
				t.Fatal(err)
			}
			if pi == touched {
				if notMod {
					t.Fatalf("touched partition %d still gated NotModified", pi)
				}
				found := false
				for _, m := range members {
					if m == target {
						found = true
					}
				}
				if !found {
					t.Fatalf("touched partition %d listing lacks the new ref", pi)
				}
			} else if !notMod {
				t.Fatalf("untouched partition %d lost its NotModified gate", pi)
			}
		}
	})
}

func TestGhostGCBumpsOnlyAffectedPartition(t *testing.T) {
	engines(t, func(t *testing.T, st Store) {
		mustColl(t, st, "c")
		for i := 0; i < 64; i++ {
			if _, err := st.Add("c", Ref{ID: ObjectID(fmt.Sprintf("g%02d", i)), Node: "n1"}); err != nil {
				t.Fatal(err)
			}
		}
		token, err := st.BeginGrow("c")
		if err != nil {
			t.Fatal(err)
		}
		// Removing under the window leaves a ghost in its partition.
		if _, deferred, _, err := st.Remove("c", "g00"); err != nil || !deferred {
			t.Fatalf("remove under window: deferred=%v err=%v", deferred, err)
		}
		vers := partVersions(t, st, "c")
		reclaim, err := st.EndGrow("c", token)
		if err != nil {
			t.Fatal(err)
		}
		if len(reclaim) != 1 || reclaim[0].ID != "g00" {
			t.Fatalf("reclaim = %v", reclaim)
		}
		after := partVersions(t, st, "c")
		moved := 0
		for pi := range vers {
			if after[pi] != vers[pi] {
				moved++
				// The GC'd ghost must vanish from this partition's listing.
				members, _, _, err := st.ListPart("c", pi, 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range members {
					if m.ID == "g00" {
						t.Fatal("GC'd ghost still listed")
					}
				}
			}
		}
		if moved != 1 {
			t.Fatalf("ghost GC moved %d partition versions, want exactly 1", moved)
		}
	})
}

func TestListPartOutOfRange(t *testing.T) {
	engines(t, func(t *testing.T, st Store) {
		mustColl(t, st, "c")
		total, err := st.Partitions("c")
		if err != nil || total <= 0 {
			t.Fatalf("partitions = %d, %v", total, err)
		}
		for _, pi := range []int{-1, total} {
			if _, _, _, err := st.ListPart("c", pi, 0); !errors.Is(err, ErrBadPartition) {
				t.Fatalf("listPart %d: err = %v, want ErrBadPartition", pi, err)
			}
		}
		if _, _, _, err := st.ListPart("nope", 0, 0); !errors.Is(err, ErrNoCollection) {
			t.Fatalf("listPart on missing collection: %v", err)
		}
	})
}

func TestPartitionCountConfigured(t *testing.T) {
	st := NewSharded(Config{Shards: 2, Partitions: 5})
	mustColl(t, st, "c")
	if total, err := st.Partitions("c"); err != nil || total != 5 {
		t.Fatalf("partitions = %d, %v (want 5)", total, err)
	}
}
