package store

import (
	"cmp"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// engines runs a subtest against both Store implementations so the
// sharded engine is held to exactly the baseline's contract.
func engines(t *testing.T, f func(t *testing.T, st Store)) {
	t.Helper()
	for _, tc := range []struct {
		name string
		mk   func() Store
	}{
		{"locked", func() Store { return NewLocked() }},
		{"sharded", func() Store { return NewSharded(Config{Shards: 4}) }},
	} {
		t.Run(tc.name, func(t *testing.T) { f(t, tc.mk()) })
	}
}

func mustPut(t *testing.T, st Store, id ObjectID) Ref {
	t.Helper()
	if _, err := st.PutObject(Object{ID: id, Data: []byte("data-" + id)}); err != nil {
		t.Fatalf("put %q: %v", id, err)
	}
	return Ref{ID: id, Node: "n1"}
}

func mustColl(t *testing.T, st Store, name string) {
	t.Helper()
	if err := st.CreateCollection(name); err != nil {
		t.Fatalf("create %q: %v", name, err)
	}
}

func memberIDs(refs []Ref) []ObjectID {
	out := make([]ObjectID, len(refs))
	for i, r := range refs {
		out[i] = r.ID
	}
	return out
}

func TestObjectLifecycle(t *testing.T) {
	engines(t, func(t *testing.T, st Store) {
		v, err := st.PutObject(Object{ID: "a", Data: []byte("one")})
		if err != nil || v != 1 {
			t.Fatalf("put = %d, %v", v, err)
		}
		v, err = st.PutObject(Object{ID: "a", Data: []byte("two")})
		if err != nil || v != 2 {
			t.Fatalf("overwrite = %d, %v", v, err)
		}
		obj, err := st.GetObject("a")
		if err != nil || string(obj.Data) != "two" || obj.Version != 2 {
			t.Fatalf("get = %+v, %v", obj, err)
		}
		if st.ObjectCount() != 1 {
			t.Fatalf("count = %d", st.ObjectCount())
		}
		if err := st.DeleteObject("a"); err != nil {
			t.Fatal(err)
		}
		if _, err := st.GetObject("a"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("get deleted = %v", err)
		}
		if err := st.DeleteObject("a"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("double delete = %v", err)
		}
	})
}

func TestObjectCloneIsolation(t *testing.T) {
	engines(t, func(t *testing.T, st Store) {
		orig := Object{ID: "iso", Data: []byte("abc"), Attrs: map[string]string{"k": "v"}}
		if _, err := st.PutObject(orig); err != nil {
			t.Fatal(err)
		}
		orig.Data[0] = 'X' // caller mutates after Put
		got, err := st.GetObject("iso")
		if err != nil {
			t.Fatal(err)
		}
		if string(got.Data) != "abc" {
			t.Fatalf("engine aliased caller data: %q", got.Data)
		}
		got.Attrs["k"] = "mutated" // caller mutates the returned copy
		again, _ := st.GetObject("iso")
		if again.Attrs["k"] != "v" {
			t.Fatalf("engine aliased returned attrs: %q", again.Attrs["k"])
		}
	})
}

func TestGetBatch(t *testing.T) {
	engines(t, func(t *testing.T, st Store) {
		for _, id := range []ObjectID{"a", "b", "c", "d"} {
			mustPut(t, st, id)
		}
		objs, _, missing := st.GetBatch([]ObjectID{"c", "nope", "a", "d", "gone"}, nil)
		if got := []ObjectID{objs[0].ID, objs[1].ID, objs[2].ID}; len(objs) != 3 ||
			got[0] != "c" || got[1] != "a" || got[2] != "d" {
			t.Fatalf("objs = %v (want request order c,a,d)", got)
		}
		for _, obj := range objs {
			if string(obj.Data) != "data-"+string(obj.ID) {
				t.Fatalf("obj %q data = %q", obj.ID, obj.Data)
			}
		}
		if len(missing) != 2 || missing[0] != "nope" || missing[1] != "gone" {
			t.Fatalf("missing = %v", missing)
		}

		// Duplicate ids resolve once, whether found or missing.
		objs, _, missing = st.GetBatch([]ObjectID{"a", "a", "x", "x"}, nil)
		if len(objs) != 1 || objs[0].ID != "a" || len(missing) != 1 || missing[0] != "x" {
			t.Fatalf("dup batch = %v missing %v", objs, missing)
		}
		// More distinct ids than the engine's duplicate filter has bits:
		// ids that share a filter bit are still each answered once.
		wide := make([]ObjectID, 600)
		for i := range wide {
			wide[i] = ObjectID(fmt.Sprintf("w%d", i))
		}
		if _, _, missing = st.GetBatch(wide, nil); !reflect.DeepEqual(missing, wide) {
			t.Fatalf("wide batch: %d of %d ids missing", len(missing), len(wide))
		}

		// Batches hand out the stored object: two batches share its Data.
		// It is immutable, so a later overwrite or delete replaces the
		// entry and leaves the bytes already handed out as they were.
		objs, _, _ = st.GetBatch([]ObjectID{"b"}, nil)
		again, _, _ := st.GetBatch([]ObjectID{"b"}, nil)
		if len(objs) != 1 || len(again) != 1 || &objs[0].Data[0] != &again[0].Data[0] {
			t.Fatal("two batches of b do not share the stored Data")
		}
		if _, err := st.PutObject(Object{ID: "b", Data: []byte("newer-b")}); err != nil {
			t.Fatal(err)
		}
		if err := st.DeleteObject("b"); err != nil {
			t.Fatal(err)
		}
		if string(objs[0].Data) != "data-b" || objs[0].Version != 1 {
			t.Fatalf("a write changed a handed-out object: %q v%d", objs[0].Data, objs[0].Version)
		}

		// Empty batch is a no-op, not an error.
		objs, _, missing = st.GetBatch(nil, nil)
		if len(objs) != 0 || len(missing) != 0 {
			t.Fatalf("empty batch = %v, %v", objs, missing)
		}

		stats := st.Stats()
		if stats.Batch.Batches != 6 || stats.Batch.BatchedGets != 5+4+600+1+1 {
			t.Fatalf("batch stats = %+v", stats.Batch)
		}
		if stats.Batch.MaxBatch != 600 || stats.Batch.RTTSaved != 611-6 {
			t.Fatalf("batch stats = %+v", stats.Batch)
		}
	})
}

func TestGetBatchConditional(t *testing.T) {
	engines(t, func(t *testing.T, st Store) {
		for _, id := range []ObjectID{"a", "b", "c"} {
			mustPut(t, st, id) // all at version 1
		}
		before := st.Stats().Batch

		// Matching known versions validate without shipping payloads.
		objs, notMod, missing := st.GetBatch(
			[]ObjectID{"a", "b", "c", "nope"},
			map[ObjectID]uint64{"a": 1, "c": 1},
		)
		if len(objs) != 1 || objs[0].ID != "b" {
			t.Fatalf("objs = %v (want just b)", objs)
		}
		if len(notMod) != 2 || notMod[0] != "a" || notMod[1] != "c" {
			t.Fatalf("notModified = %v (want a,c in request order)", notMod)
		}
		if len(missing) != 1 || missing[0] != "nope" {
			t.Fatalf("missing = %v", missing)
		}

		// Version skew mid-batch: an overwrite between the caller's cache
		// fill and the conditional fetch ships the new payload.
		if _, err := st.PutObject(Object{ID: "a", Data: []byte("newer")}); err != nil {
			t.Fatal(err)
		}
		objs, notMod, _ = st.GetBatch(
			[]ObjectID{"a", "c"},
			map[ObjectID]uint64{"a": 1, "c": 1},
		)
		if len(objs) != 1 || objs[0].ID != "a" || objs[0].Version != 2 || string(objs[0].Data) != "newer" {
			t.Fatalf("skewed batch objs = %+v", objs)
		}
		if len(notMod) != 1 || notMod[0] != "c" {
			t.Fatalf("skewed batch notModified = %v", notMod)
		}

		// Byte accounting: saved bytes grew with each validated id,
		// shipped bytes with each full object.
		after := st.Stats().Batch
		if after.NotModified-before.NotModified != 3 {
			t.Fatalf("notModified delta = %d, want 3", after.NotModified-before.NotModified)
		}
		if after.BytesSaved <= before.BytesSaved || after.BytesShipped <= before.BytesShipped {
			t.Fatalf("byte counters did not advance: %+v -> %+v", before, after)
		}
	})
}

// TestGetBatchTombstoneResurrect pins the protocol's soundness across
// delete/re-put: the deleted id reports missing (never NotModified), and
// the resurrected object carries a strictly newer version than any a
// client could have cached — versions are monotonic per id.
func TestGetBatchTombstoneResurrect(t *testing.T) {
	engines(t, func(t *testing.T, st Store) {
		if _, err := st.PutObject(Object{ID: "x", Data: []byte("v1")}); err != nil {
			t.Fatal(err)
		}
		if _, err := st.PutObject(Object{ID: "x", Data: []byte("v2")}); err != nil {
			t.Fatal(err)
		}
		known := map[ObjectID]uint64{"x": 2}
		_, notMod, _ := st.GetBatch([]ObjectID{"x"}, known)
		if len(notMod) != 1 {
			t.Fatalf("warm id not validated: %v", notMod)
		}

		if err := st.DeleteObject("x"); err != nil {
			t.Fatal(err)
		}
		_, notMod, missing := st.GetBatch([]ObjectID{"x"}, known)
		if len(notMod) != 0 || len(missing) != 1 || missing[0] != "x" {
			t.Fatalf("deleted id: notMod=%v missing=%v (want missing only)", notMod, missing)
		}

		// Resurrect: the version resumes above the deleted one, so the
		// stale known never false-validates (no ABA).
		v, err := st.PutObject(Object{ID: "x", Data: []byte("reborn")})
		if err != nil {
			t.Fatal(err)
		}
		if v <= 2 {
			t.Fatalf("resurrected version = %d, want > 2 (monotonic across delete)", v)
		}
		objs, notMod, _ := st.GetBatch([]ObjectID{"x"}, known)
		if len(notMod) != 0 || len(objs) != 1 || string(objs[0].Data) != "reborn" {
			t.Fatalf("resurrected id must ship fresh data: objs=%v notMod=%v", objs, notMod)
		}
	})
}

func TestListVersion(t *testing.T) {
	engines(t, func(t *testing.T, st Store) {
		if _, err := st.ListVersion("nope"); !errors.Is(err, ErrNoCollection) {
			t.Fatalf("missing collection = %v", err)
		}
		mustColl(t, st, "c")
		ref := mustPut(t, st, "a")
		if _, err := st.Add("c", ref); err != nil {
			t.Fatal(err)
		}
		v, err := st.ListVersion("c")
		if err != nil {
			t.Fatal(err)
		}
		_, lv, _ := st.List("c")
		if v != lv {
			t.Fatalf("ListVersion = %d, List version = %d", v, lv)
		}
		if _, _, _, err := st.Remove("c", "a"); err != nil {
			t.Fatal(err)
		}
		v2, _ := st.ListVersion("c")
		if v2 <= v {
			t.Fatalf("version did not advance on remove: %d -> %d", v, v2)
		}
	})
}

// TestEndGrowBumpsVersion pins the property version-gated List depends
// on: ghost garbage collection changes the listing, so it must advance
// the version — a gated reader comparing versions would otherwise be
// told "not modified" while the ghost silently vanished.
func TestEndGrowBumpsVersion(t *testing.T) {
	engines(t, func(t *testing.T, st Store) {
		mustColl(t, st, "c")
		st.Add("c", mustPut(t, st, "a"))
		tok, _ := st.BeginGrow("c")
		st.Remove("c", "a") // deferred: ghost keeps "a" listed
		vBefore, _ := st.ListVersion("c")
		if _, err := st.EndGrow("c", tok); err != nil {
			t.Fatal(err)
		}
		vAfter, _ := st.ListVersion("c")
		if vAfter <= vBefore {
			t.Fatalf("ghost GC changed the listing but not the version: %d -> %d", vBefore, vAfter)
		}

		// Conversely a window with no ghosts must NOT bump: nothing the
		// listing shows changed.
		tok, _ = st.BeginGrow("c")
		vBefore, _ = st.ListVersion("c")
		if _, err := st.EndGrow("c", tok); err != nil {
			t.Fatal(err)
		}
		vAfter, _ = st.ListVersion("c")
		if vAfter != vBefore {
			t.Fatalf("empty window bumped version: %d -> %d", vBefore, vAfter)
		}
	})
}

func TestCollectionMembership(t *testing.T) {
	engines(t, func(t *testing.T, st Store) {
		mustColl(t, st, "c")
		if err := st.CreateCollection("c"); !errors.Is(err, ErrCollectionExists) {
			t.Fatalf("duplicate create = %v", err)
		}
		if _, _, err := st.List("nope"); !errors.Is(err, ErrNoCollection) {
			t.Fatalf("list missing = %v", err)
		}
		r1, r2 := mustPut(t, st, "b"), mustPut(t, st, "a")
		if v, err := st.Add("c", r1); err != nil || v != 1 {
			t.Fatalf("add = %d, %v", v, err)
		}
		if v, err := st.Add("c", r2); err != nil || v != 2 {
			t.Fatalf("add = %d, %v", v, err)
		}
		members, v, err := st.List("c")
		if err != nil || v != 2 {
			t.Fatalf("list = v%d, %v", v, err)
		}
		if len(members) != 2 || members[0].ID != "a" || members[1].ID != "b" {
			t.Fatalf("members = %v (want sorted a,b)", memberIDs(members))
		}
		if _, deferred, v, err := st.Remove("c", "a"); err != nil || deferred || v != 3 {
			t.Fatalf("remove = deferred=%v v=%d %v", deferred, v, err)
		}
		if _, _, _, err := st.Remove("c", "a"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("remove missing = %v", err)
		}
		members, _, _ = st.List("c")
		if len(members) != 1 || members[0].ID != "b" {
			t.Fatalf("members = %v", memberIDs(members))
		}
	})
}

func TestPins(t *testing.T) {
	engines(t, func(t *testing.T, st Store) {
		mustColl(t, st, "c")
		st.Add("c", mustPut(t, st, "a"))
		pin, vers, err := st.Pin("c")
		if err != nil {
			t.Fatal(err)
		}
		want := slices.Clone(vers)
		st.Add("c", mustPut(t, st, "b"))
		parts, pvers, err := st.ListPinned("c", pin)
		if err != nil {
			t.Fatal(err)
		}
		if got := pinnedIDs(parts); len(got) != 1 || got[0] != "a" {
			t.Fatalf("pinned = %v (want just a)", got)
		}
		// The write after the pin moved one partition's version; the pin
		// still reads every partition at the version it was taken at.
		live, _ := st.PartVersions("c")
		if !slices.Equal(pvers, want) || len(pvers) != DefaultPartitions || slices.Equal(live, want) {
			t.Fatalf("pinned versions %v, at the pin %v, live %v", pvers, want, live)
		}
		if _, _, err := st.ListPinned("c", 999); !errors.Is(err, ErrBadPin) {
			t.Fatalf("bad pin = %v", err)
		}
		if err := st.Unpin("c", pin); err != nil {
			t.Fatal(err)
		}
		if err := st.Unpin("c", pin); !errors.Is(err, ErrBadPin) {
			t.Fatalf("double unpin = %v", err)
		}
	})
}

// pinnedIDs is a pin's membership, its partitions merged ascending by id.
func pinnedIDs(parts [][]Ref) []ObjectID {
	var out []ObjectID
	for _, part := range parts {
		if !slices.IsSortedFunc(part, func(a, b Ref) int { return cmp.Compare(a.ID, b.ID) }) {
			return nil
		}
		out = append(out, memberIDs(part)...)
	}
	slices.Sort(out)
	return out
}

// TestPinIsTheLiveMembership holds both engines to one answer for what a
// pin captures and keeps — the live members, each partition sorted,
// unchanged by anything that happens to the collection afterwards — in
// the states where the sharded engine shares a partition's published
// snapshot as its pin and in those where it must not (a listed ghost, a
// published snapshot gone stale).
func TestPinIsTheLiveMembership(t *testing.T) {
	for _, tc := range []struct {
		name   string
		before func(t *testing.T, st Store) // up to the pin
		want   []ObjectID
	}{
		{"published listing current", func(t *testing.T, st Store) {
			st.List("c")
		}, []ObjectID{"a", "b", "c"}},
		{"grow window holds a ghost", func(t *testing.T, st Store) {
			st.BeginGrow("c")
			st.Remove("c", "b")
			if members, _, _ := st.List("c"); len(members) != 3 {
				t.Fatalf("listing = %v (the ghost is listed)", memberIDs(members))
			}
		}, []ObjectID{"a", "c"}},
		{"published listing stale", func(t *testing.T, st Store) {
			st.List("c")
			st.Add("c", mustPut(t, st, "d"))
			st.Remove("c", "a")
		}, []ObjectID{"b", "c", "d"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			engines(t, func(t *testing.T, st Store) {
				mustColl(t, st, "c")
				for _, id := range []ObjectID{"c", "a", "b"} {
					st.Add("c", mustPut(t, st, id))
				}
				tc.before(t, st)
				pin, vers, err := st.Pin("c")
				if err != nil {
					t.Fatal(err)
				}
				atPin := slices.Clone(vers)
				pinned := func() []ObjectID {
					parts, _, err := st.ListPinned("c", pin)
					if err != nil {
						t.Fatal(err)
					}
					return pinnedIDs(parts)
				}
				if got := pinned(); !reflect.DeepEqual(got, tc.want) {
					t.Fatalf("pinned = %v, want %v", got, tc.want)
				}
				// Each read hands out the pin itself, never a copy of it.
				first, firstVers, _ := st.ListPinned("c", pin)
				if again, againVers, _ := st.ListPinned("c", pin); &again[0] != &first[0] || &againVers[0] != &firstVers[0] {
					t.Fatal("two reads of one pin returned different arrays")
				}
				// Nothing later moves it: an add, a removal, a ghost and its
				// collection, each followed by a listing that republishes.
				st.Add("c", mustPut(t, st, "e"))
				st.Remove("c", "c")
				tok, _ := st.BeginGrow("c")
				st.Remove("c", "e")
				st.List("c")
				if _, err := st.EndGrow("c", tok); err != nil {
					t.Fatal(err)
				}
				st.List("c")
				if got := pinned(); !reflect.DeepEqual(got, tc.want) {
					t.Fatalf("pinned after mutations = %v, want %v", got, tc.want)
				}
				later, laterVers, _ := st.ListPinned("c", pin)
				if &later[0] != &first[0] || !slices.Equal(laterVers, atPin) {
					t.Fatalf("the mutations moved the pin to another array, or its versions %v from %v", laterVers, atPin)
				}
			})
		})
	}
}

// TestShardedPinSharesTheListing guards the O(partitions) pin: on a
// quiescent collection each partition of a pin is that partition's
// published snapshot, so taking one costs the same at 10 000 members as
// at one — no sort and no copy under the collection's write lock — and
// reading it back copies nothing either. A partition listing a ghost is
// the exception: its snapshot is not its live membership, so the pin
// sorts that one partition's live members and shares the rest. (That a
// run over the bus leaves the shared pin as it was is core's
// TestWarmRunsServeAtYield.)
func TestShardedPinSharesTheListing(t *testing.T) {
	st := NewSharded(Config{})
	mustColl(t, st, "c")
	for i := 0; i < 10_000; i++ {
		st.Add("c", Ref{ID: ObjectID(fmt.Sprintf("e%05d", i)), Node: "n1"})
	}
	c, _ := st.coll("c")
	shared := func(pin int64) (same []bool) {
		parts, _, err := st.ListPinned("c", pin)
		if err != nil {
			t.Fatal(err)
		}
		for p, part := range parts {
			same = append(same, len(part) > 0 && &part[0] == &c.psnap[p].Load().members[0])
		}
		return same
	}
	pin, _, err := st.Pin("c")
	if err != nil {
		t.Fatal(err)
	}
	if same := shared(pin); slices.Contains(same, false) {
		t.Fatalf("a quiescent pin's partitions read back as the published snapshots: %v", same)
	}
	allocs := testing.AllocsPerRun(20, func() {
		pin, _, err := st.Pin("c")
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Unpin("c", pin); err != nil {
			t.Fatal(err)
		}
	})
	// Two are the pin's own: its partition table and its version vector.
	if allocs > 4 {
		t.Fatalf("pin + unpin of a quiescent 10k collection allocates %.0f times, want <= 4: the pin is rebuilding the membership", allocs)
	}

	tok, _ := st.BeginGrow("c")
	if _, _, _, err := st.Remove("c", "e00042"); err != nil {
		t.Fatal(err)
	}
	ghostPart := c.st.partOf("e00042")
	pin, _, err = st.Pin("c")
	if err != nil {
		t.Fatal(err)
	}
	for p, same := range shared(pin) {
		if same == (p == ghostPart) {
			t.Fatalf("partition %d (the ghost's: %v) shared=%v", p, p == ghostPart, same)
		}
	}
	parts, _, _ := st.ListPinned("c", pin)
	if slices.ContainsFunc(parts[ghostPart], func(r Ref) bool { return r.ID == "e00042" }) {
		t.Fatal("the pin lists the ghost")
	}
	if _, err := st.EndGrow("c", tok); err != nil {
		t.Fatal(err)
	}
}

func TestGrowWindowGhosts(t *testing.T) {
	engines(t, func(t *testing.T, st Store) {
		mustColl(t, st, "c")
		ra, rb := mustPut(t, st, "a"), mustPut(t, st, "b")
		st.Add("c", ra)
		st.Add("c", rb)

		tok, err := st.BeginGrow("c")
		if err != nil {
			t.Fatal(err)
		}
		_, deferred, _, err := st.Remove("c", "a")
		if err != nil || !deferred {
			t.Fatalf("remove in window: deferred=%v err=%v", deferred, err)
		}
		// The ghost keeps "a" listed: the set only grows during the window.
		members, _, _ := st.List("c")
		if len(members) != 2 {
			t.Fatalf("window listing = %v (ghost missing)", memberIDs(members))
		}
		cs, _ := st.CollStats("c")
		if cs.Ghosts != 1 || cs.Tokens != 1 {
			t.Fatalf("stats = %+v", cs)
		}

		if _, err := st.EndGrow("c", 999); !errors.Is(err, ErrBadToken) {
			t.Fatalf("bad token = %v", err)
		}
		reclaim, err := st.EndGrow("c", tok)
		if err != nil {
			t.Fatal(err)
		}
		if len(reclaim) != 1 || reclaim[0].ID != "a" {
			t.Fatalf("reclaim = %v", memberIDs(reclaim))
		}
		members, _, _ = st.List("c")
		if len(members) != 1 || members[0].ID != "b" {
			t.Fatalf("post-GC listing = %v", memberIDs(members))
		}
	})
}

func TestGrowWindowReAddRevives(t *testing.T) {
	engines(t, func(t *testing.T, st Store) {
		mustColl(t, st, "c")
		ra := mustPut(t, st, "a")
		st.Add("c", ra)
		tok, _ := st.BeginGrow("c")
		st.Remove("c", "a")
		st.Add("c", ra) // revive: the deferred delete must not fire
		reclaim, err := st.EndGrow("c", tok)
		if err != nil {
			t.Fatal(err)
		}
		if len(reclaim) != 0 {
			t.Fatalf("revived member reclaimed: %v", memberIDs(reclaim))
		}
	})
}

func TestNestedGrowWindows(t *testing.T) {
	engines(t, func(t *testing.T, st Store) {
		mustColl(t, st, "c")
		st.Add("c", mustPut(t, st, "a"))
		t1, _ := st.BeginGrow("c")
		t2, _ := st.BeginGrow("c")
		st.Remove("c", "a")
		if reclaim, err := st.EndGrow("c", t1); err != nil || len(reclaim) != 0 {
			t.Fatalf("first token drained ghosts early: %v %v", reclaim, err)
		}
		// Ghost still listed while t2 is open.
		if members, _, _ := st.List("c"); len(members) != 1 {
			t.Fatalf("ghost dropped early: %v", memberIDs(members))
		}
		if reclaim, _ := st.EndGrow("c", t2); len(reclaim) != 1 {
			t.Fatalf("last token reclaim = %v", memberIDs(reclaim))
		}
	})
}

// TestApplySyncStaleIgnored is the replica's side of the one push path: a
// per-partition push at or below the partition's version is declined and
// leaves the replica as it was, which is what makes replicas observably
// lag instead of regress.
func TestApplySyncStaleIgnored(t *testing.T) {
	engines(t, func(t *testing.T, st Store) {
		if !st.ApplySyncPart("c", 1, 0, []Ref{{ID: "new", Node: "n1"}}, 5) {
			t.Fatal("first push declined")
		}
		members, v, err := st.List("c")
		if err != nil || v != 5 || len(members) != 1 {
			t.Fatalf("sync created: %v v=%d %v", memberIDs(members), v, err)
		}
		for _, stale := range []uint64{3, 5} {
			if st.ApplySyncPart("c", 1, 0, []Ref{{ID: "old", Node: "n1"}}, stale) {
				t.Fatalf("push at v%d over v5 applied", stale)
			}
		}
		members, v, _ = st.List("c")
		if v != 5 || len(members) != 1 || members[0].ID != "new" {
			t.Fatalf("stale push applied: %v v=%d", memberIDs(members), v)
		}
		if !st.ApplySyncPart("c", 1, 0, []Ref{{ID: "newer", Node: "n1"}}, 9) {
			t.Fatal("fresh push declined")
		}
		members, v, _ = st.List("c")
		if v != 9 || len(members) != 1 || members[0].ID != "newer" {
			t.Fatalf("fresh push dropped: %v v=%d", memberIDs(members), v)
		}
	})
}

// TestApplySyncPartMovesTheListing pushes two partitions newest first, as
// a round over partitions in index order can: the older push still
// changes the listing, so it must move the list version and show in the
// next List, whatever was read (and cached) in between.
func TestApplySyncPartMovesTheListing(t *testing.T) {
	engines(t, func(t *testing.T, st Store) {
		st.ApplySyncPart("c", 2, 1, []Ref{{ID: "newer", Node: "n1"}}, 9)
		before, v9, _ := st.List("c")
		if len(before) != 1 || v9 != 9 {
			t.Fatalf("after the v9 push: %v v=%d", memberIDs(before), v9)
		}
		if !st.ApplySyncPart("c", 2, 0, []Ref{{ID: "older", Node: "n1"}}, 5) {
			t.Fatal("a v5 push to a partition at v0 was declined")
		}
		after, v, _ := st.List("c")
		if len(after) != 2 || v <= v9 {
			t.Fatalf("after the v5 push: %v v=%d, want both members at a version past %d", memberIDs(after), v, v9)
		}
		if lv, _ := st.ListVersion("c"); lv != v {
			t.Fatalf("ListVersion = %d, List says %d", lv, v)
		}
	})
}

// TestApplySyncPartAdoptsSenderLayout holds both engines to the layout
// rule: a push creates the collection in the sender's partition count,
// a collection in another count starts over in the sender's, and a count
// or index out of range is declined without touching the collection.
func TestApplySyncPartAdoptsSenderLayout(t *testing.T) {
	engines(t, func(t *testing.T, st Store) {
		mustColl(t, st, "c")
		st.Add("c", mustPut(t, st, "local"))
		if total, _ := st.Partitions("c"); total != DefaultPartitions {
			t.Fatalf("created with %d partitions, want %d", total, DefaultPartitions)
		}
		for _, bad := range [][2]int{{0, 0}, {4, 4}, {4, -1}, {maxSyncPartitions + 1, 0}} {
			if st.ApplySyncPart("c", bad[0], bad[1], []Ref{{ID: "x", Node: "n1"}}, 7) {
				t.Fatalf("push to partition %d of %d applied", bad[1], bad[0])
			}
		}
		if total, _ := st.Partitions("c"); total != DefaultPartitions {
			t.Fatalf("an out-of-range push re-laid the collection out in %d partitions", total)
		}

		if !st.ApplySyncPart("c", 4, 2, []Ref{{ID: "x", Node: "n1"}}, 7) {
			t.Fatal("push in the sender's layout declined")
		}
		if total, _ := st.Partitions("c"); total != 4 {
			t.Fatalf("partitions = %d after a 4-partition push, want 4", total)
		}
		members, _, _ := st.List("c")
		if len(members) != 1 || members[0].ID != "x" {
			t.Fatalf("re-laid out collection lists %v, want just the pushed member", memberIDs(members))
		}
		if vers, _ := st.PartVersions("c"); !reflect.DeepEqual(vers, []uint64{0, 0, 7, 0}) {
			t.Fatalf("part versions = %v", vers)
		}

		if !st.ApplySyncPart("fresh", 3, 0, nil, 1) {
			t.Fatal("first push to an unknown collection declined")
		}
		if total, _ := st.Partitions("fresh"); total != 3 {
			t.Fatalf("created by a push with %d partitions, want the sender's 3", total)
		}
	})
}

func TestEngineStatsPopulated(t *testing.T) {
	engines(t, func(t *testing.T, st Store) {
		mustColl(t, st, "c")
		st.Add("c", mustPut(t, st, "a"))
		for i := 0; i < 10; i++ {
			if _, _, err := st.List("c"); err != nil {
				t.Fatal(err)
			}
		}
		st.GetObject("missing") // one error
		es := st.Stats()
		if es.Objects != 1 || es.Collections != 1 {
			t.Fatalf("stats = %+v", es)
		}
		byOp := map[string]OpStats{}
		for _, op := range es.Ops {
			byOp[op.Op] = op
		}
		if byOp["list"].Count != 10 {
			t.Fatalf("list count = %d", byOp["list"].Count)
		}
		if byOp["get"].Errors != 1 {
			t.Fatalf("get errors = %d", byOp["get"].Errors)
		}
		if byOp["list"].P99 <= 0 {
			t.Fatalf("list p99 = %v", byOp["list"].P99)
		}
	})
}

// TestListingSnapshotIsolation pins down the copy-on-write contract: a
// listing handed out by List must not change when the collection
// mutates afterwards.
func TestListingSnapshotIsolation(t *testing.T) {
	engines(t, func(t *testing.T, st Store) {
		mustColl(t, st, "c")
		st.Add("c", mustPut(t, st, "a"))
		before, v, _ := st.List("c")
		st.Add("c", mustPut(t, st, "b"))
		st.Remove("c", "a")
		if len(before) != 1 || before[0].ID != "a" || v != 1 {
			t.Fatalf("earlier listing mutated: %v v=%d", memberIDs(before), v)
		}
		// Mutating the returned slice must not corrupt the engine.
		before[0].ID = "corrupted"
		after, _, _ := st.List("c")
		if len(after) != 1 || after[0].ID != "b" {
			t.Fatalf("engine state corrupted through listing: %v", memberIDs(after))
		}
	})
}

// TestConcurrentReadersWriters exercises the parallel hot path under
// -race: readers run List/Get/CollStats while writers add, remove,
// put, and cycle grow windows.
func TestConcurrentReadersWriters(t *testing.T) {
	engines(t, func(t *testing.T, st Store) {
		mustColl(t, st, "c")
		ids := make([]ObjectID, 64)
		for i := range ids {
			ids[i] = ObjectID(fmt.Sprintf("o%02d", i))
			st.PutObject(Object{ID: ids[i], Data: []byte("x")})
			st.Add("c", Ref{ID: ids[i], Node: "n1"})
		}
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for i := 0; i < 500; i++ {
					if members, _, err := st.List("c"); err != nil || len(members) == 0 {
						t.Errorf("list: %d members, %v", len(members), err)
						return
					}
					st.GetObject(ids[(i*7+r)%len(ids)])
					st.CollStats("c")
				}
			}(r)
		}
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					id := ids[(i+w*31)%len(ids)]
					st.PutObject(Object{ID: id, Data: []byte("y")})
					if i%4 == 0 {
						tok, _ := st.BeginGrow("c")
						st.Remove("c", id)
						st.Add("c", Ref{ID: id, Node: "n1"})
						st.EndGrow("c", tok)
					} else {
						st.Add("c", Ref{ID: id, Node: "n1"})
					}
				}
			}(w)
		}
		wg.Wait()
		members, _, err := st.List("c")
		if err != nil || len(members) != len(ids) {
			t.Fatalf("final members = %d, %v", len(members), err)
		}
	})
}
