package repo

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"weaksets/internal/netsim"
	"weaksets/internal/rpc"
)

type world struct {
	net    *netsim.Network
	bus    *rpc.Bus
	client *Client
	dirSrv *Server
	s1Srv  *Server
	s2Srv  *Server
}

func newWorld(t *testing.T) *world {
	t.Helper()
	n := netsim.New(netsim.Config{})
	for _, id := range []netsim.NodeID{"home", "dir", "s1", "s2"} {
		n.AddNode(id)
	}
	b := rpc.NewBus(n)
	w := &world{net: n, bus: b, client: NewClient(b, "home")}
	var err error
	if w.dirSrv, err = NewServer(b, "dir"); err != nil {
		t.Fatal(err)
	}
	if w.s1Srv, err = NewServer(b, "s1"); err != nil {
		t.Fatal(err)
	}
	if w.s2Srv, err = NewServer(b, "s2"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		w.dirSrv.Close()
		w.s1Srv.Close()
		w.s2Srv.Close()
	})
	return w
}

func (w *world) mustPut(t *testing.T, node netsim.NodeID, id ObjectID, data string) Ref {
	t.Helper()
	ref, err := w.client.Put(context.Background(), node, Object{ID: id, Data: []byte(data)})
	if err != nil {
		t.Fatalf("put %q: %v", id, err)
	}
	return ref
}

func (w *world) mustColl(t *testing.T, name string) {
	t.Helper()
	if err := w.client.CreateCollection(context.Background(), "dir", name); err != nil {
		t.Fatalf("create collection: %v", err)
	}
}

func TestPutGetDelete(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	ref := w.mustPut(t, "s1", "obj1", "hello")

	obj, err := w.client.Get(ctx, ref)
	if err != nil {
		t.Fatal(err)
	}
	if string(obj.Data) != "hello" {
		t.Fatalf("data = %q", obj.Data)
	}
	if obj.Version != 1 {
		t.Fatalf("version = %d, want 1", obj.Version)
	}

	if err := w.client.Delete(ctx, ref); err != nil {
		t.Fatal(err)
	}
	if _, err := w.client.Get(ctx, ref); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestPutIncrementsVersion(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	ref := w.mustPut(t, "s1", "v", "one")
	w.mustPut(t, "s1", "v", "two")
	obj, err := w.client.Get(ctx, ref)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Version != 2 || string(obj.Data) != "two" {
		t.Fatalf("obj = %+v", obj)
	}
}

func TestGetBatchRPC(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	w.mustPut(t, "s1", "a", "A")
	w.mustPut(t, "s1", "b", "B")

	objs, missing, err := w.client.GetBatch(ctx, "s1", []ObjectID{"a", "nope", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 || objs[0].ID != "a" || string(objs[0].Data) != "A" || objs[1].ID != "b" || string(objs[1].Data) != "B" {
		t.Fatalf("objs = %v (want a, b in request order)", objs)
	}
	if len(missing) != 1 || missing[0] != "nope" {
		t.Fatalf("missing = %v", missing)
	}

	// A whole batch against an unreachable node fails as one transport
	// error — the client sees one failed round trip, not N.
	w.net.Partition([]netsim.NodeID{"home", "dir", "s2"}, []netsim.NodeID{"s1"})
	calls := w.bus.MethodCalls(MethodGetBatch)
	if _, _, err := w.client.GetBatch(ctx, "s1", []ObjectID{"a", "b"}); !netsim.IsFailure(err) {
		t.Fatalf("partitioned batch err = %v, want transport failure", err)
	}
	if got := w.bus.MethodCalls(MethodGetBatch) - calls; got != 1 {
		t.Fatalf("partitioned batch issued %d calls, want 1", got)
	}
}

// TestGetBatchAnswerOutOfOrderIsAnError: callers match a batch answer to
// its request by position, so an answer whose objects, not-modified or
// missing ids are not an in-order subsequence of the request must fail
// the call — never come back as ids silently missing.
func TestGetBatchAnswerOutOfOrderIsAnError(t *testing.T) {
	n := netsim.New(netsim.Config{})
	n.AddNode("home")
	n.AddNode("odd")
	b := rpc.NewBus(n)
	var answer GetBatchResp
	srv := rpc.NewServer("odd")
	srv.Handle(MethodGetBatch, rpc.Typed(func(context.Context, netsim.NodeID, GetBatchReq) (any, error) {
		return answer, nil
	}))
	if err := b.Register(srv); err != nil {
		t.Fatal(err)
	}
	client := NewClient(b, "home")
	ctx := context.Background()
	ids := []ObjectID{"a", "b", "c"}
	for _, tc := range []struct {
		name   string
		answer GetBatchResp
		ok     bool
	}{
		{"in order", GetBatchResp{Objects: []Object{{ID: "a"}, {ID: "c"}}, NotModified: []ObjectID{"b"}}, true},
		{"objects swapped", GetBatchResp{Objects: []Object{{ID: "c"}, {ID: "a"}}}, false},
		{"object not asked for", GetBatchResp{Objects: []Object{{ID: "a"}, {ID: "z"}}}, false},
		{"object twice", GetBatchResp{Objects: []Object{{ID: "a"}, {ID: "a"}}}, false},
		{"notModified swapped", GetBatchResp{NotModified: []ObjectID{"b", "a"}}, false},
		{"missing swapped", GetBatchResp{Missing: []ObjectID{"c", "b"}}, false},
	} {
		answer = tc.answer
		objs, notMod, missing, err := client.GetBatchValidated(ctx, "odd", ids, nil)
		if tc.ok && (err != nil || len(objs) != 2 || len(notMod) != 1) {
			t.Errorf("%s: objs %v, notModified %v, err %v", tc.name, objs, notMod, err)
		}
		if !tc.ok && (err == nil || objs != nil || missing != nil) {
			t.Errorf("%s: answered %v / %v, err %v; want an error", tc.name, objs, missing, err)
		}
	}
}

// TestListPartsGated holds the gated listing read a current-state run
// observes through: the first read (no vector) ships every partition, a
// read gated on the vector it returned ships nothing while the collection
// is unchanged, an Add ships only the partition it moved, and a vector of
// another length gates nothing.
func TestListPartsGated(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	w.mustColl(t, "c")
	ra := w.mustPut(t, "s1", "a", "A")
	if err := w.client.Add(ctx, "dir", "c", ra); err != nil {
		t.Fatal(err)
	}
	read := func(gates []uint64) []PartListing {
		t.Helper()
		var out []PartListing
		if err := w.client.ListPartsSubset(ctx, "dir", "c", 0, gates, nil, func(pl PartListing) error {
			out = append(out, pl)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	members := func(frames []PartListing) []Ref {
		var parts [][]Ref
		for _, pl := range frames {
			parts = append(parts, pl.Members)
		}
		return MergeParts(parts)
	}

	first := read(nil)
	if len(first) == 0 || len(first) != first[0].Partitions {
		t.Fatalf("initial read shipped %d frames, want every partition", len(first))
	}
	if got := members(first); len(got) != 1 || got[0].ID != "a" {
		t.Fatalf("members = %v", got)
	}
	gates := make([]uint64, len(first))
	for _, pl := range first {
		gates[pl.Part] = pl.Version
	}

	// Unchanged listing: no partition moved, no frame shipped.
	if again := read(gates); len(again) != 0 {
		t.Fatalf("gated read shipped %d frames", len(again))
	}

	// A mutation moves exactly the partition holding it.
	rb := w.mustPut(t, "s1", "b", "B")
	if err := w.client.Add(ctx, "dir", "c", rb); err != nil {
		t.Fatal(err)
	}
	moved := read(gates)
	if len(moved) != 1 || moved[0].Part != partFor("b", len(gates)) || moved[0].Version <= gates[moved[0].Part] {
		t.Fatalf("post-add gated read shipped %+v, want b's partition at a newer version", moved)
	}
	if !slices.Contains(moved[0].Members, rb) {
		t.Fatalf("moved partition %v does not list b", moved[0].Members)
	}

	// A vector of another length is another layout's: every partition ships.
	if all := read(gates[:len(gates)-1]); len(all) != len(gates) || len(members(all)) != 2 {
		t.Fatalf("short vector shipped %d frames, %d members; want %d frames, 2 members", len(all), len(members(all)), len(gates))
	}
}

func TestClientMutationEpoch(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	if w.client.Mutations() != 0 {
		t.Fatalf("fresh client epoch = %d", w.client.Mutations())
	}
	ref := w.mustPut(t, "s1", "a", "A")
	if w.client.Mutations() != 1 {
		t.Fatalf("after put epoch = %d", w.client.Mutations())
	}
	if _, err := w.client.Get(ctx, ref); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.client.GetBatch(ctx, "s1", []ObjectID{"a"}); err != nil {
		t.Fatal(err)
	}
	if w.client.Mutations() != 1 {
		t.Fatalf("reads bumped epoch: %d", w.client.Mutations())
	}
	if err := w.client.Delete(ctx, ref); err != nil {
		t.Fatal(err)
	}
	if w.client.Mutations() != 2 {
		t.Fatalf("after delete epoch = %d", w.client.Mutations())
	}
	// Failed mutations still advance the epoch: the server may have
	// applied the change before the reply was lost.
	_ = w.client.Delete(ctx, ref)
	if w.client.Mutations() != 3 {
		t.Fatalf("after failed delete epoch = %d", w.client.Mutations())
	}
}

func TestGetMissing(t *testing.T) {
	w := newWorld(t)
	if _, err := w.client.Get(context.Background(), Ref{ID: "nope", Node: "s1"}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestObjectCloneIsolation(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	ref, err := w.client.Put(ctx, "s1", Object{
		ID:    "iso",
		Data:  []byte("abc"),
		Attrs: map[string]string{"k": "v"},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := w.client.Get(ctx, ref)
	if err != nil {
		t.Fatal(err)
	}
	got.Data[0] = 'X'
	got.Attrs["k"] = "mutated"
	again, err := w.client.Get(ctx, ref)
	if err != nil {
		t.Fatal(err)
	}
	if string(again.Data) != "abc" || again.Attrs["k"] != "v" {
		t.Fatal("server state aliased by client mutation")
	}
}

func TestCollectionMembership(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	w.mustColl(t, "c")
	r1 := w.mustPut(t, "s1", "m1", "a")
	r2 := w.mustPut(t, "s2", "m2", "b")

	if err := w.client.Add(ctx, "dir", "c", r1); err != nil {
		t.Fatal(err)
	}
	if err := w.client.Add(ctx, "dir", "c", r2); err != nil {
		t.Fatal(err)
	}
	members, version, err := w.client.List(ctx, "dir", "c")
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 2 {
		t.Fatalf("members = %v", members)
	}
	if members[0].ID != "m1" || members[1].ID != "m2" {
		t.Fatalf("listing not sorted: %v", members)
	}
	if version != 2 {
		t.Fatalf("version = %d, want 2", version)
	}

	if _, err := w.client.Remove(ctx, "dir", "c", "m1"); err != nil {
		t.Fatal(err)
	}
	members, _, err = w.client.List(ctx, "dir", "c")
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 1 || members[0].ID != "m2" {
		t.Fatalf("members after remove = %v", members)
	}
}

func TestCollectionErrors(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	if _, _, err := w.client.List(ctx, "dir", "nope"); !errors.Is(err, ErrNoCollection) {
		t.Fatalf("err = %v, want ErrNoCollection", err)
	}
	w.mustColl(t, "dup")
	if err := w.client.CreateCollection(ctx, "dir", "dup"); !errors.Is(err, ErrCollectionExists) {
		t.Fatalf("err = %v, want ErrCollectionExists", err)
	}
	if _, err := w.client.Remove(ctx, "dir", "dup", "ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

// listPinned reads collection "c" at pin through the streamed partitioned
// listing, as runs read pins, merged back into one listing.
func (w *world) listPinned(ctx context.Context, pin int64) ([]Ref, error) {
	var parts [][]Ref
	err := w.client.ListPartsSubset(ctx, "dir", "c", pin, nil, nil, func(pl PartListing) error {
		parts = append(parts, pl.Members)
		return nil
	})
	return MergeParts(parts), err
}

func TestPinSnapshotIsolation(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	w.mustColl(t, "c")
	r1 := w.mustPut(t, "s1", "m1", "a")
	if err := w.client.Add(ctx, "dir", "c", r1); err != nil {
		t.Fatal(err)
	}

	pin, _, err := w.client.Pin(ctx, "dir", "c")
	if err != nil {
		t.Fatal(err)
	}

	// Mutate after the pin.
	r2 := w.mustPut(t, "s1", "m2", "b")
	if err := w.client.Add(ctx, "dir", "c", r2); err != nil {
		t.Fatal(err)
	}
	if _, err := w.client.Remove(ctx, "dir", "c", "m1"); err != nil {
		t.Fatal(err)
	}

	snap, err := w.listPinned(ctx, pin)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 1 || snap[0].ID != "m1" {
		t.Fatalf("pinned view = %v, want [m1]", snap)
	}
	live, _, err := w.client.List(ctx, "dir", "c")
	if err != nil {
		t.Fatal(err)
	}
	if len(live) != 1 || live[0].ID != "m2" {
		t.Fatalf("live view = %v, want [m2]", live)
	}

	if err := w.client.Unpin(ctx, "dir", "c", pin); err != nil {
		t.Fatal(err)
	}
	if _, err := w.listPinned(ctx, pin); !errors.Is(err, ErrBadPin) {
		t.Fatalf("err = %v, want ErrBadPin", err)
	}
}

func TestGrowWindowDefersDeletion(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	w.mustColl(t, "c")
	r1 := w.mustPut(t, "s1", "m1", "a")
	if err := w.client.Add(ctx, "dir", "c", r1); err != nil {
		t.Fatal(err)
	}

	token, err := w.client.BeginGrow(ctx, "dir", "c")
	if err != nil {
		t.Fatal(err)
	}

	// Delete during the window: membership must keep listing the ghost and
	// the data must remain fetchable.
	if err := w.client.DeleteMember(ctx, "dir", "c", r1); err != nil {
		t.Fatal(err)
	}
	members, _, err := w.client.List(ctx, "dir", "c")
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 1 || members[0].ID != "m1" {
		t.Fatalf("ghost not listed: %v", members)
	}
	if _, err := w.client.Get(ctx, r1); err != nil {
		t.Fatalf("ghost data gone during window: %v", err)
	}
	stats, err := w.client.Stats(ctx, "dir", "c")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ghosts != 1 || stats.Tokens != 1 {
		t.Fatalf("stats = %+v", stats)
	}

	reclaimed, err := w.client.EndGrow(ctx, "dir", "c", token)
	if err != nil {
		t.Fatal(err)
	}
	if reclaimed != 1 {
		t.Fatalf("reclaimed = %d, want 1", reclaimed)
	}
	members, _, err = w.client.List(ctx, "dir", "c")
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 0 {
		t.Fatalf("ghost survived window close: %v", members)
	}
	// Object data is deleted asynchronously by the directory server.
	w.dirSrv.Close() // waits for the async delete
	if _, err := w.client.Get(ctx, r1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ghost object not reclaimed: %v", err)
	}
}

func TestGrowWindowReviveCancelsDelete(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	w.mustColl(t, "c")
	r1 := w.mustPut(t, "s1", "m1", "a")
	if err := w.client.Add(ctx, "dir", "c", r1); err != nil {
		t.Fatal(err)
	}
	token, err := w.client.BeginGrow(ctx, "dir", "c")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.client.DeleteMember(ctx, "dir", "c", r1); err != nil {
		t.Fatal(err)
	}
	// Re-add before the window closes: the delete must not fire.
	if err := w.client.Add(ctx, "dir", "c", r1); err != nil {
		t.Fatal(err)
	}
	reclaimed, err := w.client.EndGrow(ctx, "dir", "c", token)
	if err != nil {
		t.Fatal(err)
	}
	if reclaimed != 0 {
		t.Fatalf("reclaimed = %d, want 0", reclaimed)
	}
	if _, err := w.client.Get(ctx, r1); err != nil {
		t.Fatalf("revived member's data was deleted: %v", err)
	}
}

func TestNestedGrowWindows(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	w.mustColl(t, "c")
	r1 := w.mustPut(t, "s1", "m1", "a")
	if err := w.client.Add(ctx, "dir", "c", r1); err != nil {
		t.Fatal(err)
	}
	t1, err := w.client.BeginGrow(ctx, "dir", "c")
	if err != nil {
		t.Fatal(err)
	}
	t2, err := w.client.BeginGrow(ctx, "dir", "c")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.client.DeleteMember(ctx, "dir", "c", r1); err != nil {
		t.Fatal(err)
	}
	// Closing one window keeps the ghost alive for the other.
	if _, err := w.client.EndGrow(ctx, "dir", "c", t1); err != nil {
		t.Fatal(err)
	}
	members, _, err := w.client.List(ctx, "dir", "c")
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 1 {
		t.Fatalf("ghost reclaimed while a window was open: %v", members)
	}
	if _, err := w.client.EndGrow(ctx, "dir", "c", t2); err != nil {
		t.Fatal(err)
	}
	if members, _, _ = w.client.List(ctx, "dir", "c"); len(members) != 0 {
		t.Fatalf("ghost survived: %v", members)
	}
	if _, err := w.client.EndGrow(ctx, "dir", "c", t2); !errors.Is(err, ErrBadToken) {
		t.Fatalf("err = %v, want ErrBadToken", err)
	}
}

func TestDeleteMemberWithoutWindowDeletesData(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	w.mustColl(t, "c")
	ref := w.mustPut(t, "s2", "m", "x")
	if err := w.client.Add(ctx, "dir", "c", ref); err != nil {
		t.Fatal(err)
	}
	if err := w.client.DeleteMember(ctx, "dir", "c", ref); err != nil {
		t.Fatal(err)
	}
	if _, err := w.client.Get(ctx, ref); !errors.Is(err, ErrNotFound) {
		t.Fatalf("data survived: %v", err)
	}
}

func TestReplicationPropagatesAndLags(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	w.mustColl(t, "c")
	ref := w.mustPut(t, "s1", "m1", "a")
	if err := w.client.Add(ctx, "dir", "c", ref); err != nil {
		t.Fatal(err)
	}
	if err := w.dirSrv.ReplicateCollection("c", []netsim.NodeID{"s2"}); err != nil {
		t.Fatal(err)
	}
	// Wait for the push (async, zero scale so nearly immediate).
	waitFor(t, time.Second, func() bool {
		members, _, err := w.client.List(ctx, "s2", "c")
		return err == nil && len(members) == 1
	})

	// Partition the replica; mutate the primary; the replica must lag.
	w.net.Isolate("s2")
	r2 := w.mustPut(t, "s1", "m2", "b")
	if err := w.client.Add(ctx, "dir", "c", r2); err != nil {
		t.Fatal(err)
	}
	w.net.Rejoin("s2")
	members, _, err := w.client.List(ctx, "s2", "c")
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 1 {
		t.Fatalf("replica should be stale, got %v", members)
	}

	// The next mutation pushes every partition the replica is behind on
	// and catches it up.
	r3 := w.mustPut(t, "s1", "m3", "c")
	if err := w.client.Add(ctx, "dir", "c", r3); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool {
		members, _, err := w.client.List(ctx, "s2", "c")
		return err == nil && len(members) == 3
	})
}

// TestReplicaIgnoresStaleSync drives the replica's side of the push over
// the wire: a partition push at a version below the one the replica
// already holds is declined, and the replica keeps what it had.
func TestReplicaIgnoresStaleSync(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	// Push version 5 then version 3 directly; replica must keep 5.
	push := func(id ObjectID, version uint64) bool {
		t.Helper()
		resp, err := rpc.Invoke[SyncPartResp](ctx, w.bus, "home", "s1", MethodSyncPart, SyncPartReq{
			Name:       "r",
			Partitions: 1,
			Members:    []Ref{{ID: id, Node: "s2"}},
			Version:    version,
		})
		if err != nil {
			t.Fatal(err)
		}
		return resp.Applied
	}
	if !push("new", 5) {
		t.Fatal("first push declined")
	}
	if push("old", 3) {
		t.Fatal("stale push reported applied")
	}
	members, version, err := w.client.List(ctx, "s1", "r")
	if err != nil {
		t.Fatal(err)
	}
	if version != 5 || len(members) != 1 || members[0].ID != "new" {
		t.Fatalf("replica applied stale sync: v%d %v", version, members)
	}
}

// TestSyncReplicaReturnsDigestErrors pins the anti-entropy push to its
// real trigger: a replica whose digest fails for any reason other than
// "no such collection" is an error for the handoff bookkeeping, not an
// invitation to blindly push every partition at it.
func TestSyncReplicaReturnsDigestErrors(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	w.mustColl(t, "c")

	w.net.AddNode("sick")
	sick := rpc.NewServer("sick")
	digestErr := errors.New("digest: disk on fire")
	sick.Handle(MethodSyncDigest, func(context.Context, netsim.NodeID, any) (any, error) {
		return nil, digestErr
	})
	if err := w.bus.Register(sick); err != nil {
		t.Fatal(err)
	}
	pushes := w.bus.MethodCalls(MethodSyncPart)
	if err := w.dirSrv.ae.syncReplica(ctx, "c", "sick"); !errors.Is(err, digestErr) {
		t.Fatalf("syncReplica = %v, want the digest error", err)
	}
	if got := w.bus.MethodCalls(MethodSyncPart) - pushes; got != 0 {
		t.Fatalf("digest error triggered %d partition pushes", got)
	}

	// A replica that has never seen the collection gets every partition
	// pushed, once, in the same round — and then holds it in the home's
	// layout.
	if err := w.dirSrv.ae.syncReplica(ctx, "c", "s2"); err != nil {
		t.Fatal(err)
	}
	parts, err := w.dirSrv.Store().Partitions("c")
	if err != nil {
		t.Fatal(err)
	}
	if got := w.bus.MethodCalls(MethodSyncPart) - pushes; got != int64(parts) {
		t.Fatalf("first contact issued %d partition pushes, want one per partition (%d)", got, parts)
	}
	if got, err := w.s2Srv.Store().Partitions("c"); err != nil || got != parts {
		t.Fatalf("replica holds %d partitions (%v), want the home's %d", got, err, parts)
	}
}

func waitFor(t *testing.T, limit time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never became true")
}

func TestClientAccessors(t *testing.T) {
	w := newWorld(t)
	if w.client.Node() != "home" {
		t.Fatalf("node = %s", w.client.Node())
	}
	if w.client.Bus() != w.bus {
		t.Fatal("bus accessor wrong")
	}
	ref := Ref{ID: "x", Node: "s1"}
	if !w.client.Reachable(ref) || !w.client.NodeReachable("s2") {
		t.Fatal("healthy nodes unreachable")
	}
	if w.client.EstimateRTT(ref) <= 0 {
		t.Fatal("rtt estimate not positive")
	}
	w.net.Isolate("s1")
	if w.client.Reachable(ref) {
		t.Fatal("isolated node reachable")
	}
	if w.s1Srv.Node() != "s1" {
		t.Fatalf("server node = %s", w.s1Srv.Node())
	}
	if w.s1Srv.ObjectCount() != 0 {
		t.Fatalf("object count = %d", w.s1Srv.ObjectCount())
	}
}
