package repo

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"weaksets/internal/netsim"
	"weaksets/internal/store"
	"weaksets/internal/wirebin"
)

// roundGob round-trips v through a fresh gob stream, encoded as an
// interface so the concrete type name rides along: the reference every
// wirebin codec is held to.
func roundGob(t testing.TB, v any) any {
	t.Helper()
	gob.Register(GetReq{})
	gob.Register(Object{})
	gob.Register(GetBatchReq{})
	gob.Register(GetBatchResp{})
	gob.Register(ListPartsReq{})
	gob.Register(PartListing{})
	gob.Register(ListPartsResp{})
	gob.Register(LeaseReq{})
	gob.Register(LeaseGrant{})
	gob.Register(WatchReq{})
	gob.Register(Invalidation{})
	gob.Register(PutReq{})
	gob.Register(PutResp{})
	gob.Register(AddReq{})
	gob.Register(RemoveReq{})
	gob.Register(RemoveResp{})
	gob.Register(MutateResp{})
	gob.Register(PinReq{})
	gob.Register(PinResp{})
	gob.Register(UnpinReq{})
	gob.Register(struct{}{})
	gob.Register(DeleteReq{})
	gob.Register(CreateReq{})
	gob.Register(BeginGrowReq{})
	gob.Register(BeginGrowResp{})
	gob.Register(EndGrowReq{})
	gob.Register(EndGrowResp{})
	gob.Register(StatsReq{})
	gob.Register(StatsResp{})
	gob.Register(StoreStatsReq{})
	gob.Register(StoreStatsResp{})
	gob.Register(SyncPartReq{})
	gob.Register(SyncPartResp{})
	gob.Register(DigestReq{})
	gob.Register(DigestResp{})
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	var out any
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatalf("gob decode: %v", err)
	}
	return out
}

// engineStats is a StoreStatsResp body with every field set, nested
// slice included.
var engineStats = store.EngineStats{
	Engine: "sharded", Shards: 16, Objects: 10, Collections: 2,
	Batch: store.BatchStats{Batches: 4, BatchedGets: 64, MaxBatch: 16, RTTSaved: 60, NotModified: 3, BytesShipped: 1 << 20, BytesSaved: 512},
	Ops: []store.OpStats{
		{Op: "getBatch", Count: 4, Errors: 1, Mean: 1500, P50: 1200, P99: 9000},
		{Op: "list"},
	},
}

// roundWirebin round-trips v through the registered wirebin codec.
func roundWirebin(t testing.TB, v any) any {
	t.Helper()
	id, enc, ok := wirebin.Lookup(v)
	if !ok {
		t.Fatalf("no wirebin codec for %T", v)
	}
	frame := enc(nil, v)
	dec, ok := wirebin.ByID(id)
	if !ok {
		t.Fatalf("no wirebin decoder for id %d", id)
	}
	var r wirebin.Reader
	r.Reset(frame)
	out := dec(&r)
	if err := r.Err(); err != nil {
		t.Fatalf("wirebin decode %T: %v", v, err)
	}
	if r.Len() != 0 {
		t.Fatalf("wirebin decode %T left %d bytes", v, r.Len())
	}
	return out
}

// TestWirebinGobConformance holds every hand-rolled codec to gob's
// round-trip semantics: for every registered message type and every
// tricky shape (nil vs empty slices and maps, zero versions, tombstones,
// unicode ids, big varints), decoding the wirebin form must yield
// exactly what decoding the gob form yields.
func TestWirebinGobConformance(t *testing.T) {
	attrs := map[string]string{"cuisine": "chinese", "città": "米兰"}
	obj := Object{ID: "obj-1", Data: []byte("payload"), Attrs: attrs, Version: 7, Tombstone: true}
	cases := []any{
		GetReq{},
		GetReq{ID: "e0001"},
		GetReq{ID: "unicode-идентификатор-🦉"},
		Object{},
		Object{ID: "bare"},
		obj,
		Object{ID: "empties", Data: []byte{}, Attrs: map[string]string{}},
		Object{ID: "maxver", Version: 1<<64 - 1},
		GetBatchReq{},
		GetBatchReq{IDs: []ObjectID{"a", "b", "a"}},
		GetBatchReq{IDs: []ObjectID{}, Known: map[ObjectID]uint64{}},
		GetBatchReq{IDs: []ObjectID{"x"}, Known: map[ObjectID]uint64{"x": 3, "y": 1 << 40}},
		GetBatchResp{},
		GetBatchResp{Objects: []Object{obj, {ID: "two"}}, NotModified: []ObjectID{"nm"}, Missing: []ObjectID{"gone", "gone2"}},
		GetBatchResp{Objects: []Object{}, NotModified: []ObjectID{}, Missing: []ObjectID{}},
		ListPartsReq{},
		ListPartsReq{Name: "c", Pin: -7, Stream: true},
		ListPartsReq{Name: "c", IfVersions: []uint64{0, 9, 1 << 40}},
		ListPartsReq{Name: "c", IfVersions: []uint64{}},
		PartListing{},
		PartListing{Part: 3, Partitions: 16, Members: []Ref{{ID: "a", Node: "n1"}}, Version: 8},
		PartListing{Part: 15, Partitions: 16, Version: 1<<64 - 1, Skewed: true},
		PartListing{Members: []Ref{}},
		ListPartsResp{},
		ListPartsResp{Parts: []PartListing{
			{Part: 0, Partitions: 2, Members: []Ref{{ID: "a", Node: "n1"}, {ID: "c", Node: "n2"}}, Version: 4},
			{Part: 1, Partitions: 2, Version: 3},
		}},
		ListPartsResp{Parts: []PartListing{}},
		LeaseReq{},
		LeaseReq{Colls: []string{"a", "b", "a"}},
		LeaseReq{Colls: []string{}},
		LeaseReq{Colls: []string{"unicode-коллекция-🦉"}},
		LeaseGrant{},
		LeaseGrant{TTL: 30000000000, Versions: map[string]uint64{"c": 7, "d": 1 << 40}},
		LeaseGrant{Versions: map[string]uint64{}},
		WatchReq{},
		Invalidation{},
		Invalidation{Coll: "c", Part: -1, Version: 9},
		Invalidation{Coll: "c", Part: 15, Version: 1<<64 - 1},
		PutReq{},
		PutReq{Obj: obj},
		PutReq{Obj: Object{ID: "empties", Data: []byte{}, Attrs: map[string]string{}}},
		PutResp{},
		PutResp{Version: 1<<64 - 1},
		AddReq{},
		AddReq{Name: "c", Ref: Ref{ID: "unicode-идентификатор-🦉", Node: "n1"}},
		RemoveReq{},
		RemoveReq{Name: "c", ID: "a"},
		RemoveResp{},
		RemoveResp{Deferred: true, Version: 1 << 40},
		MutateResp{},
		MutateResp{Version: 9},
		PinReq{},
		PinReq{Name: "unicode-коллекция-🦉"},
		PinResp{},
		PinResp{Pin: -42},
		PinResp{Pin: 1 << 40},
		PinResp{Pin: 3, Versions: []uint64{0, 9, 1<<64 - 1}},
		PinResp{Pin: 4, Versions: []uint64{}},
		UnpinReq{},
		UnpinReq{Name: "c", Pin: 1 << 40},
		struct{}{},
		DeleteReq{},
		DeleteReq{ID: "unicode-идентификатор-🦉"},
		CreateReq{},
		CreateReq{Name: "c"},
		BeginGrowReq{},
		BeginGrowReq{Name: "c"},
		BeginGrowResp{},
		BeginGrowResp{Token: -3},
		BeginGrowResp{Token: 1 << 40},
		EndGrowReq{},
		EndGrowReq{Name: "c", Token: 1 << 40},
		EndGrowResp{},
		EndGrowResp{Reclaimed: 7},
		StatsReq{},
		StatsReq{Name: "unicode-коллекция-🦉"},
		StatsResp{},
		StatsResp{Members: 3, Ghosts: 1, Pins: 2, Tokens: 1, Version: 1<<64 - 1, Partitions: 16},
		StoreStatsReq{},
		StoreStatsResp{},
		StoreStatsResp{Stats: engineStats},
		StoreStatsResp{Stats: store.EngineStats{Engine: "locked", Ops: []store.OpStats{}}},
		SyncPartReq{},
		SyncPartReq{Name: "c", Partitions: 16, Part: 15, Version: 1<<64 - 1,
			Members: []Ref{{ID: "a", Node: "n1"}}, Objects: []Object{obj, {ID: "two"}}},
		SyncPartReq{Members: []Ref{}, Objects: []Object{}},
		SyncPartResp{},
		SyncPartResp{Applied: true},
		DigestReq{},
		DigestReq{Name: "c"},
		DigestResp{},
		DigestResp{Partitions: 3, Versions: []uint64{0, 9, 1 << 40}, AgeMs: -1},
		DigestResp{Versions: []uint64{}},
	}
	for _, in := range cases {
		in := in
		t.Run(fmt.Sprintf("%T", in), func(t *testing.T) {
			viaGob := roundGob(t, in)
			viaWB := roundWirebin(t, in)
			if !reflect.DeepEqual(viaGob, viaWB) {
				t.Fatalf("codecs disagree:\n gob     → %#v\n wirebin → %#v", viaGob, viaWB)
			}
		})
	}
}

// TestWirebinDecodePartialFrameErrors holds every typed decoder to the
// truncation contract: any prefix of a valid frame must produce a reader
// error, never a panic or a silently short message.
func TestWirebinDecodePartialFrameErrors(t *testing.T) {
	msgs := []any{
		GetBatchResp{
			Objects:     []Object{{ID: "a", Data: []byte("dddd"), Version: 2}, {ID: "b", Attrs: map[string]string{"k": "v"}}},
			NotModified: []ObjectID{"nm1"},
			Missing:     []ObjectID{"m1"},
		},
		ListPartsReq{Name: "c", Pin: -3, IfVersions: []uint64{1, 2, 3}, Stream: true},
		PartListing{Part: 2, Partitions: 4, Members: []Ref{{ID: "a", Node: "n1"}, {ID: "b", Node: "n2"}}, Version: 9, Skewed: true},
		ListPartsResp{Parts: []PartListing{
			{Part: 0, Partitions: 2, Members: []Ref{{ID: "a", Node: "n1"}}, Version: 2},
			{Part: 1, Partitions: 2, Version: 1},
		}},
		LeaseReq{Colls: []string{"c1", "c2"}},
		LeaseGrant{TTL: 30000000000, Versions: map[string]uint64{"c1": 4, "c2": 9}},
		Invalidation{Coll: "c1", Part: 3, Version: 12},
		PutReq{Obj: Object{ID: "a", Data: []byte("dddd"), Version: 2, Attrs: map[string]string{"k": "v"}}},
		AddReq{Name: "c", Ref: Ref{ID: "a", Node: "n1"}},
		RemoveReq{Name: "c", ID: "a"},
		RemoveResp{Deferred: true, Version: 300},
		PinResp{Pin: 300, Versions: []uint64{3, 300}},
		UnpinReq{Name: "c", Pin: 300},
		DeleteReq{ID: "a"},
		CreateReq{Name: "c"},
		BeginGrowReq{Name: "c"},
		BeginGrowResp{Token: 300},
		EndGrowReq{Name: "c", Token: 300},
		EndGrowResp{Reclaimed: 300},
		StatsReq{Name: "c"},
		StatsResp{Members: 3, Ghosts: 1, Pins: 2, Tokens: 1, Version: 300, Partitions: 16},
		StoreStatsResp{Stats: engineStats},
		SyncPartReq{Name: "c", Partitions: 4, Part: 1, Version: 7, Members: []Ref{{ID: "a", Node: "n1"}},
			Objects: []Object{{ID: "a", Data: []byte("dddd"), Version: 2}}},
		DigestResp{Partitions: 2, Versions: []uint64{3, 300}, AgeMs: 12},
	}
	for _, msg := range msgs {
		msg := msg
		t.Run(fmt.Sprintf("%T", msg), func(t *testing.T) {
			id, enc, ok := wirebin.Lookup(msg)
			if !ok {
				t.Fatalf("no wirebin codec for %T", msg)
			}
			frame := enc(nil, msg)
			dec, _ := wirebin.ByID(id)
			for cut := 0; cut < len(frame); cut++ {
				var r wirebin.Reader
				r.Reset(frame[:cut])
				_ = dec(&r)
				if r.Err() == nil && r.Len() == 0 && cut < len(frame) {
					// A clean decode of a strict prefix would mean the format
					// is ambiguous about its own end.
					t.Fatalf("cut=%d decoded cleanly", cut)
				}
			}
		})
	}
}

// TestRetiredTypeIDsStayRetired holds the table's promise never to reuse
// an id: 5 and 6, the whole-listing List's bodies, decode as nothing, and
// every other id through the last is registered.
func TestRetiredTypeIDsStayRetired(t *testing.T) {
	for id := uint16(wbGetReq); id <= wbStoreStatsResp; id++ {
		_, ok := wirebin.ByID(id)
		if retired := id == 5 || id == 6; ok == retired {
			t.Errorf("type id %d: registered=%v, retired=%v", id, ok, retired)
		}
	}
}

// FuzzWirebinDecode throws arbitrary bytes at every registered repository
// decoder. The server feeds these decoders straight from the socket, so
// they must never panic and never allocate proportionally to a lying
// length prefix (the reader bounds every count by the remaining frame).
func FuzzWirebinDecode(f *testing.F) {
	seedVals := []any{
		GetReq{ID: "seed"},
		Object{ID: "o", Data: []byte("data"), Attrs: map[string]string{"a": "b"}, Version: 1},
		GetBatchReq{IDs: []ObjectID{"x", "y"}, Known: map[ObjectID]uint64{"x": 1}},
		GetBatchResp{Objects: []Object{{ID: "o"}}, Missing: []ObjectID{"m"}},
		ListPartsReq{Name: "c", IfVersions: []uint64{1, 2}, Stream: true},
		PartListing{Part: 1, Partitions: 4, Members: []Ref{{ID: "a", Node: "n"}}, Version: 3, Skewed: true},
		ListPartsResp{Parts: []PartListing{{Part: 0, Partitions: 1, Members: []Ref{{ID: "a", Node: "n"}}}}},
		LeaseReq{Colls: []string{"c1", "c2"}},
		LeaseGrant{TTL: 30000000000, Versions: map[string]uint64{"c1": 4}},
		Invalidation{Coll: "c1", Part: 3, Version: 12},
		PutReq{Obj: Object{ID: "o", Data: []byte("data"), Attrs: map[string]string{"a": "b"}, Version: 1}},
		PutResp{Version: 2},
		AddReq{Name: "c", Ref: Ref{ID: "a", Node: "n"}},
		RemoveReq{Name: "c", ID: "a"},
		RemoveResp{Deferred: true, Version: 3},
		MutateResp{Version: 4},
		PinReq{Name: "c"},
		PinResp{Pin: -5},
		UnpinReq{Name: "c", Pin: 5},
		DeleteReq{ID: "o"},
		CreateReq{Name: "c"},
		BeginGrowReq{Name: "c"},
		BeginGrowResp{Token: 4},
		EndGrowReq{Name: "c", Token: 4},
		EndGrowResp{Reclaimed: 2},
		StatsReq{Name: "c"},
		StatsResp{Members: 3, Ghosts: 1, Pins: 2, Tokens: 1, Version: 9, Partitions: 16},
		StoreStatsResp{Stats: engineStats},
		SyncPartReq{Name: "c", Partitions: 4, Part: 1, Version: 7, Members: []Ref{{ID: "a", Node: "n"}}, Objects: []Object{{ID: "a", Data: []byte("d")}}},
		DigestResp{Partitions: 2, Versions: []uint64{3, 300}, AgeMs: 12},
		PinResp{Pin: 5, Versions: []uint64{3, 300}},
	}
	for _, v := range seedVals {
		_, enc, _ := wirebin.Lookup(v)
		f.Add(enc(nil, v))
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Every id the repository registers, 1 through the last, less the
		// retired ones.
		for id := uint16(wbGetReq); id <= wbStoreStatsResp; id++ {
			dec, ok := wirebin.ByID(id)
			if !ok {
				continue
			}
			var r wirebin.Reader
			r.Reset(data)
			_ = dec(&r) // must not panic, any error is fine
		}
	})
}

// loadAllocBudget reads the checked-in allocs/op ceilings from the repo
// root. The budget file is the CI regression guard's contract: raising a
// number is a reviewed decision, not a silent drift.
func loadAllocBudget(t *testing.T) map[string]float64 {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_budget.json"))
	if err != nil {
		t.Fatalf("alloc budget file: %v", err)
	}
	var doc struct {
		AllocsPerOp map[string]float64 `json:"allocsPerOp"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("alloc budget file: %v", err)
	}
	return doc.AllocsPerOp
}

// benchPartListing builds one streamed partition frame of 64 members —
// the per-frame unit of the scatter-gather listing path.
func benchPartListing() PartListing {
	members := make([]Ref, 64)
	for i := range members {
		members[i] = Ref{
			ID:   ObjectID(fmt.Sprintf("e%04d", i)),
			Node: netsim.NodeID(fmt.Sprintf("storage%d", i%4)),
		}
	}
	return PartListing{Part: 3, Partitions: 16, Members: members, Version: 42}
}

// benchGetBatchResp builds a 16-object batch with 256B payloads — the
// fetch pipeline's default batch shape.
func benchGetBatchResp() GetBatchResp {
	objs := make([]Object, 16)
	for i := range objs {
		objs[i] = Object{
			ID:      ObjectID(fmt.Sprintf("e%04d", i)),
			Data:    bytes.Repeat([]byte{byte(i)}, 256),
			Version: uint64(i + 1),
		}
	}
	return GetBatchResp{Objects: objs}
}

// TestAllocBudget is the hot-path allocation regression guard: the
// wirebin encode and decode paths for the elements hot path must stay
// within the checked-in allocs/op ceilings (BENCH_budget.json at the
// repo root). `make bench-rpc` runs it, so CI fails loudly if a change
// sneaks allocations back onto the path gob was retired from.
func TestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race instrumentation")
	}
	budget := loadAllocBudget(t)

	batchResp := benchGetBatchResp()
	batchFrame := appendGetBatchResp(nil, batchResp)
	partListing := benchPartListing()
	partFrame := appendPartListing(nil, partListing)
	inv := Invalidation{Coll: "set", Part: 3, Version: 42}
	invFrame := appendInvalidation(nil, inv)
	// A 10 000-member listing streams 625 refs a partition, and every
	// frame here carries ids no frame before it did: more distinct ids than
	// any table of seen strings holds, as a large set's always are.
	const coldRefs = 625
	coldFrames := make([][]byte, 202) // one per AllocsPerRun call, warm-up included
	for f := range coldFrames {
		members := make([]Ref, coldRefs)
		for i := range members {
			members[i] = Ref{ID: ObjectID(fmt.Sprintf("f%03de%04d", f, i)), Node: netsim.NodeID(fmt.Sprintf("storage%d", i%4))}
		}
		coldFrames[f] = appendPartListing(nil, PartListing{Part: f % 16, Partitions: 16, Members: members, Version: 42})
	}
	// A cold run's batch requests are made of such ids too: 64 a request,
	// none seen before, and no known versions with the cache off.
	coldReqs := make([][]byte, 202)
	for f := range coldReqs {
		ids := make([]ObjectID, 64)
		for i := range ids {
			ids[i] = ObjectID(fmt.Sprintf("f%03de%04d", f, i))
		}
		coldReqs[f] = appendGetBatchReq(nil, GetBatchReq{IDs: ids})
	}
	nextCold, nextReq := 0, 0
	var r wirebin.Reader
	// Warm the intern table so the measurement sees the steady state a
	// long-lived connection sees (node and collection names repeat).
	r.Reset(batchFrame)
	_ = decodeGetBatchResp(&r)
	r.Reset(partFrame)
	_ = decodePartListing(&r)
	r.Reset(invFrame)
	_ = decodeInvalidation(&r)

	// The serves every cache- or lease-served element makes — by id, by
	// position, and the lease check: none may allocate.
	cache, cacheIDs := benchCache(1_000)
	cacheHandles, tally := benchHandles(cache, cacheIDs), Tally{}
	lease := heldLease("set", time.Hour)
	nextServe := 0

	// A gated listing read that finds no partition moved: the request,
	// the server's stream and nothing shipped — what a non-leased
	// current-state run pays per invocation on a quiescent set.
	w := newWorld(t)
	seedParts(t, w, 64)
	gates := make([]uint64, 0, store.DefaultPartitions)
	for _, pl := range collectParts(t, w, nil) {
		gates = append(gates, pl.Version)
	}
	unmoved := func(pl PartListing) error {
		t.Fatalf("partition %d shipped under the current gate", pl.Part)
		return nil
	}
	ctx := context.Background()
	// A snapshot run's pin around an open from a held pinned listing that
	// is what the pin holds: the pin's vector matches the held one, so no
	// partition is read.
	_, held, err := w.client.Pin(ctx, "dir", "c")
	if err != nil {
		t.Fatal(err)
	}

	scratch := make([]byte, 0, 2*len(batchFrame))
	paths := map[string]func(){
		"cacheServeFresh": func() {
			if _, _, ok := cache.ServeFresh("set", 1, cacheIDs[nextServe%len(cacheIDs)]); !ok {
				t.Fatal("cache miss")
			}
			nextServe++
		},
		"cacheServeAt": func() {
			k := nextServe % len(cacheIDs)
			if _, _, ok := cache.ServeAt(&cacheHandles[k], "set", whole(1), cacheIDs[k], &tally); !ok {
				t.Fatal("cache miss")
			}
			nextServe++
		},
		"leaseServeable": func() {
			if _, _, ok := lease.Serveable("set"); !ok {
				t.Fatal("lease not serveable")
			}
		},
		"snapshotOpenUnchanged": func() {
			pin, vers, err := w.client.Pin(ctx, "dir", "c")
			if err != nil || !slices.Equal(vers, held) {
				t.Fatalf("pin at %v, held %v: %v", vers, held, err)
			}
			if err := w.client.Unpin(ctx, "dir", "c", pin); err != nil {
				t.Fatal(err)
			}
		},
		"listPartsUnchanged": func() {
			if err := w.client.ListPartsSubset(ctx, "dir", "c", 0, gates, nil, unmoved); err != nil {
				t.Fatal(err)
			}
		},
		"encodeGetBatchResp": func() {
			scratch = appendGetBatchResp(scratch[:0], batchResp)
		},
		"decodeGetBatchResp": func() {
			r.Reset(batchFrame)
			if v := decodeGetBatchResp(&r); len(v.Objects) != len(batchResp.Objects) || r.Err() != nil {
				t.Fatalf("bad decode: %d objects, err %v", len(v.Objects), r.Err())
			}
		},
		"encodePartListing": func() {
			scratch = appendPartListing(scratch[:0], partListing)
		},
		"decodePartListing": func() {
			r.Reset(partFrame)
			if v := decodePartListing(&r); len(v.Members) != len(partListing.Members) || r.Err() != nil {
				t.Fatalf("bad decode: %d members, err %v", len(v.Members), r.Err())
			}
		},
		"decodePartListingColdIDs": func() {
			r.Reset(coldFrames[nextCold%len(coldFrames)])
			nextCold++
			if v := decodePartListing(&r); len(v.Members) != coldRefs || r.Err() != nil {
				t.Fatalf("bad decode: %d members, err %v", len(v.Members), r.Err())
			}
		},
		"decodeGetBatchReqColdIDs": func() {
			r.Reset(coldReqs[nextReq%len(coldReqs)])
			nextReq++
			if v := decodeGetBatchReq(&r); len(v.IDs) != 64 || r.Err() != nil {
				t.Fatalf("bad decode: %d ids, err %v", len(v.IDs), r.Err())
			}
		},
		// The invalidation push fires once per listing change on every
		// watch stream: per-event allocations would scale with write rate
		// times watchers, so the whole encode/decode path must be free.
		"encodeInvalidation": func() {
			scratch = appendInvalidation(scratch[:0], inv)
		},
		"decodeInvalidation": func() {
			r.Reset(invFrame)
			if v := decodeInvalidation(&r); v != inv || r.Err() != nil {
				t.Fatalf("bad decode: %+v, err %v", v, r.Err())
			}
		},
	}
	for name, fn := range paths {
		max, ok := budget[name]
		if !ok {
			t.Fatalf("no allocs/op budget for %q in BENCH_budget.json", name)
		}
		got := testing.AllocsPerRun(200, fn)
		t.Logf("%s: %.1f allocs/op (budget %.0f)", name, got, max)
		if got > max {
			t.Errorf("%s allocates %.1f/op, budget is %.0f — BENCH_budget.json is the regression gate; "+
				"fix the codec or raise the budget deliberately", name, got, max)
		}
	}
}

// BenchmarkWirebinCodec reports the codec-layer cost of the two hot
// response types against their gob equivalents; ReportAllocs makes the
// near-zero-alloc claim visible in `go test -bench`.
func BenchmarkWirebinCodec(b *testing.B) {
	partListing := benchPartListing()
	batchResp := benchGetBatchResp()

	b.Run("encodePartListing/wirebin", func(b *testing.B) {
		buf := make([]byte, 0, 4096)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = appendPartListing(buf[:0], partListing)
		}
	})
	b.Run("encodePartListing/gob", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(partListing); err != nil {
				b.Fatal(err)
			}
		}
	})
	partFrame := appendPartListing(nil, partListing)
	b.Run("decodePartListing/wirebin", func(b *testing.B) {
		var r wirebin.Reader
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Reset(partFrame)
			if v := decodePartListing(&r); len(v.Members) != 64 {
				b.Fatal("bad decode")
			}
		}
	})
	var gobList bytes.Buffer
	if err := gob.NewEncoder(&gobList).Encode(partListing); err != nil {
		b.Fatal(err)
	}
	b.Run("decodePartListing/gob", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var v PartListing
			if err := gob.NewDecoder(bytes.NewReader(gobList.Bytes())).Decode(&v); err != nil {
				b.Fatal(err)
			}
		}
	})
	batchFrame := appendGetBatchResp(nil, batchResp)
	b.Run("decodeGetBatchResp/wirebin", func(b *testing.B) {
		var r wirebin.Reader
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Reset(batchFrame)
			if v := decodeGetBatchResp(&r); len(v.Objects) != 16 {
				b.Fatal("bad decode")
			}
		}
	})
	var gobBatch bytes.Buffer
	if err := gob.NewEncoder(&gobBatch).Encode(batchResp); err != nil {
		b.Fatal(err)
	}
	b.Run("decodeGetBatchResp/gob", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var v GetBatchResp
			if err := gob.NewDecoder(bytes.NewReader(gobBatch.Bytes())).Decode(&v); err != nil {
				b.Fatal(err)
			}
		}
	})
}
