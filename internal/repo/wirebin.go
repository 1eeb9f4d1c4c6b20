package repo

import (
	"time"

	"weaksets/internal/netsim"
	"weaksets/internal/store"
	"weaksets/internal/wirebin"
)

// This file registers a hand-rolled wirebin marshaler for every repository
// wire struct — wirebin is the only codec the TCP transport speaks, so a
// body without one cannot cross it. The hot ones carry the elements path
// on every run: ListPartsReq/PartListing (membership, snapshot or
// current-state), GetBatchReq/GetBatchResp (the pipelined batch fetch,
// including the Known-versions and NotModified vectors), the lease and
// anti-entropy messages; the rest are the one-to-six-field bodies of the
// write, pin, grow-window and stats calls. See DESIGN.md §11 for the frame
// layout.
//
// Conventions (held to gob's observable round-trip semantics, which the
// conformance tests in wirebin_test.go enforce):
//
//   - empty slices and byte blobs encode as count 0 and decode as nil,
//     exactly as a gob round trip leaves them; maps carry a presence
//     sentinel (0 = nil, n+1 = n entries) because gob preserves empty
//     non-nil maps;
//   - node, collection and method names decode through the reader's
//     intern table, so they allocate once per connection; the member ids
//     of a listing and the object ids of a batch answer are views into
//     their frame (Reader.Text), so a frame of ids never seen before
//     decodes with one allocation, its result slice;
//   - Object.Data decodes as a view into the frame buffer too (the
//     transport hands an aliased frame to the decoded body and reads the
//     next into a new buffer), so a wide GetBatchResp decodes with O(1)
//     allocations, not O(objects);
//   - the ids of a GetBatch request are views too: the server answers
//     from them and keeps none;
//   - a string a server keeps — the ids of Add, Remove, SyncPart and Put —
//     decodes through String, never Text: a view would pin its whole frame
//     for as long as the store holds the id.

// Stable wirebin type ids. These are part of the protocol: both ends of
// a connection run the same table, which is what the preamble's version
// byte stands for. Never renumber or reuse — add (internal/locksvc
// continues the table at 38). 5 and 6 are retired: they were the
// whole-listing List's request and response, which ListParts replaced.
const (
	wbGetReq         = 1
	wbObject         = 2
	wbGetBatchReq    = 3
	wbGetBatchResp   = 4
	wbListPartsReq   = 7
	wbPartListing    = 8
	wbListPartsRsp   = 9
	wbLeaseReq       = 10
	wbLeaseGrant     = 11
	wbWatchReq       = 12
	wbInvalidation   = 13
	wbSyncPartReq    = 14
	wbSyncPartResp   = 15
	wbDigestReq      = 16
	wbDigestResp     = 17
	wbPutReq         = 18
	wbPutResp        = 19
	wbAddReq         = 20
	wbRemoveReq      = 21
	wbRemoveResp     = 22
	wbMutateResp     = 23
	wbPinReq         = 24
	wbPinResp        = 25
	wbUnpinReq       = 26
	wbEmpty          = 27 // struct{}{}, the reply of the calls that return nothing
	wbDeleteReq      = 28
	wbCreateReq      = 29
	wbBeginGrowReq   = 30
	wbBeginGrowResp  = 31
	wbEndGrowReq     = 32
	wbEndGrowResp    = 33
	wbStatsReq       = 34
	wbStatsResp      = 35
	wbStoreStatsReq  = 36
	wbStoreStatsResp = 37
)

func init() {
	wirebin.Register(wbGetReq, appendGetReq, decodeGetReq)
	wirebin.Register(wbObject, appendObject, decodeObject)
	wirebin.Register(wbGetBatchReq, appendGetBatchReq, decodeGetBatchReq)
	wirebin.Register(wbGetBatchResp, appendGetBatchResp, decodeGetBatchResp)
	wirebin.Register(wbListPartsReq, appendListPartsReq, decodeListPartsReq)
	wirebin.Register(wbPartListing, appendPartListing, decodePartListing)
	wirebin.Register(wbListPartsRsp, appendListPartsResp, decodeListPartsResp)
	wirebin.Register(wbLeaseReq, appendLeaseReq, decodeLeaseReq)
	wirebin.Register(wbLeaseGrant, appendLeaseGrant, decodeLeaseGrant)
	wirebin.Register(wbWatchReq,
		func(buf []byte, _ WatchReq) []byte { return buf },
		func(*wirebin.Reader) WatchReq { return WatchReq{} })
	wirebin.Register(wbInvalidation, appendInvalidation, decodeInvalidation)
	wirebin.Register(wbSyncPartReq, appendSyncPartReq, decodeSyncPartReq)
	wirebin.Register(wbSyncPartResp,
		func(buf []byte, v SyncPartResp) []byte { return wirebin.AppendBool(buf, v.Applied) },
		func(r *wirebin.Reader) SyncPartResp { return SyncPartResp{Applied: r.Bool()} })
	wirebin.Register(wbDigestReq,
		func(buf []byte, v DigestReq) []byte { return wirebin.AppendString(buf, v.Name) },
		func(r *wirebin.Reader) DigestReq { return DigestReq{Name: r.String()} })
	wirebin.Register(wbDigestResp, appendDigestResp, decodeDigestResp)
	wirebin.Register(wbPutReq,
		func(buf []byte, v PutReq) []byte { return appendObject(buf, v.Obj) },
		func(r *wirebin.Reader) PutReq { return PutReq{Obj: decodeObject(r)} })
	wirebin.Register(wbPutResp,
		func(buf []byte, v PutResp) []byte { return wirebin.AppendUvarint(buf, v.Version) },
		func(r *wirebin.Reader) PutResp { return PutResp{Version: r.Uvarint()} })
	wirebin.Register(wbAddReq,
		func(buf []byte, v AddReq) []byte {
			return wirebin.AppendString(wirebin.AppendString(wirebin.AppendString(buf, v.Name), string(v.Ref.ID)), string(v.Ref.Node))
		},
		func(r *wirebin.Reader) AddReq {
			return AddReq{Name: r.String(), Ref: Ref{ID: ObjectID(r.String()), Node: netsim.NodeID(r.String())}}
		})
	wirebin.Register(wbRemoveReq,
		func(buf []byte, v RemoveReq) []byte {
			return wirebin.AppendString(wirebin.AppendString(buf, v.Name), string(v.ID))
		},
		func(r *wirebin.Reader) RemoveReq { return RemoveReq{Name: r.String(), ID: ObjectID(r.String())} })
	wirebin.Register(wbRemoveResp,
		func(buf []byte, v RemoveResp) []byte {
			return wirebin.AppendUvarint(wirebin.AppendBool(buf, v.Deferred), v.Version)
		},
		func(r *wirebin.Reader) RemoveResp { return RemoveResp{Deferred: r.Bool(), Version: r.Uvarint()} })
	wirebin.Register(wbMutateResp,
		func(buf []byte, v MutateResp) []byte { return wirebin.AppendUvarint(buf, v.Version) },
		func(r *wirebin.Reader) MutateResp { return MutateResp{Version: r.Uvarint()} })
	wirebin.Register(wbPinReq,
		func(buf []byte, v PinReq) []byte { return wirebin.AppendString(buf, v.Name) },
		func(r *wirebin.Reader) PinReq { return PinReq{Name: r.String()} })
	wirebin.Register(wbPinResp,
		func(buf []byte, v PinResp) []byte {
			return appendVersions(wirebin.AppendVarint(buf, v.Pin), v.Versions)
		},
		func(r *wirebin.Reader) PinResp { return PinResp{Pin: r.Varint(), Versions: decodeVersions(r)} })
	wirebin.Register(wbUnpinReq,
		func(buf []byte, v UnpinReq) []byte {
			return wirebin.AppendVarint(wirebin.AppendString(buf, v.Name), v.Pin)
		},
		func(r *wirebin.Reader) UnpinReq { return UnpinReq{Name: r.String(), Pin: r.Varint()} })
	wirebin.Register(wbEmpty,
		func(buf []byte, _ struct{}) []byte { return buf },
		func(*wirebin.Reader) struct{} { return struct{}{} })
	wirebin.Register(wbDeleteReq,
		func(buf []byte, v DeleteReq) []byte { return wirebin.AppendString(buf, string(v.ID)) },
		func(r *wirebin.Reader) DeleteReq { return DeleteReq{ID: ObjectID(r.String())} })
	wirebin.Register(wbCreateReq,
		func(buf []byte, v CreateReq) []byte { return wirebin.AppendString(buf, v.Name) },
		func(r *wirebin.Reader) CreateReq { return CreateReq{Name: r.String()} })
	wirebin.Register(wbBeginGrowReq,
		func(buf []byte, v BeginGrowReq) []byte { return wirebin.AppendString(buf, v.Name) },
		func(r *wirebin.Reader) BeginGrowReq { return BeginGrowReq{Name: r.String()} })
	wirebin.Register(wbBeginGrowResp,
		func(buf []byte, v BeginGrowResp) []byte { return wirebin.AppendVarint(buf, v.Token) },
		func(r *wirebin.Reader) BeginGrowResp { return BeginGrowResp{Token: r.Varint()} })
	wirebin.Register(wbEndGrowReq,
		func(buf []byte, v EndGrowReq) []byte {
			return wirebin.AppendVarint(wirebin.AppendString(buf, v.Name), v.Token)
		},
		func(r *wirebin.Reader) EndGrowReq { return EndGrowReq{Name: r.String(), Token: r.Varint()} })
	wirebin.Register(wbEndGrowResp,
		func(buf []byte, v EndGrowResp) []byte { return wirebin.AppendVarint(buf, int64(v.Reclaimed)) },
		func(r *wirebin.Reader) EndGrowResp { return EndGrowResp{Reclaimed: int(r.Varint())} })
	wirebin.Register(wbStatsReq,
		func(buf []byte, v StatsReq) []byte { return wirebin.AppendString(buf, v.Name) },
		func(r *wirebin.Reader) StatsReq { return StatsReq{Name: r.String()} })
	wirebin.Register(wbStatsResp, appendStatsResp, decodeStatsResp)
	wirebin.Register(wbStoreStatsReq,
		func(buf []byte, _ StoreStatsReq) []byte { return buf },
		func(*wirebin.Reader) StoreStatsReq { return StoreStatsReq{} })
	wirebin.Register(wbStoreStatsResp,
		func(buf []byte, v StoreStatsResp) []byte { return appendEngineStats(buf, v.Stats) },
		func(r *wirebin.Reader) StoreStatsResp { return StoreStatsResp{Stats: decodeEngineStats(r)} })
}

func appendGetReq(buf []byte, v GetReq) []byte {
	return wirebin.AppendString(buf, string(v.ID))
}

func decodeGetReq(r *wirebin.Reader) GetReq {
	return GetReq{ID: ObjectID(r.String())}
}

// appendMapLen writes the map presence sentinel: 0 for nil, n+1 for a
// non-nil map with n entries. gob transmits empty non-nil maps (unlike
// empty slices), so the codec must tell the two apart on the wire.
func appendMapLen(buf []byte, n int, isNil bool) []byte {
	if isNil {
		return wirebin.AppendUvarint(buf, 0)
	}
	return wirebin.AppendUvarint(buf, uint64(n)+1)
}

func appendObject(buf []byte, o Object) []byte {
	buf = wirebin.AppendString(buf, string(o.ID))
	buf = wirebin.AppendBytes(buf, o.Data)
	buf = wirebin.AppendUvarint(buf, o.Version)
	buf = wirebin.AppendBool(buf, o.Tombstone)
	buf = appendMapLen(buf, len(o.Attrs), o.Attrs == nil)
	for k, v := range o.Attrs {
		buf = wirebin.AppendString(buf, k)
		buf = wirebin.AppendString(buf, v)
	}
	return buf
}

func decodeObject(r *wirebin.Reader) Object {
	var o Object
	decodeObjectInto(r, &o, r.String())
	return o
}

// decodeObjectInto decodes what follows an object's id, which the caller
// has read the way its message wants it: interned where the object is
// kept (a server stores what it decodes), a view into the frame where a
// client receives a batch of them.
func decodeObjectInto(r *wirebin.Reader, o *Object, id string) {
	o.ID = ObjectID(id)
	o.Data = r.Bytes()
	o.Version = r.Uvarint()
	o.Tombstone = r.Bool()
	sentinel := r.Uvarint()
	if sentinel == 0 || r.Err() != nil {
		o.Attrs = nil
		return
	}
	// Each entry costs at least two length prefixes; CheckCount rejects
	// counts the remaining frame could not hold before sizing the map.
	n := r.CheckCount(sentinel-1, 2)
	if r.Err() != nil {
		return
	}
	attrs := make(map[string]string, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		k := r.String()
		attrs[k] = r.String()
	}
	o.Attrs = attrs
}

func appendIDs(buf []byte, ids []ObjectID) []byte {
	buf = wirebin.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		buf = wirebin.AppendString(buf, string(id))
	}
	return buf
}

// decodeIDs decodes a vector of ids, each through str: r.String for the
// ids of an answer (the client's cache keeps the missing ones), r.Text
// for a request's, which the server keeps none of.
func decodeIDs(r *wirebin.Reader, str func() string) []ObjectID {
	n := r.Count(1)
	if n == 0 || r.Err() != nil {
		return nil
	}
	ids := make([]ObjectID, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		ids = append(ids, ObjectID(str()))
	}
	return ids
}

func appendGetBatchReq(buf []byte, v GetBatchReq) []byte {
	buf = appendIDs(buf, v.IDs)
	buf = appendMapLen(buf, len(v.Known), v.Known == nil)
	for id, ver := range v.Known {
		buf = wirebin.AppendString(buf, string(id))
		buf = wirebin.AppendUvarint(buf, ver)
	}
	return buf
}

// decodeGetBatchReq decodes the ids and the Known keys as views into the
// frame: a cold run's ids never repeat, and through String each would be
// a copy and an insert into an intern table they overflow.
func decodeGetBatchReq(r *wirebin.Reader) GetBatchReq {
	var v GetBatchReq
	v.IDs = decodeIDs(r, r.Text)
	sentinel := r.Uvarint()
	if sentinel == 0 || r.Err() != nil {
		return v
	}
	n := r.CheckCount(sentinel-1, 2)
	if r.Err() != nil {
		return v
	}
	known := make(map[ObjectID]uint64, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		id := ObjectID(r.Text())
		known[id] = r.Uvarint()
	}
	v.Known = known
	return v
}

func appendGetBatchResp(buf []byte, v GetBatchResp) []byte {
	buf = wirebin.AppendUvarint(buf, uint64(len(v.Objects)))
	for i := range v.Objects {
		buf = appendObject(buf, v.Objects[i])
	}
	buf = appendIDs(buf, v.NotModified)
	return appendIDs(buf, v.Missing)
}

func decodeGetBatchResp(r *wirebin.Reader) GetBatchResp {
	var v GetBatchResp
	// Each object costs at least 5 bytes on the wire (four length
	// prefixes and a bool); bound the slice by that.
	n := r.Count(5)
	if r.Err() != nil {
		return v
	}
	if n > 0 {
		objs := make([]Object, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			decodeObjectInto(r, &objs[i], r.Text())
		}
		v.Objects = objs
	}
	v.NotModified = decodeIDs(r, r.String)
	v.Missing = decodeIDs(r, r.String)
	return v
}

func appendListPartsReq(buf []byte, v ListPartsReq) []byte {
	buf = wirebin.AppendString(buf, v.Name)
	buf = wirebin.AppendVarint(buf, v.Pin)
	buf = appendVersions(buf, v.IfVersions)
	buf = wirebin.AppendBool(buf, v.Stream)
	buf = wirebin.AppendUvarint(buf, uint64(len(v.Parts)))
	for _, p := range v.Parts {
		buf = wirebin.AppendVarint(buf, int64(p))
	}
	return buf
}

func decodeListPartsReq(r *wirebin.Reader) ListPartsReq {
	var v ListPartsReq
	v.Name = r.String()
	v.Pin = r.Varint()
	v.IfVersions = decodeVersions(r)
	v.Stream = r.Bool()
	if n := r.Count(1); n > 0 && r.Err() == nil {
		parts := make([]int, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			parts = append(parts, int(r.Varint()))
		}
		v.Parts = parts
	}
	return v
}

func appendPartListing(buf []byte, v PartListing) []byte {
	buf = wirebin.AppendVarint(buf, int64(v.Part))
	buf = wirebin.AppendVarint(buf, int64(v.Partitions))
	buf = wirebin.AppendUvarint(buf, uint64(len(v.Members)))
	for _, ref := range v.Members {
		buf = wirebin.AppendString(buf, string(ref.ID))
		buf = wirebin.AppendString(buf, string(ref.Node))
	}
	buf = wirebin.AppendUvarint(buf, v.Version)
	return wirebin.AppendBool(buf, v.Skewed)
}

func decodePartListing(r *wirebin.Reader) PartListing {
	var v PartListing
	decodePartListingInto(r, &v)
	return v
}

func decodePartListingInto(r *wirebin.Reader, v *PartListing) {
	v.Part = int(r.Varint())
	v.Partitions = int(r.Varint())
	n := r.Count(2)
	if r.Err() != nil {
		return
	}
	if n > 0 {
		members := make([]Ref, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			id := ObjectID(r.Text())
			node := netsim.NodeID(r.String())
			members = append(members, Ref{ID: id, Node: node})
		}
		v.Members = members
	}
	v.Version = r.Uvarint()
	v.Skewed = r.Bool()
}

func appendListPartsResp(buf []byte, v ListPartsResp) []byte {
	buf = wirebin.AppendUvarint(buf, uint64(len(v.Parts)))
	for i := range v.Parts {
		buf = appendPartListing(buf, v.Parts[i])
	}
	return buf
}

func decodeListPartsResp(r *wirebin.Reader) ListPartsResp {
	var v ListPartsResp
	// Each partition listing costs at least 5 bytes (two varints, a
	// member count, a version, a bool); bound the slice by that.
	n := r.Count(5)
	if n == 0 || r.Err() != nil {
		return v
	}
	parts := make([]PartListing, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		decodePartListingInto(r, &parts[i])
	}
	v.Parts = parts
	return v
}

func appendLeaseReq(buf []byte, v LeaseReq) []byte {
	buf = wirebin.AppendUvarint(buf, uint64(len(v.Colls)))
	for _, c := range v.Colls {
		buf = wirebin.AppendString(buf, c)
	}
	return buf
}

func decodeLeaseReq(r *wirebin.Reader) LeaseReq {
	var v LeaseReq
	n := r.Count(1)
	if n == 0 || r.Err() != nil {
		return v
	}
	colls := make([]string, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		colls = append(colls, r.String())
	}
	v.Colls = colls
	return v
}

func appendLeaseGrant(buf []byte, v LeaseGrant) []byte {
	buf = wirebin.AppendVarint(buf, int64(v.TTL))
	buf = appendMapLen(buf, len(v.Versions), v.Versions == nil)
	for coll, ver := range v.Versions {
		buf = wirebin.AppendString(buf, coll)
		buf = wirebin.AppendUvarint(buf, ver)
	}
	return buf
}

func decodeLeaseGrant(r *wirebin.Reader) LeaseGrant {
	var v LeaseGrant
	v.TTL = time.Duration(r.Varint())
	sentinel := r.Uvarint()
	if sentinel == 0 || r.Err() != nil {
		return v
	}
	n := r.CheckCount(sentinel-1, 2)
	if r.Err() != nil {
		return v
	}
	versions := make(map[string]uint64, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		coll := r.String()
		versions[coll] = r.Uvarint()
	}
	v.Versions = versions
	return v
}

// Invalidation is the push hot path: one frame per listing change on a
// leased collection, so the encode must not allocate and the decode must
// intern the collection name (the same few collections repeat for the
// life of a watch stream).
func appendInvalidation(buf []byte, v Invalidation) []byte {
	buf = wirebin.AppendString(buf, v.Coll)
	buf = wirebin.AppendVarint(buf, int64(v.Part))
	return wirebin.AppendUvarint(buf, v.Version)
}

func decodeInvalidation(r *wirebin.Reader) Invalidation {
	return Invalidation{
		Coll:    r.String(),
		Part:    int(r.Varint()),
		Version: r.Uvarint(),
	}
}

func appendSyncPartReq(buf []byte, v SyncPartReq) []byte {
	buf = wirebin.AppendString(buf, v.Name)
	buf = wirebin.AppendVarint(buf, int64(v.Partitions))
	buf = wirebin.AppendVarint(buf, int64(v.Part))
	buf = wirebin.AppendUvarint(buf, uint64(len(v.Members)))
	for _, ref := range v.Members {
		buf = wirebin.AppendString(buf, string(ref.ID))
		buf = wirebin.AppendString(buf, string(ref.Node))
	}
	buf = wirebin.AppendUvarint(buf, v.Version)
	buf = wirebin.AppendUvarint(buf, uint64(len(v.Objects)))
	for i := range v.Objects {
		buf = appendObject(buf, v.Objects[i])
	}
	return buf
}

func decodeSyncPartReq(r *wirebin.Reader) SyncPartReq {
	var v SyncPartReq
	v.Name = r.String()
	v.Partitions = int(r.Varint())
	v.Part = int(r.Varint())
	n := r.Count(2)
	if r.Err() != nil {
		return v
	}
	if n > 0 {
		members := make([]Ref, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			id := ObjectID(r.String())
			node := netsim.NodeID(r.String())
			members = append(members, Ref{ID: id, Node: node})
		}
		v.Members = members
	}
	v.Version = r.Uvarint()
	n = r.Count(5)
	if r.Err() != nil {
		return v
	}
	if n > 0 {
		objs := make([]Object, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			decodeObjectInto(r, &objs[i], r.String())
		}
		v.Objects = objs
	}
	return v
}

func appendDigestResp(buf []byte, v DigestResp) []byte {
	buf = wirebin.AppendVarint(buf, int64(v.Partitions))
	buf = appendVersions(buf, v.Versions)
	return wirebin.AppendVarint(buf, v.AgeMs)
}

func decodeDigestResp(r *wirebin.Reader) DigestResp {
	var v DigestResp
	v.Partitions = int(r.Varint())
	v.Versions = decodeVersions(r)
	v.AgeMs = r.Varint()
	return v
}

// appendVersions writes a per-partition version vector: a gate, a
// digest's or a pin's.
func appendVersions(buf []byte, vers []uint64) []byte {
	buf = wirebin.AppendUvarint(buf, uint64(len(vers)))
	for _, ver := range vers {
		buf = wirebin.AppendUvarint(buf, ver)
	}
	return buf
}

func decodeVersions(r *wirebin.Reader) []uint64 {
	n := r.Count(1)
	if n == 0 || r.Err() != nil {
		return nil
	}
	vers := make([]uint64, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		vers = append(vers, r.Uvarint())
	}
	return vers
}

func appendStatsResp(buf []byte, v StatsResp) []byte {
	for _, n := range [...]int{v.Members, v.Ghosts, v.Pins, v.Tokens} {
		buf = wirebin.AppendVarint(buf, int64(n))
	}
	buf = wirebin.AppendUvarint(buf, v.Version)
	return wirebin.AppendVarint(buf, int64(v.Partitions))
}

func decodeStatsResp(r *wirebin.Reader) StatsResp {
	return StatsResp{
		Members:    int(r.Varint()),
		Ghosts:     int(r.Varint()),
		Pins:       int(r.Varint()),
		Tokens:     int(r.Varint()),
		Version:    r.Uvarint(),
		Partitions: int(r.Varint()),
	}
}

func appendEngineStats(buf []byte, v store.EngineStats) []byte {
	buf = wirebin.AppendString(buf, v.Engine)
	b := v.Batch
	for _, n := range [...]int64{
		int64(v.Shards), int64(v.Objects), int64(v.Collections),
		b.Batches, b.BatchedGets, b.MaxBatch, b.RTTSaved, b.NotModified, b.BytesShipped, b.BytesSaved,
	} {
		buf = wirebin.AppendVarint(buf, n)
	}
	buf = wirebin.AppendUvarint(buf, uint64(len(v.Ops)))
	for _, op := range v.Ops {
		buf = wirebin.AppendString(buf, op.Op)
		for _, n := range [...]int64{op.Count, op.Errors, int64(op.Mean), int64(op.P50), int64(op.P99)} {
			buf = wirebin.AppendVarint(buf, n)
		}
	}
	return buf
}

func decodeEngineStats(r *wirebin.Reader) store.EngineStats {
	v := store.EngineStats{
		Engine:      r.String(),
		Shards:      int(r.Varint()),
		Objects:     int(r.Varint()),
		Collections: int(r.Varint()),
		Batch: store.BatchStats{
			Batches:      r.Varint(),
			BatchedGets:  r.Varint(),
			MaxBatch:     r.Varint(),
			RTTSaved:     r.Varint(),
			NotModified:  r.Varint(),
			BytesShipped: r.Varint(),
			BytesSaved:   r.Varint(),
		},
	}
	// Each operation costs at least 6 bytes (a name prefix and five
	// varints); bound the slice by that.
	n := r.Count(6)
	if n == 0 || r.Err() != nil {
		return v
	}
	ops := make([]store.OpStats, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		ops[i] = store.OpStats{
			Op:     r.String(),
			Count:  r.Varint(),
			Errors: r.Varint(),
			Mean:   time.Duration(r.Varint()),
			P50:    time.Duration(r.Varint()),
			P99:    time.Duration(r.Varint()),
		}
	}
	v.Ops = ops
	return v
}
