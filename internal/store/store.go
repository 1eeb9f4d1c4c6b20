package store

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"weaksets/internal/metrics"
)

// Store is the storage engine behind one repository node. All methods
// are safe for concurrent use. Engines own the full pin/ghost/grow-token
// bookkeeping; the RPC layer (internal/repo) is a thin adapter that owns
// only the network side (replication pushes, remote deletes).
type Store interface {
	// Objects.

	// GetObject returns a deep copy of the object, or ErrNotFound.
	GetObject(id ObjectID) (Object, error)
	// GetBatch returns the requested objects in one trip, in request
	// order: the stored objects themselves, read-only. An engine never
	// writes one in place (a put or install replaces the entry with a
	// fresh copy), so a later write leaves what a batch handed out
	// unchanged. IDs with no stored object come back in missing
	// instead of failing the batch. known optionally maps ids to versions
	// the caller already holds: an id whose stored version equals its
	// known version is reported in notModified instead of shipping the
	// payload again. The version compare is sound because object versions
	// are monotonic per id, even across delete/re-put (see version
	// floors in the engines).
	GetBatch(ids []ObjectID, known map[ObjectID]uint64) (objs []Object, notModified []ObjectID, missing []ObjectID)
	// PutObject stores (or overwrites) an object, bumping its version,
	// and reports the stored version.
	PutObject(obj Object) (version uint64, err error)
	// DeleteObject removes an object's data, or reports ErrNotFound.
	DeleteObject(id ObjectID) error
	// ObjectCount reports the number of objects stored (test hook).
	ObjectCount() int

	// Collections.

	// CreateCollection creates an empty collection.
	CreateCollection(name string) error
	// List reads the collection's current listing — live members plus
	// ghosts held by open grow windows — sorted by ID.
	List(name string) (members []Ref, version uint64, err error)
	// ListVersion reports the current listing version without copying
	// the listing — the fast path behind version-gated membership reads.
	// Engines must bump the version on every change to the listing,
	// including ghost garbage collection.
	ListVersion(name string) (version uint64, err error)
	// ListPinned reads a pinned snapshot in the collection's layout: each
	// partition's live members at the pin, sorted by ID, and the
	// partition's version when the pin was taken. Both are the pin itself,
	// shared with the engine and every other reader of it, and read-only: a
	// caller that wants to modify them copies first.
	ListPinned(name string, pin int64) (parts [][]Ref, vers []uint64, err error)
	// Partitions reports the collection's listing partition count.
	// Partition indices are stable for the life of the collection
	// (membership is by hash of the object ID), so a partition-addressed
	// read plan survives across calls.
	Partitions(name string) (int, error)
	// ListPart reads one partition of the listing — that partition's
	// live members plus ghosts, sorted by ID — with the partition's own
	// version. Partition versions are drawn from the same counter as the
	// collection version, so they are mutually comparable. A non-zero
	// ifVersion at or above the partition's version answers
	// notModified=true with no members: the gate of a version-gated
	// ListParts.
	ListPart(name string, part int, ifVersion uint64) (members []Ref, version uint64, notModified bool, err error)
	// Add inserts a member, reviving any ghost with the same ID.
	Add(name string, ref Ref) (version uint64, err error)
	// Remove removes a member. With a grow window open the removal is
	// deferred: a ghost keeps the member listed and deferred is true,
	// meaning the engine owns eventual deletion of the object data.
	Remove(name string, id ObjectID) (ref Ref, deferred bool, version uint64, err error)
	// Pin snapshots the live membership, partition by partition, and
	// returns its handle and the partitions' versions at the pin (the
	// pin's own vector, read-only). A partition's live membership moves
	// only with its version, so a reader holding a partition at its pinned
	// version holds what the pin holds there.
	Pin(name string) (pin int64, vers []uint64, err error)
	// Unpin releases a snapshot.
	Unpin(name string, pin int64) error
	// BeginGrow opens a grow-only window and returns its token.
	BeginGrow(name string) (token int64, err error)
	// EndGrow closes a grow-only window. When the last token drains it
	// garbage-collects the ghosts (§3.3) and returns the refs whose
	// object data should now be deleted.
	EndGrow(name string, token int64) (reclaim []Ref, err error)
	// CollStats reports one collection's counters.
	CollStats(name string) (CollStats, error)

	// Replication (the push itself, and the replica set, are the
	// adapter's).

	// PartVersions reads the per-partition version vector — what an
	// anti-entropy digest ships so the home can push only the partitions
	// a replica is actually behind on.
	PartVersions(name string) ([]uint64, error)
	// ApplySyncPart applies a per-partition replication push: partition
	// part's listed membership at the given version, out of `partitions`
	// total. The collection is created if needed, laid out in the
	// sender's partition count; a collection laid out differently starts
	// over empty in the sender's layout, so the home's pushes of every
	// partition rebuild it. A push at or below the partition's version is
	// stale and declined (applied=false) — which is what makes replicas
	// observably lag — as is a partition index or count out of range.
	ApplySyncPart(name string, partitions, part int, members []Ref, version uint64) (applied bool)

	// InstallObject installs a replicated object at the version it
	// carries — the replication counterpart of PutObject, which assigns
	// versions. It applies only when the carried version is newer than
	// both the stored copy and the id's delete floor, keeping per-id
	// versions monotonic on replicas exactly as they are on the home.
	InstallObject(obj Object) (applied bool)

	// Change notification.

	// OnListingChange registers fn to run after every committed listing
	// change — Add, Remove, ghost GC at grow-window close, or an applied
	// replication push — with the collection, the partition that moved
	// (PartAll when several did), and the resulting listing version.
	// Callbacks run outside the engine's locks, on the mutating
	// goroutine, so they must be fast and must not call back into the
	// engine synchronously. Registration is permanent (engines live as
	// long as their server); events for different mutations may arrive
	// out of version order, so consumers must fold by max version.
	OnListingChange(fn func(ChangeEvent))

	// Stats reports the engine's instrumentation snapshot.
	Stats() EngineStats
}

// PartAll marks a ChangeEvent that moved more than one partition (ghost
// GC) — consumers should treat the whole listing as changed.
const PartAll = -1

// ChangeEvent is one committed listing change, as delivered to
// OnListingChange subscribers: the collection, the partition index that
// moved (PartAll for whole-listing changes), and the collection listing
// version after the change.
type ChangeEvent struct {
	Coll    string
	Part    int
	Version uint64
}

// notifier fans ChangeEvents out to registered subscribers. Engines
// embed one; the zero value is ready to use. fire is called after the
// engine's locks are released so subscribers can't deadlock a mutation,
// at the price of events possibly arriving out of version order.
type notifier struct {
	mu   sync.RWMutex
	subs []func(ChangeEvent)
}

func (n *notifier) subscribe(fn func(ChangeEvent)) {
	if fn == nil {
		return
	}
	n.mu.Lock()
	n.subs = append(n.subs, fn)
	n.mu.Unlock()
}

func (n *notifier) fire(ev ChangeEvent) {
	n.mu.RLock()
	subs := n.subs
	n.mu.RUnlock()
	for _, fn := range subs {
		fn(ev)
	}
}

// Op identifies one instrumented engine operation.
type Op int

// The instrumented operations, in wire/report order.
const (
	OpGet Op = iota
	OpGetBatch
	OpPut
	OpDelete
	OpList
	OpListPart
	OpListPinned
	OpAdd
	OpRemove
	OpPin
	OpUnpin
	OpBeginGrow
	OpEndGrow
	OpSyncPart
	OpInstall
	opCount
)

var opNames = [opCount]string{
	"get", "getBatch", "put", "delete", "list", "listPart", "listPinned",
	"add", "remove", "pin", "unpin", "beginGrow", "endGrow", "syncPart",
	"install",
}

func (o Op) String() string {
	if o < 0 || o >= opCount {
		return "unknown"
	}
	return opNames[o]
}

// OpStats is one operation's counters and latency summary.
type OpStats struct {
	Op     string        `json:"op"`
	Count  int64         `json:"count"`
	Errors int64         `json:"errors"`
	Mean   time.Duration `json:"mean_ns"`
	P50    time.Duration `json:"p50_ns"`
	P99    time.Duration `json:"p99_ns"`
}

// BatchStats summarises GetBatch traffic. RTTSaved is the round trips a
// client avoided by batching: each batch of n ids costs one trip where
// per-object fetching would have cost n. NotModified counts ids answered
// by version validation alone; BytesShipped/BytesSaved split the payload
// bytes that crossed the wire from those validation kept at home.
type BatchStats struct {
	Batches      int64 `json:"batches"`
	BatchedGets  int64 `json:"batched_gets"`
	MaxBatch     int64 `json:"max_batch"`
	RTTSaved     int64 `json:"rtt_saved"`
	NotModified  int64 `json:"not_modified"`
	BytesShipped int64 `json:"bytes_shipped"`
	BytesSaved   int64 `json:"bytes_saved"`
}

// EngineStats is an engine's instrumentation snapshot.
type EngineStats struct {
	Engine      string     `json:"engine"`
	Shards      int        `json:"shards"`
	Objects     int        `json:"objects"`
	Collections int        `json:"collections"`
	Batch       BatchStats `json:"batch"`
	Ops         []OpStats  `json:"ops"`
}

// latStripes spreads each operation's latency reservoir over several
// histograms so recording on the hot read path doesn't serialise behind
// one histogram mutex; Stats merges the stripes.
const latStripes = 8

type opRec struct {
	count atomic.Int64
	errs  atomic.Int64
	lat   [latStripes]metrics.Histogram
}

// instruments is the shared per-operation counter/latency block engines
// embed. The zero value is ready to use.
type instruments struct {
	ops [opCount]opRec

	batches      atomic.Int64
	batchedGets  atomic.Int64
	maxBatch     atomic.Int64
	notModified  atomic.Int64
	bytesShipped atomic.Int64
	bytesSaved   atomic.Int64
}

// observeBatch records one GetBatch call of n ids, of which notMod were
// answered by version validation; shipped/saved are the payload bytes
// that went over the wire vs. stayed home.
func (in *instruments) observeBatch(n, notMod int, shipped, saved int64) {
	in.batches.Add(1)
	in.batchedGets.Add(int64(n))
	in.notModified.Add(int64(notMod))
	in.bytesShipped.Add(shipped)
	in.bytesSaved.Add(saved)
	for {
		cur := in.maxBatch.Load()
		if int64(n) <= cur || in.maxBatch.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// getBatch is both engines' GetBatch: one pass in request order, get
// looking an id up (h is its hashID) under the engine's locking. It hands
// out the stored objects themselves, which are never written in place.
func getBatch(in *instruments, ids []ObjectID, known map[ObjectID]uint64, get func(id ObjectID, h uint32) (Object, bool)) (objs []Object, notModified []ObjectID, missing []ObjectID) {
	var shipped, saved int64
	var seen [8]uint64 // a 512-bit filter over the ids' hashes (the top nine bits)
	// A request strictly ascending by id, as every client batch is, holds
	// no duplicate, so only another is filtered: at hundreds of ids the
	// filter's false hits would each scan the request.
	dups := false
	for i := 1; i < len(ids) && !dups; i++ {
		dups = ids[i] <= ids[i-1]
	}
	objs = make([]Object, 0, len(ids))
	for i, id := range ids {
		h := hashID(id)
		w, m := h>>29, uint64(1)<<(h>>23&63)
		if dups && seen[w]&m != 0 && slices.Contains(ids[:i], id) {
			continue // duplicate ids in the request resolve once
		}
		seen[w] |= m
		obj, ok := get(id, h)
		v, has := known[id]
		switch {
		case !ok:
			missing = append(missing, id)
		case has && v == obj.Version:
			notModified = append(notModified, id)
			saved += int64(len(obj.Data))
		default:
			objs = append(objs, obj)
			shipped += int64(len(obj.Data))
		}
	}
	in.observeBatch(len(ids), len(notModified), shipped, saved)
	return objs, notModified, missing
}

// hashID is the FNV-1a hash of an id, the one hash every placement
// reads: its low bits pick a Sharded shard, and PartOf takes it modulo a
// partition count.
func hashID(id ObjectID) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return h
}

// PartOf is the partition id belongs to among partitions — its hash
// modulo the count, 0 for one partition or fewer: the layout every
// collection is listed in, which clients read to find an id's partition
// without a listing, and which places a collection's replicas.
func PartOf(id ObjectID, partitions int) int {
	if partitions <= 1 {
		return 0
	}
	return int(hashID(id) % uint32(partitions))
}

// batchStats snapshots the batch counters.
func (in *instruments) batchStats() BatchStats {
	b := BatchStats{
		Batches:      in.batches.Load(),
		BatchedGets:  in.batchedGets.Load(),
		MaxBatch:     in.maxBatch.Load(),
		NotModified:  in.notModified.Load(),
		BytesShipped: in.bytesShipped.Load(),
		BytesSaved:   in.bytesSaved.Load(),
	}
	b.RTTSaved = b.BatchedGets - b.Batches
	if b.RTTSaved < 0 {
		b.RTTSaved = 0
	}
	return b
}

// observe records one completed operation. It is designed to be called
// as `defer s.ins.observe(op, time.Now(), &err)` with a named error
// return, so the deferred call sees the final error.
func (in *instruments) observe(op Op, start time.Time, errp *error) {
	rec := &in.ops[op]
	n := rec.count.Add(1)
	if errp != nil && *errp != nil {
		rec.errs.Add(1)
	}
	rec.lat[n&(latStripes-1)].Record(time.Since(start))
}

// opStats merges the stripes into one summary per operation that has
// run at least once.
func (in *instruments) opStats() []OpStats {
	out := make([]OpStats, 0, opCount)
	for op := Op(0); op < opCount; op++ {
		rec := &in.ops[op]
		n := rec.count.Load()
		if n == 0 {
			continue
		}
		var (
			samples []time.Duration
			sum     time.Duration
		)
		for i := range rec.lat {
			// One consistent snapshot per stripe (single lock acquisition)
			// instead of separate Samples()+Sum() reads that writers could
			// interleave between.
			snap := rec.lat[i].Snapshot()
			samples = append(samples, snap.Samples()...)
			sum += snap.Sum
		}
		st := OpStats{
			Op:     op.String(),
			Count:  n,
			Errors: rec.errs.Load(),
			Mean:   sum / time.Duration(n),
			P50:    metrics.QuantileOf(samples, 0.5),
			P99:    metrics.QuantileOf(samples, 0.99),
		}
		out = append(out, st)
	}
	return out
}
