package repo

import (
	"time"

	"weaksets/internal/store"
)

// This file is the repository's wire surface: the RPC method names and
// the request/response structs copied at every RPC boundary (membership
// has one read, ListParts, gated per partition). The structs are
// codec-agnostic; wirebin.go registers the binary marshaler each one
// crosses the TCP transport with (DESIGN.md §11).

// RPC method names served by every repository server.
const (
	MethodGet        = "repo.Get"
	MethodGetBatch   = "repo.GetBatch"
	MethodPut        = "repo.Put"
	MethodDelete     = "repo.Delete"
	MethodCreate     = "repo.CreateCollection"
	MethodListParts  = "repo.ListParts"
	MethodAdd        = "repo.Add"
	MethodRemove     = "repo.Remove"
	MethodPin        = "repo.Pin"
	MethodUnpin      = "repo.Unpin"
	MethodBeginGrow  = "repo.BeginGrow"
	MethodEndGrow    = "repo.EndGrow"
	MethodStats      = "repo.CollStats"
	MethodStoreStats = "repo.StoreStats"
	MethodSyncPart   = "repo.SyncPart"
	MethodSyncDigest = "repo.SyncDigest"
	MethodLease      = "repo.Lease"
	MethodWatch      = "repo.Watch"
)

// Wire types. Every request and response is a value type copied at the RPC
// boundary.
type (
	// GetReq fetches an object by ID.
	GetReq struct{ ID ObjectID }
	// GetBatchReq fetches several objects from one node in a single round
	// trip. Known optionally maps ids to versions the caller already
	// holds: the server ships full objects only for ids whose stored
	// version differs, answering the rest with a compact NotModified
	// list — the batch analogue of ListPartsReq.IfVersions.
	GetBatchReq struct {
		IDs   []ObjectID
		Known map[ObjectID]uint64
	}
	// GetBatchResp carries the found objects in request order; ids with no
	// stored object come back in Missing rather than failing the batch,
	// and ids whose Known version still matches come back in NotModified
	// with no payload.
	GetBatchResp struct {
		Objects     []Object
		NotModified []ObjectID
		Missing     []ObjectID
	}
	// PutReq stores (or overwrites) an object.
	PutReq struct{ Obj Object }
	// PutResp reports the stored version.
	PutResp struct{ Version uint64 }
	// DeleteReq removes an object's data.
	DeleteReq struct{ ID ObjectID }
	// CreateReq creates an empty collection.
	CreateReq struct{ Name string }
	// ListPartsReq reads a collection's membership a listing partition
	// at a time: the one membership read, snapshot or current-state.
	// IfVersions gates it: a version vector indexed by partition, where a
	// partition still at or below its gate is left out, so a read finding
	// nothing moved ships no frame; a vector whose length is not the
	// partition count gates nothing, which is how a client holding
	// another layout, or none, learns the current one. Pin selects a
	// pinned snapshot, read in the collection's layout like the live one:
	// each frame carries its partition's version at the pin, and
	// IfVersions gates against those. Stream asks the server to deliver each PartListing
	// as its own chunk as that partition's snapshot is taken, which is
	// what repo.Client always asks for; without it the handler answers
	// one materialized ListPartsResp.
	ListPartsReq struct {
		Name       string
		Pin        int64
		IfVersions []uint64
		Stream     bool
		// Parts optionally restricts the read to a subset of partition
		// indices (empty means all) — how a replica-scattered read asks
		// each replica for only the partitions assigned to it.
		Parts []int
	}
	// PartListing is one listing partition: self-contained, so a client
	// can start fetching this partition's elements while later ones are
	// still in flight. Partitions is the collection's total partition
	// count, stamped on every frame so each is interpretable alone (and
	// so a client gating with a stale vector length notices). Version is
	// the partition's, the gate a later read sends for it. Skewed
	// marks a partition whose snapshot was taken after a write landed
	// mid-stream — earlier partitions in the same response may not
	// reflect that write. That is legal under every weak semantics here
	// (the paper's membership skew, now per partition); the flag exists
	// so clients can measure it.
	PartListing struct {
		Part       int
		Partitions int
		Members    []Ref
		Version    uint64
		Skewed     bool
	}
	// ListPartsResp is the materialized (non-streamed) form: every
	// partition's listing in partition order.
	ListPartsResp struct {
		Parts []PartListing
	}
	// AddReq inserts a member.
	AddReq struct {
		Name string
		Ref  Ref
	}
	// RemoveReq removes a member.
	RemoveReq struct {
		Name string
		ID   ObjectID
	}
	// RemoveResp reports whether the removal was deferred by an active grow
	// token; when Deferred is true the server owns eventual deletion of the
	// object data.
	RemoveResp struct {
		Deferred bool
		Version  uint64
	}
	// MutateResp reports the new collection version.
	MutateResp struct{ Version uint64 }
	// PinReq snapshots a collection's membership.
	PinReq struct{ Name string }
	// PinResp returns the snapshot handle and the version of each listing
	// partition at the pin — the pin's vector, which a ListParts of the pin
	// stamps on its frames. A client holding a partition at its pinned
	// version holds what the pin holds there, so it need read only the
	// partitions whose version it does not hold.
	PinResp struct {
		Pin      int64
		Versions []uint64
	}
	// UnpinReq releases a snapshot.
	UnpinReq struct {
		Name string
		Pin  int64
	}
	// BeginGrowReq starts a grow-only window on the collection.
	BeginGrowReq struct{ Name string }
	// BeginGrowResp returns the token ending the window.
	BeginGrowResp struct{ Token int64 }
	// EndGrowReq closes a grow-only window.
	EndGrowReq struct {
		Name  string
		Token int64
	}
	// EndGrowResp reports how many ghost objects were reclaimed when the
	// last token drained.
	EndGrowResp struct{ Reclaimed int }
	// StatsReq asks for collection counters.
	StatsReq struct{ Name string }
	// StatsResp reports collection counters for experiments (ghost
	// accounting, E8).
	StatsResp struct {
		Members    int
		Ghosts     int
		Pins       int
		Tokens     int
		Version    uint64
		Partitions int
	}
	// StoreStatsReq asks a node for its storage-engine instrumentation.
	StoreStatsReq struct{}
	// StoreStatsResp carries the engine's per-operation counters and
	// latency quantiles.
	StoreStatsResp struct{ Stats store.EngineStats }
	// SyncPartReq is the replication push: one partition's listed
	// membership at a version, out of Partitions total. It carries the
	// sender's partition count, which a replica holding the collection in
	// another layout adopts rather than misapplying the push.
	SyncPartReq struct {
		Name       string
		Partitions int
		Part       int
		Members    []Ref
		Version    uint64
		// Objects carries the data of the pushed members that live on the
		// home node itself, so replicas can answer GetBatch for them and a
		// scattered read never has to detour back to the home for its own
		// objects. Members homed elsewhere replicate by reference only.
		Objects []Object
	}
	// SyncPartResp reports whether the push was applied; Applied=false
	// means the replica already held the partition at or above the
	// pushed version, or the push named a partition out of range.
	SyncPartResp struct {
		Applied bool
	}
	// DigestReq asks a replica for its anti-entropy digest of one
	// collection.
	DigestReq struct {
		Name string
	}
	// DigestResp is the replica's view: its per-partition version vector
	// and how long ago the home last confirmed it (AgeMs, -1 when it has
	// never been synced) — the staleness bound a scattered read reports
	// as GhostAge instead of hiding.
	DigestResp struct {
		Partitions int
		Versions   []uint64
		AgeMs      int64
	}
	// LeaseReq asks the server to grant (or renew) listing-version
	// leases on the named collections. A lease is a promise to push an
	// Invalidation down the holder's Watch stream whenever a leased
	// collection's listing moves, for the grant's TTL — renewed
	// implicitly by any call the holder makes.
	LeaseReq struct {
		Colls []string
	}
	// LeaseGrant answers a LeaseReq: the server's lease TTL and, for
	// every collection it agreed to lease, the listing version current
	// at (or after) the moment the lease was registered. Unknown
	// collections are simply absent from Versions.
	LeaseGrant struct {
		TTL      time.Duration
		Versions map[string]uint64
	}
	// WatchReq opens the holder's invalidation stream. The response is a
	// stream of Invalidation frames that stays open until the connection
	// drops, the server closes, or the caller abandons it; a peer or
	// transport that cannot stream gets an error and must run leaseless.
	WatchReq struct{}
	// Invalidation is one pushed listing change on a leased collection:
	// the partition that moved (store.PartAll, shipped as -1, when
	// several did) and the listing version after the change. Versions on
	// one collection are monotonic per partition but frames may arrive
	// coalesced — only the latest version per collection/partition is
	// guaranteed to be delivered.
	Invalidation struct {
		Coll    string
		Part    int
		Version uint64
	}
)

// MergeParts merges partition listings, each ascending by id as the
// store ships them, into one listing ascending by id: a P-way merge over
// the partitions' heads. Partitions are disjoint, so nothing is dropped.
func MergeParts(parts [][]Ref) []Ref {
	heads, n := make([][]Ref, 0, len(parts)), 0
	for _, p := range parts {
		if len(p) > 0 {
			heads, n = append(heads, p), n+len(p)
		}
	}
	// heads is a min-heap on each partition's first id.
	down := func(h int) {
		for c := 2*h + 1; c < len(heads); h, c = c, 2*c+1 {
			if c+1 < len(heads) && heads[c+1][0].ID < heads[c][0].ID {
				c++
			}
			if heads[h][0].ID <= heads[c][0].ID {
				return
			}
			heads[h], heads[c] = heads[c], heads[h]
		}
	}
	for h := len(heads)/2 - 1; h >= 0; h-- {
		down(h)
	}
	out := make([]Ref, 0, n)
	for len(heads) > 0 {
		out = append(out, heads[0][0])
		if heads[0] = heads[0][1:]; len(heads[0]) == 0 {
			heads[0], heads = heads[len(heads)-1], heads[:len(heads)-1]
		}
		down(0)
	}
	return out
}
