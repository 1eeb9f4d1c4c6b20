// Package store implements the storage engine behind a repository node:
// the object table plus the collection bookkeeping — membership, pinned
// snapshots, grow tokens, ghost ("deferred delete") copies, and
// replication state — that internal/repo serves over RPC. The engine is
// behind the Store interface so the RPC layer stays a thin adapter and
// alternative engines can be swapped in.
//
// Two engines ship:
//
//   - Locked — the original single-mutex engine, kept as the contention
//     baseline every benchmark compares against;
//   - Sharded — the default engine: objects hash-partitioned across
//     independently RW-locked shards, and each collection's listing
//     published as an immutable copy-on-write snapshot behind an
//     atomic.Pointer, so List and Get — the path every `elements`
//     iterator hammers — are lock-free or read-locked and never contend
//     with writers on other shards.
//
// The immutable listing snapshot is the engine-level cousin of the
// paper's Fig. 4 semantics ("membership at the first invocation"):
// readers observe one consistent membership image while writers race
// ahead, exactly the separation of observed snapshot from concurrent
// mutation that visibility-based weak-consistency arguments rest on.
//
// Engines are instrumented with per-operation counters and latency
// reservoirs (internal/metrics) surfaced through Stats, the repo.Server
// StoreStats RPC, the httpgw /stats endpoint, and cmd/weakbench -store.
package store

import (
	"errors"

	"weaksets/internal/netsim"
)

// ObjectID names an object uniquely across the whole repository.
type ObjectID string

// Ref locates an object: its ID plus the node that stores it.
type Ref struct {
	ID   ObjectID
	Node netsim.NodeID
}

// Object is a stored value. Attrs carry queryable metadata (e.g.
// cuisine=chinese for the restaurant scenario).
type Object struct {
	ID      ObjectID
	Data    []byte
	Attrs   map[string]string
	Version uint64
	// Tombstone marks an object that was deleted but whose identity is
	// still visible through a pinned snapshot.
	Tombstone bool
}

// Clone returns a deep copy of the object so callers can't alias engine
// state.
func (o Object) Clone() Object {
	c := o
	if o.Data != nil {
		c.Data = append([]byte(nil), o.Data...)
	}
	if o.Attrs != nil {
		c.Attrs = make(map[string]string, len(o.Attrs))
		for k, v := range o.Attrs {
			c.Attrs[k] = v
		}
	}
	return c
}

// Errors reported by storage engines. They are application-level: they
// travel back over a successful RPC and do not satisfy netsim.IsFailure.
// (The messages keep the historical "repo:" prefix; internal/repo
// re-exports these values.)
var (
	// ErrNotFound reports a missing object.
	ErrNotFound = errors.New("repo: object not found")
	// ErrNoCollection reports an unknown collection name.
	ErrNoCollection = errors.New("repo: no such collection")
	// ErrCollectionExists reports a duplicate CreateCollection.
	ErrCollectionExists = errors.New("repo: collection already exists")
	// ErrBadPin reports an unknown pin handle.
	ErrBadPin = errors.New("repo: no such pin")
	// ErrBadToken reports an unknown grow token.
	ErrBadToken = errors.New("repo: no such grow token")
	// ErrBadPartition reports a listing partition index out of range.
	ErrBadPartition = errors.New("repo: no such listing partition")
)

// CollStats reports one collection's counters.
type CollStats struct {
	Members    int
	Ghosts     int
	Pins       int
	Tokens     int
	Version    uint64
	Partitions int
}
