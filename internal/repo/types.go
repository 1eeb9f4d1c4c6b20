// Package repo implements the distributed object repository over which weak
// sets are defined: "a file system is a special kind of persistent object
// repository where files are objects and directories are collections"
// (§1.2). Objects live on individual nodes; a collection is itself an
// object, held on one node (optionally replicated), whose members may
// reside on entirely different nodes — which is exactly the situation in
// which an accessible collection can contain inaccessible members (§2.1,
// Fig. 2).
//
// The repository also provides the mechanisms the paper says the stronger
// semantics need:
//
//   - pins: atomic membership snapshots for the Fig. 4 "loss of mutations"
//     semantics;
//   - grow tokens: deletion deferral with "ghost" copies garbage-collected
//     on iterator termination, for the Fig. 5 grow-only semantics (§3.3);
//   - lazy replication of collections, so reads can observe stale
//     membership ("cached data may be stale", §3).
package repo

import (
	"weaksets/internal/store"
)

// The repository's data model lives in internal/store (the storage
// engine); these aliases keep repo.Ref and friends working everywhere.

// ObjectID names an object uniquely across the whole repository.
type ObjectID = store.ObjectID

// Ref locates an object: its ID plus the node that stores it.
type Ref = store.Ref

// Object is a stored value. Attrs carry queryable metadata (e.g.
// cuisine=chinese for the restaurant scenario).
type Object = store.Object

// Errors reported by repository servers, re-exported from the storage
// engine. They are application-level: they travel back over a successful
// RPC and do not satisfy netsim.IsFailure.
var (
	// ErrNotFound reports a missing object.
	ErrNotFound = store.ErrNotFound
	// ErrNoCollection reports an unknown collection name.
	ErrNoCollection = store.ErrNoCollection
	// ErrCollectionExists reports a duplicate CreateCollection.
	ErrCollectionExists = store.ErrCollectionExists
	// ErrBadPin reports an unknown pin handle.
	ErrBadPin = store.ErrBadPin
	// ErrBadToken reports an unknown grow token.
	ErrBadToken = store.ErrBadToken
)

// The RPC method names and wire structs live in wire.go; their compact
// wirebin marshalers (the hot-path codec, DESIGN.md §11) live
// in wirebin.go.
