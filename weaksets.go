// Package weaksets is the public face of the weak-sets library: set
// abstractions for wide-area distributed systems whose membership is
// observed through an iterator, at every consistency point of Wing &
// Steere's "Specifying Weak Sets" (ICDCS 1995) design space — from fully
// immutable pessimistic sets down to the optimistic dynamic sets the paper
// implements.
//
// The package re-exports the library's stable surface so applications
// depend on a single import path:
//
//	import "weaksets"
//
//	set, err := weaksets.NewSet(client, dir, "menus", weaksets.Options{
//	    Semantics: weaksets.Optimistic,
//	})
//	it, err := set.Elements(ctx)
//	for it.Next(ctx) {
//	    e := it.Element()
//	    ...
//	}
//	err = it.Err() // nil = `returns`, ErrFailure = the paper's `fails`
//
// The substrate (simulated network, repository, lock service) lives under
// internal/; NewCluster builds a ready-to-use simulated deployment for
// applications and tests.
package weaksets

import (
	"context"

	"weaksets/internal/cluster"
	"weaksets/internal/core"
	"weaksets/internal/netsim"
	"weaksets/internal/query"
	"weaksets/internal/repo"
)

// Core weak-set types.
type (
	// Set is a weak set bound to a repository collection.
	Set = core.Set
	// Iterator is one run of the elements iterator.
	Iterator = core.Iterator
	// Element is one yielded member. Its Data and Attrs are read-only and
	// may be shared with the element cache and with other runs.
	Element = core.Element
	// Options configures a weak set.
	Options = core.Options
	// DynOptions configures a dynamic set.
	DynOptions = core.DynOptions
	// Semantics selects a point in the design space.
	Semantics = core.Semantics
)

// Repository and deployment types.
type (
	// Client is a node-local handle on the distributed repository.
	Client = repo.Client
	// Object is a stored repository value.
	Object = repo.Object
	// ObjectID names an object.
	ObjectID = repo.ObjectID
	// Ref locates an object (ID plus node).
	Ref = repo.Ref
	// NodeID names a node.
	NodeID = netsim.NodeID
	// Cluster is a running simulated deployment.
	Cluster = cluster.Cluster
	// ClusterConfig sizes and seeds a cluster.
	ClusterConfig = cluster.Config
	// Query is a compiled predicate query over a collection.
	Query = query.Query
	// QueryOptions configures query execution.
	QueryOptions = query.Options
)

// The design-space points, strongest first (see Semantics).
const (
	Immutable       = core.Immutable
	ImmutablePerRun = core.ImmutablePerRun
	Snapshot        = core.Snapshot
	GrowOnly        = core.GrowOnly
	GrowOnlyPerRun  = core.GrowOnlyPerRun
	Optimistic      = core.Optimistic
)

// Errors surfaced by iterators.
var (
	// ErrFailure is the paper's failure exception at set level.
	ErrFailure = core.ErrFailure
	// ErrBlocked reports an exhausted optimistic blocking budget.
	ErrBlocked = core.ErrBlocked
	// ErrClosed reports use of a closed iterator.
	ErrClosed = core.ErrClosed
)

// Well-known cluster node names.
const (
	HomeNode = cluster.HomeNode
	DirNode  = cluster.DirNode
)

// NewSet binds a weak set to collection name on directory node dir.
func NewSet(client *Client, dir NodeID, name string, opts Options) (*Set, error) {
	return core.NewSet(client, dir, name, opts)
}

// OpenDyn opens a dynamic set over the collection: an Immutable run that
// yields in completion order and skips what it cannot reach.
func OpenDyn(ctx context.Context, client *Client, dir NodeID, name string, opts DynOptions) (*Iterator, error) {
	return core.OpenDyn(ctx, client, dir, name, opts)
}

// NewCluster builds a simulated wide-area deployment: network, RPC bus,
// repository servers, lock service, and a client homed at HomeNode.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	return cluster.New(cfg)
}

// NewQuery compiles a predicate expression (e.g. `cuisine == "chinese" &&
// year >= 1990`) bound to a collection.
func NewQuery(client *Client, dir NodeID, coll, predicate string) (*Query, error) {
	return query.New(client, dir, coll, predicate)
}

// AllSemantics lists every implemented semantics, strongest first.
func AllSemantics() []Semantics { return core.AllSemantics() }
