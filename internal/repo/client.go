package repo

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"weaksets/internal/netsim"
	"weaksets/internal/rpc"
	"weaksets/internal/store"
)

// Client is a node-local handle on the distributed repository. It issues
// RPCs from its home node, so reachability is always judged from the
// client's point in the (possibly partitioned) network.
type Client struct {
	bus  *rpc.Bus
	node netsim.NodeID

	// muts counts mutations issued through this client. Prefetched
	// objects are stamped with the epoch at fetch time; a later epoch
	// invalidates them, preserving read-your-writes through caches.
	muts atomic.Uint64

	// cache is the attached element cache, if any. The client keeps it
	// coherent with its own writes: Put installs the stored version,
	// Delete drops the entry. That write-through is what lets snapshot
	// runs serve warm entries without an RPC and still read the
	// client's own writes.
	cache atomic.Pointer[Cache]

	// leaseState is the attached lease holder, if any: iterators consult
	// it before revalidating a current-state membership read.
	leaseState atomic.Pointer[LeaseState]
}

// Mutations reports the client's mutation epoch: how many mutating calls
// it has issued. It advances even on failed calls, since a mutation that
// errored may still have taken effect server-side.
func (c *Client) Mutations() uint64 { return c.muts.Load() }

// NewClient creates a client that issues calls from node.
func NewClient(bus *rpc.Bus, node netsim.NodeID) *Client {
	return &Client{bus: bus, node: node}
}

// UseCache attaches an element cache. Iterators created from this client
// consult it on the elements hot path (unless opted out per run), and the
// client's own Put/Delete keep it coherent.
func (c *Client) UseCache(cache *Cache) { c.cache.Store(cache) }

// ElementCache reports the attached element cache, or nil.
func (c *Client) ElementCache() *Cache { return c.cache.Load() }

// UseLeases attaches a lease state. Iterators created from this client
// consult it on current-state runs: a valid lease whose certified
// version matches the cached listing serves the run with no RPC at all.
// The caller owns the state's lifecycle (Start/Stop).
func (c *Client) UseLeases(ls *LeaseState) { c.leaseState.Store(ls) }

// Leases reports the attached lease state, or nil.
func (c *Client) Leases() *LeaseState { return c.leaseState.Load() }

// Node reports the client's home node.
func (c *Client) Node() netsim.NodeID { return c.node }

// Bus exposes the underlying RPC bus.
func (c *Client) Bus() *rpc.Bus { return c.bus }

// Reachable reports whether the node holding ref is currently reachable
// from the client — the paper's reachable() oracle evaluated at the
// client's node.
func (c *Client) Reachable(ref Ref) bool {
	return c.bus.Network().Reachable(c.node, ref.Node)
}

// NodeReachable reports whether an arbitrary node is reachable from the
// client.
func (c *Client) NodeReachable(n netsim.NodeID) bool {
	return c.bus.Network().Reachable(c.node, n)
}

// EstimateRTT estimates the round trip to the node holding ref, used for
// closest-first fetch ordering.
func (c *Client) EstimateRTT(ref Ref) time.Duration {
	return c.bus.Network().EstimateRTT(c.node, ref.Node)
}

// Get fetches an object from the node recorded in ref.
func (c *Client) Get(ctx context.Context, ref Ref) (Object, error) {
	return rpc.Invoke[Object](ctx, c.bus, c.node, ref.Node, MethodGet, GetReq{ID: ref.ID})
}

// GetBatch fetches several objects from one node in a single round trip.
// It returns the found objects in request order plus the ids the node had
// no data for; only a transport failure or a malformed answer errors the
// whole batch.
func (c *Client) GetBatch(ctx context.Context, node netsim.NodeID, ids []ObjectID) ([]Object, []ObjectID, error) {
	objs, _, missing, err := c.GetBatchValidated(ctx, node, ids, nil)
	return objs, missing, err
}

// GetBatchValidated is the conditional variant of GetBatch: known maps
// ids to versions the caller already holds, and the node ships full
// objects only for ids whose version moved, answering the rest in
// notModified. Payload bytes for validated ids never cross the wire.
// objs, notModified and missing each follow the order of ids, which is
// what lets a caller match answers to requests by position: an answer
// that does not is an error, never an id silently lost.
func (c *Client) GetBatchValidated(ctx context.Context, node netsim.NodeID, ids []ObjectID, known map[ObjectID]uint64) (objs []Object, notModified []ObjectID, missing []ObjectID, err error) {
	resp, err := rpc.Invoke[GetBatchResp](ctx, c.bus, c.node, node, MethodGetBatch, GetBatchReq{IDs: ids, Known: known})
	if err != nil {
		return nil, nil, nil, err
	}
	if !inRequestOrder(ids, len(resp.Objects), func(i int) ObjectID { return resp.Objects[i].ID }) ||
		!inRequestOrder(ids, len(resp.NotModified), func(i int) ObjectID { return resp.NotModified[i] }) ||
		!inRequestOrder(ids, len(resp.Missing), func(i int) ObjectID { return resp.Missing[i] }) {
		return nil, nil, nil, fmt.Errorf("rpc %s: answer from %s is not in request order", MethodGetBatch, node)
	}
	return resp.Objects, resp.NotModified, resp.Missing, nil
}

// inRequestOrder reports whether n answers, the i-th naming id(i), are an
// in-order subsequence of the requested ids.
func inRequestOrder(ids []ObjectID, n int, id func(int) ObjectID) bool {
	i := 0
	for _, want := range ids {
		if i < n && id(i) == want {
			i++
		}
	}
	return i == n
}

// Put stores an object on the given node and returns its ref. With a
// cache attached the stored version is written through, so the client's
// next iteration finds its own write warm.
func (c *Client) Put(ctx context.Context, node netsim.NodeID, obj Object) (Ref, error) {
	defer c.muts.Add(1)
	resp, err := rpc.Invoke[PutResp](ctx, c.bus, c.node, node, MethodPut, PutReq{Obj: obj})
	if err != nil {
		return Ref{}, err
	}
	if cache := c.cache.Load(); cache != nil {
		stored := obj.Clone()
		stored.Version = resp.Version
		stored.Tombstone = false
		cache.Put(stored)
	}
	return Ref{ID: obj.ID, Node: node}, nil
}

// Delete removes an object's data from its node. With a cache attached
// the entry is dropped, so the client never serves its own deleted data
// from cache.
func (c *Client) Delete(ctx context.Context, ref Ref) error {
	defer c.muts.Add(1)
	if cache := c.cache.Load(); cache != nil {
		cache.Drop(ref.ID)
	}
	_, _, err := c.bus.Call(ctx, c.node, ref.Node, MethodDelete, DeleteReq{ID: ref.ID})
	return err
}

// CreateCollection creates an empty collection on the directory node dir.
func (c *Client) CreateCollection(ctx context.Context, dir netsim.NodeID, name string) error {
	_, _, err := c.bus.Call(ctx, c.node, dir, MethodCreate, CreateReq{Name: name})
	return err
}

// List reads a collection's current membership from dir: one ListParts
// stream of every partition, merged ascending by id, at the highest
// partition version — which is the collection's.
func (c *Client) List(ctx context.Context, dir netsim.NodeID, name string) ([]Ref, uint64, error) {
	var parts [][]Ref
	var version uint64
	err := c.ListPartsSubset(ctx, dir, name, 0, nil, nil, func(pl PartListing) error {
		parts = append(parts, pl.Members)
		version = max(version, pl.Version)
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return MergeParts(parts), version, nil
}

// ListPartsSubset reads a collection's membership one listing partition
// at a time from node — the home, or a replica serving its share of a
// scattered read — invoking fn for each partition's listing as it
// arrives, which can be while later partitions are still in flight. parts
// names the partitions wanted (nil/empty requests them all). gates is an
// optional per-partition version vector: a partition still at or below
// its gate is left out, so fn sees only the partitions that moved (a
// vector of any length but the collection's partition count gates
// nothing). A non-zero pin serves that snapshot instead of the live
// membership, each frame at its partition's pinned version. A non-nil error from fn abandons the
// stream and is returned as-is.
func (c *Client) ListPartsSubset(ctx context.Context, node netsim.NodeID, name string, pin int64, gates []uint64, parts []int, fn func(PartListing) error) error {
	out, _, err := c.bus.Call(ctx, c.node, node, MethodListParts, ListPartsReq{Name: name, Pin: pin, IfVersions: gates, Stream: true, Parts: parts})
	if err != nil {
		return err
	}
	st, ok := out.(rpc.Streamer)
	if !ok {
		return fmt.Errorf("rpc %s: unexpected response type %T", MethodListParts, out)
	}
	for {
		chunk, ok := st.Next()
		if !ok {
			return st.Err()
		}
		pl, ok := chunk.(PartListing)
		if !ok {
			drainStream(st)
			return fmt.Errorf("rpc %s: unexpected chunk type %T", MethodListParts, chunk)
		}
		if err := fn(pl); err != nil {
			drainStream(st)
			return err
		}
	}
}

// drainStream runs an abandoned stream to completion. A stream left
// mid-flight would strand its transport call slot (the slot is released
// when the stream ends); draining is cheap because abandonment comes
// with a cancelled stream context, which ends a remote stream on its
// next chunk.
func drainStream(st rpc.Streamer) {
	for {
		if _, ok := st.Next(); !ok {
			return
		}
	}
}

// Add inserts a member into a collection.
func (c *Client) Add(ctx context.Context, dir netsim.NodeID, name string, ref Ref) error {
	defer c.muts.Add(1)
	_, err := rpc.Invoke[MutateResp](ctx, c.bus, c.node, dir, MethodAdd, AddReq{Name: name, Ref: ref})
	return err
}

// Remove removes a member from a collection. It reports whether the
// removal was deferred by an open grow-only window.
func (c *Client) Remove(ctx context.Context, dir netsim.NodeID, name string, id ObjectID) (deferred bool, err error) {
	defer c.muts.Add(1)
	resp, err := rpc.Invoke[RemoveResp](ctx, c.bus, c.node, dir, MethodRemove, RemoveReq{Name: name, ID: id})
	if err != nil {
		return false, err
	}
	return resp.Deferred, nil
}

// DeleteMember removes ref from the collection and, unless the server
// deferred the removal (grow-only window), deletes the object's data too.
// This is the paper's model of element deletion: the membership change and
// the object's disappearance are separate, non-atomic steps.
func (c *Client) DeleteMember(ctx context.Context, dir netsim.NodeID, name string, ref Ref) error {
	deferred, err := c.Remove(ctx, dir, name, ref.ID)
	if err != nil {
		return err
	}
	if deferred {
		return nil
	}
	return c.Delete(ctx, ref)
}

// Pin takes an atomic snapshot of the collection's membership and returns
// its handle and each listing partition's version at the pin, read-only.
func (c *Client) Pin(ctx context.Context, dir netsim.NodeID, name string) (int64, []uint64, error) {
	resp, err := rpc.Invoke[PinResp](ctx, c.bus, c.node, dir, MethodPin, PinReq{Name: name})
	if err != nil {
		return 0, nil, err
	}
	return resp.Pin, resp.Versions, nil
}

// Unpin releases a snapshot.
func (c *Client) Unpin(ctx context.Context, dir netsim.NodeID, name string, pin int64) error {
	_, _, err := c.bus.Call(ctx, c.node, dir, MethodUnpin, UnpinReq{Name: name, Pin: pin})
	return err
}

// BeginGrow opens a grow-only window on the collection; until the matching
// EndGrow, deletions are deferred as ghosts.
func (c *Client) BeginGrow(ctx context.Context, dir netsim.NodeID, name string) (int64, error) {
	resp, err := rpc.Invoke[BeginGrowResp](ctx, c.bus, c.node, dir, MethodBeginGrow, BeginGrowReq{Name: name})
	if err != nil {
		return 0, err
	}
	return resp.Token, nil
}

// EndGrow closes a grow-only window; when the last window closes the
// server garbage-collects ghosts and reports how many it reclaimed.
func (c *Client) EndGrow(ctx context.Context, dir netsim.NodeID, name string, token int64) (reclaimed int, err error) {
	defer c.muts.Add(1) // ghost GC may delete object data
	resp, err := rpc.Invoke[EndGrowResp](ctx, c.bus, c.node, dir, MethodEndGrow, EndGrowReq{Name: name, Token: token})
	if err != nil {
		return 0, err
	}
	return resp.Reclaimed, nil
}

// Stats fetches collection counters from dir.
func (c *Client) Stats(ctx context.Context, dir netsim.NodeID, name string) (StatsResp, error) {
	return rpc.Invoke[StatsResp](ctx, c.bus, c.node, dir, MethodStats, StatsReq{Name: name})
}

// StoreStats fetches a node's storage-engine instrumentation: per-
// operation counts, error counts, and latency quantiles.
func (c *Client) StoreStats(ctx context.Context, node netsim.NodeID) (store.EngineStats, error) {
	resp, err := rpc.Invoke[StoreStatsResp](ctx, c.bus, c.node, node, MethodStoreStats, StoreStatsReq{})
	if err != nil {
		return store.EngineStats{}, err
	}
	return resp.Stats, nil
}

// Digest fetches a node's anti-entropy digest for one collection: its
// per-partition version vector and how long ago the home last pushed to
// it (AgeMs; -1 when never, which is what the home itself answers). The
// read path uses it both as a liveness/latency probe and as the
// baseline for the staleness (ReplicaSkew) a scattered read reports.
func (c *Client) Digest(ctx context.Context, node netsim.NodeID, name string) (DigestResp, error) {
	return rpc.Invoke[DigestResp](ctx, c.bus, c.node, node, MethodSyncDigest, DigestReq{Name: name})
}
