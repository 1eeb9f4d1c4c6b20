package repo

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"weaksets/internal/netsim"
	"weaksets/internal/obs"
	"weaksets/internal/rpc"
	"weaksets/internal/store"
)

// Server is one node's repository: a storage engine plus the RPC surface
// over it. The engine (internal/store) owns all object and collection
// state — membership, pins, ghosts, grow tokens — while the server owns
// only the network side: request decoding, replication pushes, and
// remote deletes.
type Server struct {
	bus     *rpc.Bus
	node    netsim.NodeID
	rpc     *rpc.Server
	store   store.Store
	tracer  *obs.Tracer
	journal *obs.Journal
	leases  *leaseHub
	ae      *syncer

	// lastSync tracks, per collection this node replicates, when the
	// home last pushed a sync here (map[string]time.Time) — the staleness
	// age a SyncDigest reports.
	lastSync sync.Map

	wg     sync.WaitGroup
	closed chan struct{}
}

// NewServer creates and registers a repository server on node, backed by
// the default sharded storage engine. The node must already exist in the
// bus's network.
func NewServer(bus *rpc.Bus, node netsim.NodeID) (*Server, error) {
	return NewServerWithStore(bus, node, store.NewSharded(store.Config{}))
}

// NewServerWithStore creates a repository server over a caller-supplied
// storage engine.
func NewServerWithStore(bus *rpc.Bus, node netsim.NodeID, st store.Store) (*Server, error) {
	s := &Server{
		bus:    bus,
		node:   node,
		rpc:    rpc.NewServer(node),
		store:  st,
		leases: newLeaseHub(DefaultLeaseTTL),
		closed: make(chan struct{}),
	}
	s.ae = newSyncer(s)
	s.register()
	st.OnListingChange(s.leases.invalidate)
	if err := bus.Register(s.rpc); err != nil {
		return nil, fmt.Errorf("repo server %s: %w", node, err)
	}
	return s, nil
}

// Node reports the node this server runs on.
func (s *Server) Node() netsim.NodeID { return s.node }

// Store exposes the server's storage engine (stats, tests).
func (s *Server) Store() store.Store { return s.store }

// UseTracer makes the server record a span per store operation served,
// joined to the caller's propagated trace (join-only: untraced requests
// cost nothing). Set it before traffic starts; it is not synchronized.
func (s *Server) UseTracer(t *obs.Tracer) { s.tracer = t }

// UseJournal makes the server record coordination-plane events — lease
// grants and ghost reclamation — into the given bounded journal. Call
// before serving traffic.
func (s *Server) UseJournal(j *obs.Journal) { s.journal = j }

// startOp opens the store-shard span for one served operation.
func (s *Server) startOp(ctx context.Context, name string) *obs.Span {
	_, sp := s.tracer.StartSpan(ctx, name)
	sp.SetAttr("node", string(s.node))
	return sp
}

// SetLeaseTTL changes the lease duration granted from now on (tests
// shorten it to exercise expiry).
func (s *Server) SetLeaseTTL(d time.Duration) { s.leases.ttl.Store(int64(d)) }

// Close stops background replication pushes, ends every watch stream,
// and waits for them to finish.
func (s *Server) Close() {
	select {
	case <-s.closed:
	default:
		close(s.closed)
	}
	s.leases.close()
	s.wg.Wait()
}

func (s *Server) register() {
	s.rpc.Handle(MethodGet, s.renewing(rpc.Typed(s.handleGet)))
	s.rpc.Handle(MethodGetBatch, s.renewing(rpc.Typed(s.handleGetBatch)))
	s.rpc.Handle(MethodPut, s.renewing(rpc.Typed(s.handlePut)))
	s.rpc.Handle(MethodDelete, s.renewing(rpc.Typed(s.handleDelete)))
	s.rpc.Handle(MethodCreate, s.renewing(rpc.Typed(s.handleCreate)))
	s.rpc.Handle(MethodListParts, s.renewing(rpc.Typed(s.handleListParts)))
	s.rpc.Handle(MethodAdd, s.renewing(rpc.Typed(s.handleAdd)))
	s.rpc.Handle(MethodRemove, s.renewing(rpc.Typed(s.handleRemove)))
	s.rpc.Handle(MethodPin, s.renewing(rpc.Typed(s.handlePin)))
	s.rpc.Handle(MethodUnpin, s.renewing(rpc.Typed(s.handleUnpin)))
	s.rpc.Handle(MethodBeginGrow, s.renewing(rpc.Typed(s.handleBeginGrow)))
	s.rpc.Handle(MethodEndGrow, s.renewing(rpc.Typed(s.handleEndGrow)))
	s.rpc.Handle(MethodStats, s.renewing(rpc.Typed(s.handleStats)))
	s.rpc.Handle(MethodStoreStats, s.renewing(rpc.Typed(s.handleStoreStats)))
	s.rpc.Handle(MethodSyncPart, s.renewing(rpc.Typed(s.handleSyncPart)))
	s.rpc.Handle(MethodSyncDigest, s.renewing(rpc.Typed(s.handleSyncDigest)))
	s.rpc.Handle(MethodLease, rpc.Typed(s.handleLease))
	s.rpc.Handle(MethodWatch, rpc.Typed(s.handleWatch))
}

// renewing wraps a handler with the piggyback lease renewal: any call a
// lease holder makes extends its unexpired leases by a fresh TTL.
func (s *Server) renewing(h rpc.Handler) rpc.Handler {
	return func(ctx context.Context, from netsim.NodeID, req any) (any, error) {
		s.leases.touch(from)
		return h(ctx, from, req)
	}
}

func (s *Server) handleLease(ctx context.Context, from netsim.NodeID, r LeaseReq) (any, error) {
	grant := s.leases.grant(from, r.Colls, s.store)
	for _, coll := range r.Colls {
		s.journal.Record(obs.Event{
			Type: obs.EvLeaseGrant, Node: string(s.node), Collection: coll,
			Attrs: map[string]int64{"version": int64(grant.Versions[coll]), "ttlMs": grant.TTL.Milliseconds()},
		})
	}
	return grant, nil
}

// handleWatch opens the caller's invalidation stream. The returned
// Streamer lives until the handler context is cancelled (connection
// teardown on a real transport, caller cancellation in process), the
// server closes, or a newer Watch from the same caller supersedes it.
func (s *Server) handleWatch(ctx context.Context, from netsim.NodeID, _ WatchReq) (any, error) {
	return s.leases.watch(ctx, from), nil
}

func (s *Server) handleGet(ctx context.Context, _ netsim.NodeID, r GetReq) (any, error) {
	sp := s.startOp(ctx, "store.get")
	obj, err := s.store.GetObject(r.ID)
	sp.End()
	if err != nil {
		return nil, err
	}
	return obj, nil
}

func (s *Server) handleGetBatch(ctx context.Context, _ netsim.NodeID, r GetBatchReq) (any, error) {
	sp := s.startOp(ctx, "store.getBatch")
	sp.SetInt("ids", int64(len(r.IDs)))
	sp.SetInt("known", int64(len(r.Known)))
	objs, notModified, missing := s.store.GetBatch(r.IDs, r.Known)
	sp.SetInt("notModified", int64(len(notModified)))
	sp.End()
	return GetBatchResp{Objects: objs, NotModified: notModified, Missing: missing}, nil
}

func (s *Server) handlePut(ctx context.Context, _ netsim.NodeID, r PutReq) (any, error) {
	sp := s.startOp(ctx, "store.put")
	v, err := s.store.PutObject(r.Obj)
	sp.End()
	if err != nil {
		return nil, err
	}
	return PutResp{Version: v}, nil
}

func (s *Server) handleDelete(ctx context.Context, _ netsim.NodeID, r DeleteReq) (any, error) {
	if err := s.store.DeleteObject(r.ID); err != nil {
		return nil, err
	}
	return struct{}{}, nil
}

func (s *Server) handleCreate(ctx context.Context, _ netsim.NodeID, r CreateReq) (any, error) {
	if err := s.store.CreateCollection(r.Name); err != nil {
		return nil, err
	}
	return struct{}{}, nil
}

// partStream serves a partitioned listing one partition at a time. Each
// Next takes the next partition's copy-on-write snapshot only when
// asked, so a streaming transport ships partition 0 while partition 1's
// snapshot has not been taken yet — writers that land in between are
// simply the per-partition skew the weak semantics already tolerate
// (and the WeaknessReport measures). A pinned stream serves the pin's
// own partitions, each at its pinned version, and is never skewed.
type partStream struct {
	store store.Store
	name  string
	total int
	// parts are the partition indices to serve, in order: all of them, a
	// replica-scattered read's subset, or a gated read's moved ones.
	parts []int
	// pinned and pinVers are the pin being read, nil for a live read.
	pinned  [][]store.Ref
	pinVers []uint64
	// openVer is the collection version when the stream opened; a
	// partition whose version exceeds it was snapshotted after a write
	// landed mid-stream, and its frame is stamped Skewed so the client
	// can count the anomaly.
	openVer uint64
	next    int
	err     error
}

func (ps *partStream) Next() (any, bool) {
	if ps.err != nil || ps.next >= len(ps.parts) {
		return nil, false
	}
	part := ps.parts[ps.next]
	ps.next++
	if ps.pinVers != nil {
		return PartListing{Part: part, Partitions: ps.total, Members: ps.pinned[part], Version: ps.pinVers[part]}, true
	}
	members, version, _, err := ps.store.ListPart(ps.name, part, 0)
	if err != nil {
		ps.err = err
		return nil, false
	}
	return PartListing{
		Part:       part,
		Partitions: ps.total,
		Members:    members,
		Version:    version,
		Skewed:     version > ps.openVer,
	}, true
}

func (ps *partStream) Err() error { return ps.err }

// materializeParts drains a listing stream into the single-message form,
// for a request that did not ask for a stream.
func materializeParts(st rpc.Streamer) (any, error) {
	var resp ListPartsResp
	for {
		chunk, ok := st.Next()
		if !ok {
			break
		}
		resp.Parts = append(resp.Parts, chunk.(PartListing))
	}
	if err := st.Err(); err != nil {
		return nil, err
	}
	return resp, nil
}

// handleListParts serves the one membership read, live or pinned, in the
// collection's partition layout: the requested partitions (all, when
// none are named) or, gated by a version vector of the layout's length,
// those whose version — live, or the pin's — is above the gate.
func (s *Server) handleListParts(ctx context.Context, _ netsim.NodeID, r ListPartsReq) (any, error) {
	sp := s.startOp(ctx, "store.listParts")
	defer sp.End()
	ps := &partStream{store: s.store, name: r.Name}
	var err error
	if r.Pin != 0 {
		ps.pinned, ps.pinVers, err = s.store.ListPinned(r.Name, r.Pin)
		ps.total = len(ps.pinVers)
	} else {
		ps.total, err = s.store.Partitions(r.Name)
	}
	if err != nil {
		return nil, err
	}
	total := ps.total
	sp.SetInt("partitions", int64(total))
	for _, p := range r.Parts {
		if p < 0 || p >= total {
			return nil, fmt.Errorf("list %q partition %d of %d: %w", r.Name, p, total, store.ErrBadPartition)
		}
	}
	ps.parts = r.Parts
	if len(r.IfVersions) == total {
		// Gated: one look at the version vector picks the partitions that
		// moved since the caller read them. A vector of another length
		// (another layout's, or none) gates nothing.
		vers := ps.pinVers
		if vers == nil {
			if vers, err = s.store.PartVersions(r.Name); err != nil {
				return nil, err
			}
		}
		ps.parts = nil
		for p := 0; p < total && p < len(vers); p++ {
			if vers[p] > r.IfVersions[p] && (len(r.Parts) == 0 || slices.Contains(r.Parts, p)) {
				ps.parts = append(ps.parts, p)
			}
		}
	} else if len(ps.parts) == 0 {
		ps.parts = make([]int, total)
		for i := range ps.parts {
			ps.parts[i] = i
		}
	}
	if r.Pin == 0 {
		if ps.openVer, err = s.store.ListVersion(r.Name); err != nil {
			return nil, err
		}
	}
	if !r.Stream {
		return materializeParts(ps)
	}
	return ps, nil
}

func (s *Server) handleAdd(ctx context.Context, _ netsim.NodeID, r AddReq) (any, error) {
	sp := s.startOp(ctx, "store.add")
	v, err := s.store.Add(r.Name, r.Ref)
	sp.End()
	if err != nil {
		return nil, err
	}
	s.ae.kick(r.Name)
	return MutateResp{Version: v}, nil
}

func (s *Server) handleRemove(ctx context.Context, _ netsim.NodeID, r RemoveReq) (any, error) {
	sp := s.startOp(ctx, "store.remove")
	_, deferred, v, err := s.store.Remove(r.Name, r.ID)
	sp.End()
	if err != nil {
		return nil, err
	}
	s.ae.kick(r.Name)
	return RemoveResp{Deferred: deferred, Version: v}, nil
}

func (s *Server) handlePin(ctx context.Context, _ netsim.NodeID, r PinReq) (any, error) {
	sp := s.startOp(ctx, "store.pin")
	pin, vers, err := s.store.Pin(r.Name)
	sp.End()
	if err != nil {
		return nil, err
	}
	return PinResp{Pin: pin, Versions: vers}, nil
}

func (s *Server) handleUnpin(ctx context.Context, _ netsim.NodeID, r UnpinReq) (any, error) {
	if err := s.store.Unpin(r.Name, r.Pin); err != nil {
		return nil, err
	}
	return struct{}{}, nil
}

func (s *Server) handleBeginGrow(ctx context.Context, _ netsim.NodeID, r BeginGrowReq) (any, error) {
	token, err := s.store.BeginGrow(r.Name)
	if err != nil {
		return nil, err
	}
	return BeginGrowResp{Token: token}, nil
}

func (s *Server) handleEndGrow(ctx context.Context, _ netsim.NodeID, r EndGrowReq) (any, error) {
	reclaim, err := s.store.EndGrow(r.Name, r.Token)
	if err != nil {
		return nil, err
	}
	for _, ref := range reclaim {
		s.asyncDelete(ref)
	}
	if len(reclaim) > 0 {
		s.ae.kick(r.Name)
		s.journal.Record(obs.Event{
			Type: obs.EvGhostGC, Node: string(s.node), Collection: r.Name,
			Attrs: map[string]int64{"reclaimed": int64(len(reclaim))},
		})
	}
	return EndGrowResp{Reclaimed: len(reclaim)}, nil
}

func (s *Server) handleStats(ctx context.Context, _ netsim.NodeID, r StatsReq) (any, error) {
	c, err := s.store.CollStats(r.Name)
	if err != nil {
		return nil, err
	}
	return StatsResp{
		Members:    c.Members,
		Ghosts:     c.Ghosts,
		Pins:       c.Pins,
		Tokens:     c.Tokens,
		Version:    c.Version,
		Partitions: c.Partitions,
	}, nil
}

func (s *Server) handleStoreStats(ctx context.Context, _ netsim.NodeID, _ StoreStatsReq) (any, error) {
	return StoreStatsResp{Stats: s.store.Stats()}, nil
}

// ReplicateCollection registers replica nodes for a collection and
// brings them up to date immediately; from then on every committed
// mutation kicks an asynchronous anti-entropy round (see antientropy.go).
func (s *Server) ReplicateCollection(name string, replicas []netsim.NodeID) error {
	if _, err := s.store.ListVersion(name); err != nil {
		return err
	}
	s.ae.setReplicas(name, replicas)
	s.ae.kick(name)
	return nil
}

// SetAntiEntropy starts the background anti-entropy ticker: every
// interval, each replicated collection gets a repair round even with no
// write traffic, so a replica that missed pushes while partitioned
// converges once healed. Call at most once, before Close.
func (s *Server) SetAntiEntropy(interval time.Duration) {
	s.ae.startTicker(interval)
}

// asyncDelete deletes object data, possibly on a remote node, without
// blocking the caller.
func (s *Server) asyncDelete(ref Ref) {
	if ref.Node == s.node {
		_ = s.store.DeleteObject(ref.ID)
		return
	}
	select {
	case <-s.closed:
		return
	default:
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_, _, _ = s.bus.Call(context.Background(), s.node, ref.Node, MethodDelete, DeleteReq{ID: ref.ID})
	}()
}

// ObjectCount reports the number of objects stored locally (test hook).
func (s *Server) ObjectCount() int {
	return s.store.ObjectCount()
}
