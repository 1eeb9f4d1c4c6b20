package repo

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"weaksets/internal/netsim"
	"weaksets/internal/obs"
	"weaksets/internal/rpc"
)

// This file is the home side of replication anti-entropy. Writes commit
// on the home node only; the syncer then reconciles each replica against
// the home's per-partition version vector: digest the replica
// (MethodSyncDigest), then push only the partitions it is behind on
// (MethodSyncPart) — or every partition, when the replica has never seen
// the collection or holds it in another partition layout, which the
// first push makes it adopt. A replica lost to a partition or crash is
// marked pending (the hinted-handoff bookkeeping, journaled as EvHandoff)
// and repaired by the next kick or background tick that reaches it
// (EvRepair) — divergence is legal under the paper's weak semantics and
// is surfaced, never hidden, through the digest ages the read path
// reports as GhostAge.

// syncer coalesces anti-entropy rounds per collection: a kick while a
// round is running marks the collection dirty and the running round
// loops once more, so a write burst costs one round, not one per write.
type syncer struct {
	s *Server

	mu    sync.Mutex
	colls map[string]*collSync
}

// collSync is one collection's sync state on the home node.
type collSync struct {
	replicas []netsim.NodeID
	running  bool
	dirty    bool
	// pending marks replicas whose last round failed (unreachable or
	// erroring): the hinted-handoff set a later round repairs.
	pending map[netsim.NodeID]bool
}

func newSyncer(s *Server) *syncer {
	return &syncer{s: s, colls: make(map[string]*collSync)}
}

// setReplicas records the replica set the syncer maintains for name.
func (sy *syncer) setReplicas(name string, replicas []netsim.NodeID) {
	sy.mu.Lock()
	defer sy.mu.Unlock()
	cs := sy.colls[name]
	if cs == nil {
		cs = &collSync{pending: make(map[netsim.NodeID]bool)}
		sy.colls[name] = cs
	}
	cs.replicas = append([]netsim.NodeID(nil), replicas...)
}

// names lists the collections with at least one replica (ticker input).
func (sy *syncer) names() []string {
	sy.mu.Lock()
	defer sy.mu.Unlock()
	out := make([]string, 0, len(sy.colls))
	for name, cs := range sy.colls {
		if len(cs.replicas) > 0 {
			out = append(out, name)
		}
	}
	return out
}

// kick schedules an asynchronous anti-entropy round for name. Rounds
// coalesce: at most one runs per collection, and kicks landing mid-round
// make it loop once more.
func (sy *syncer) kick(name string) {
	sy.mu.Lock()
	cs := sy.colls[name]
	if cs == nil || len(cs.replicas) == 0 {
		sy.mu.Unlock()
		return
	}
	if cs.running {
		cs.dirty = true
		sy.mu.Unlock()
		return
	}
	cs.running = true
	sy.mu.Unlock()

	select {
	case <-sy.s.closed:
		sy.mu.Lock()
		cs.running = false
		sy.mu.Unlock()
		return
	default:
	}
	sy.s.wg.Add(1)
	go func() {
		defer sy.s.wg.Done()
		for {
			sy.mu.Lock()
			replicas := append([]netsim.NodeID(nil), cs.replicas...)
			sy.mu.Unlock()
			sy.round(name, cs, replicas)
			sy.mu.Lock()
			done := !cs.dirty
			cs.dirty = false
			if done {
				cs.running = false
			}
			sy.mu.Unlock()
			if done {
				return
			}
			select {
			case <-sy.s.closed:
				sy.mu.Lock()
				cs.running = false
				sy.mu.Unlock()
				return
			default:
			}
		}
	}()
}

// startTicker runs periodic repair rounds until the server closes.
func (sy *syncer) startTicker(interval time.Duration) {
	if interval <= 0 {
		return
	}
	sy.s.wg.Add(1)
	go func() {
		defer sy.s.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-sy.s.closed:
				return
			case <-t.C:
				for _, name := range sy.names() {
					sy.kick(name)
				}
			}
		}
	}()
}

// round reconciles every replica once, concurrently, and settles the
// hinted-handoff bookkeeping: a replica that failed flips to pending
// (EvHandoff, once per outage), a pending replica that caught up is
// repaired (EvRepair).
func (sy *syncer) round(name string, cs *collSync, replicas []netsim.NodeID) {
	var wg sync.WaitGroup
	for _, replica := range replicas {
		replica := replica
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := sy.syncReplica(context.Background(), name, replica)
			sy.mu.Lock()
			wasPending := cs.pending[replica]
			if err != nil {
				cs.pending[replica] = true
			} else {
				delete(cs.pending, replica)
			}
			sy.mu.Unlock()
			switch {
			case err != nil && !wasPending:
				sy.s.journal.Record(obs.Event{
					Type: obs.EvHandoff, Node: string(replica), Collection: name,
					Detail: err.Error(),
				})
			case err == nil && wasPending:
				sy.s.journal.Record(obs.Event{
					Type: obs.EvRepair, Node: string(replica), Collection: name,
				})
			}
		}()
	}
	wg.Wait()
}

// syncReplica brings one replica up to date with the home's current
// per-partition versions: digest, then push the partitions the replica
// is behind on. A replica that has never seen the collection, or holds it
// in another partition layout, is behind on every partition: all of them
// are pushed in this round, and the first creates (or re-lays out) the
// replica's copy in the home's layout. Pushes go in ascending version
// order, so the replica's collection version steps through the home's
// own and ends equal to it. A push the replica declines was stale against
// a newer one, so there is nothing to fall back to. Any other error is
// returned — the caller's handoff bookkeeping owns it.
func (sy *syncer) syncReplica(ctx context.Context, name string, replica netsim.NodeID) error {
	st := sy.s.store
	homeVers, err := st.PartVersions(name)
	if err != nil {
		return nil // collection gone; nothing to sync
	}
	digest, err := rpc.Invoke[DigestResp](ctx, sy.s.bus, sy.s.node, replica, MethodSyncDigest, DigestReq{Name: name})
	if err != nil && !errors.Is(err, ErrNoCollection) {
		return err
	}
	var replicaVers []uint64
	if err == nil && digest.Partitions == len(homeVers) {
		replicaVers = digest.Versions
	}
	stale := make([]int, 0, len(homeVers))
	for part, homeVer := range homeVers {
		if part >= len(replicaVers) || homeVer > replicaVers[part] {
			stale = append(stale, part)
		}
	}
	sort.Slice(stale, func(i, j int) bool { return homeVers[stale[i]] < homeVers[stale[j]] })
	for _, part := range stale {
		members, version, _, lerr := st.ListPart(name, part, 0)
		if lerr != nil {
			return nil // collection gone mid-round
		}
		// Ship the data of home-resident members along with the listing,
		// so the replica can serve GetBatch for them. Members homed on
		// other nodes travel by reference only — their data is already
		// where the ref points.
		var objs []Object
		for _, ref := range members {
			if ref.Node != sy.s.node {
				continue
			}
			obj, gerr := st.GetObject(ref.ID)
			if gerr != nil {
				continue // deleted since listing; a later round settles it
			}
			objs = append(objs, obj)
		}
		req := SyncPartReq{Name: name, Partitions: len(homeVers), Part: part, Members: members, Version: version, Objects: objs}
		if _, perr := rpc.Invoke[SyncPartResp](ctx, sy.s.bus, sy.s.node, replica, MethodSyncPart, req); perr != nil {
			return perr
		}
	}
	return nil
}

// handleSyncPart applies a per-partition replication push on a replica.
func (s *Server) handleSyncPart(_ context.Context, _ netsim.NodeID, r SyncPartReq) (any, error) {
	// Install replicated object data before exposing the membership that
	// lists it, so a reader landing between the two finds the data.
	for i := range r.Objects {
		s.store.InstallObject(r.Objects[i])
	}
	applied := s.store.ApplySyncPart(r.Name, r.Partitions, r.Part, r.Members, r.Version)
	if applied {
		s.lastSync.Store(r.Name, time.Now())
	}
	return SyncPartResp{Applied: applied}, nil
}

// handleSyncDigest reports this node's anti-entropy digest for one
// collection: the per-partition version vector plus how long ago the
// home last pushed here (AgeMs; -1 when it never has — on the home
// itself, or a replica that has never been synced).
func (s *Server) handleSyncDigest(_ context.Context, _ netsim.NodeID, r DigestReq) (any, error) {
	vers, err := s.store.PartVersions(r.Name)
	if err != nil {
		return nil, err
	}
	age := int64(-1)
	if at, ok := s.lastSync.Load(r.Name); ok {
		age = time.Since(at.(time.Time)).Milliseconds()
	}
	return DigestResp{Partitions: len(vers), Versions: vers, AgeMs: age}, nil
}
