package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"weaksets/internal/netsim"
	"weaksets/internal/repo"
)

// This file is where every Set reads membership, and the read side of
// collection replication. A replicated collection keeps its writes on
// the home node and anti-entropy pushes membership (and home-resident
// object data) to the replicas, so any replica can serve a read — stale,
// which Figs. 4–6 make legal, as long as the staleness is accounted. An
// unreplicated collection is the one-node replica set: the home alone,
// live by definition, never probed. The router probes every replica with
// an anti-entropy digest (one cheap RPC measuring liveness, round-trip
// time and the replica's per-partition version vector), then:
//
//   - scatters a snapshot-opening partitioned listing across the live
//     replicas, closest first, so the frames stream from N nodes
//     concurrently into one iterator fold;
//   - routes current-state membership reads — the same partitioned
//     listing, gated on the partitions the run holds — and element
//     batches to the closest live replica, hedging back to the next
//     (ultimately the home) on failure or timeout.
//
// Staleness is quantified against the probe's baseline — the elementwise
// max of every live replica's version vector — and surfaced per run as
// WeaknessReport.ReplicaSkew (version steps behind the freshest known
// listing) and GhostAge (how long ago the serving replica last heard
// from the home). It is never hidden.

// ReplicaConfig configures replica-parallel reads for a Set.
type ReplicaConfig struct {
	// Nodes are the nodes holding the collection, home node first (the
	// same set passed to repo.Server.ReplicateCollection). Fewer than two
	// nodes is the unreplicated collection: the Set's directory node is
	// the whole replica set, and reads go to it without a probe.
	Nodes []netsim.NodeID
	// ProbeTTL bounds how long one digest probe's liveness/latency/
	// version observations keep routing reads before they are refreshed.
	// Defaults to 1s.
	ProbeTTL time.Duration
	// HedgeTimeout bounds any single read attempt against a non-home
	// replica; on expiry (or failure) the read hedges to the next live
	// replica and finally the home. Defaults to 250ms.
	HedgeTimeout time.Duration
}

func (r ReplicaConfig) withDefaults() ReplicaConfig {
	if r.ProbeTTL == 0 {
		r.ProbeTTL = time.Second
	}
	if r.HedgeTimeout == 0 {
		r.HedgeTimeout = 250 * time.Millisecond
	}
	return r
}

// replicaProbe is one replica's last observed state: reachability, how
// far away it is, and how far behind the home it was.
type replicaProbe struct {
	node       netsim.NodeID
	home       bool
	live       bool
	rtt        time.Duration
	partitions int
	versions   []uint64
	ageMs      int64
}

// age reports the probe's staleness bound as a duration. The home (and a
// replica the home has never pushed to, AgeMs < 0) is current by
// definition.
func (p replicaProbe) age() time.Duration {
	if p.home || p.ageMs < 0 {
		return 0
	}
	return time.Duration(p.ageMs) * time.Millisecond
}

// replicaTally accumulates one run's replica-served reads — scattered
// listing frames, current-state listings, element batches — for its
// WeaknessReport. Atomics because stream and batch goroutines write it
// and can outlive an abandoned run's Close.
type replicaTally struct {
	skew   atomic.Int64 // version steps behind the freshest known listing
	served atomic.Int64 // reads answered by a non-home replica
	ageMs  atomic.Int64 // max last-sync age of a serving replica: bounds GhostAge
}

// note accounts one read answered by p, skew version steps stale.
func (t *replicaTally) note(p replicaProbe, skew uint64) {
	t.skew.Add(int64(skew))
	if !p.home {
		t.served.Add(1)
		atomicMax(&t.ageMs, int64(p.age()/time.Millisecond))
	}
}

// replicaRouter holds a Set's replica routing state: the config and the
// last probe of every replica. Safe for concurrent use — one Set's
// iterators and prefetchers share it.
type replicaRouter struct {
	client *repo.Client
	name   string
	cfg    ReplicaConfig

	mu       sync.Mutex
	probes   []replicaProbe
	probedAt time.Time
	// probing is non-nil while a refresh is in flight and closed when it
	// lands: callers that find the probe expired wait on it rather than
	// each fanning Digest out to every replica.
	probing chan struct{}

	// rr rotates batch reads among replicas whose probed RTT is within a
	// near-tie of the closest, so symmetric topologies spread load instead
	// of electing one replica the winner for a whole probe interval.
	rr atomic.Uint64
}

// newReplicaRouter routes reads of collection name, homed on dir.
func newReplicaRouter(client *repo.Client, dir netsim.NodeID, name string, cfg ReplicaConfig) *replicaRouter {
	if len(cfg.Nodes) < 2 {
		cfg.Nodes = []netsim.NodeID{dir}
	}
	return &replicaRouter{client: client, name: name, cfg: cfg.withDefaults()}
}

func (rt *replicaRouter) home() netsim.NodeID { return rt.cfg.Nodes[0] }

// probe returns each replica's liveness, RTT and version vector,
// refreshing by concurrent Digest RPCs when the cached observation has
// aged past ProbeTTL — one refresh at a time, whose result every caller
// that arrives meanwhile shares. A replica that errors in any way —
// unreachable, method unknown, collection never synced — is simply not
// live for routing; the home picks up its share.
func (rt *replicaRouter) probe(ctx context.Context) []replicaProbe {
	if len(rt.cfg.Nodes) == 1 {
		// The home alone: nothing to rank, and a dead home fails the read
		// itself, so there is nothing a Digest could tell.
		return []replicaProbe{{node: rt.home(), home: true, live: true}}
	}
	rt.mu.Lock()
	for {
		if rt.probes != nil && time.Since(rt.probedAt) < rt.cfg.ProbeTTL {
			out := append([]replicaProbe(nil), rt.probes...)
			rt.mu.Unlock()
			return out
		}
		if rt.probing == nil {
			break
		}
		landed := rt.probing
		rt.mu.Unlock()
		select {
		case <-landed:
		case <-ctx.Done():
			return nil // callers fall back to the home, where ctx fails the read
		}
		rt.mu.Lock()
	}
	landed := make(chan struct{})
	rt.probing = landed
	rt.mu.Unlock()

	probes := make([]replicaProbe, len(rt.cfg.Nodes))
	var wg sync.WaitGroup
	for i, node := range rt.cfg.Nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, rt.cfg.HedgeTimeout)
			defer cancel()
			start := time.Now()
			d, err := rt.client.Digest(pctx, node, rt.name)
			probes[i] = replicaProbe{node: node, home: i == 0, rtt: time.Since(start)}
			if err == nil {
				probes[i].live = true
				probes[i].partitions = d.Partitions
				probes[i].versions = d.Versions
				probes[i].ageMs = d.AgeMs
			}
		}()
	}
	wg.Wait()

	rt.mu.Lock()
	if ctx.Err() == nil {
		// A refresh cut short by its caller's context saw every replica
		// dead; it is not published, and the next caller probes afresh.
		rt.probes = append([]replicaProbe(nil), probes...)
		rt.probedAt = time.Now()
	}
	rt.probing = nil
	rt.mu.Unlock()
	close(landed)
	return probes
}

// markDead drops a replica from routing until the next probe refresh —
// the hedge's memory, so one dead replica costs one timeout, not one per
// read.
func (rt *replicaRouter) markDead(node netsim.NodeID) {
	rt.mu.Lock()
	for i := range rt.probes {
		if rt.probes[i].node == node {
			rt.probes[i].live = false
		}
	}
	rt.mu.Unlock()
}

// liveByRTT filters to the live replicas, closest first (ties broken by
// node id for determinism).
func liveByRTT(probes []replicaProbe) []replicaProbe {
	out := make([]replicaProbe, 0, len(probes))
	for _, p := range probes {
		if p.live {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].rtt != out[j].rtt {
			return out[i].rtt < out[j].rtt
		}
		return out[i].node < out[j].node
	})
	return out
}

// baselineVec is the freshest known per-partition version vector: the
// elementwise max over every live replica. ReplicaSkew is measured
// against it — how many version steps behind the best available view
// this run's served frames were.
func baselineVec(probes []replicaProbe, partitions int) []uint64 {
	base := make([]uint64, partitions)
	for _, p := range probes {
		if !p.live {
			continue
		}
		for i, v := range p.versions {
			if i < partitions && v > base[i] {
				base[i] = v
			}
		}
	}
	return base
}

// atomicMax raises a to at least v.
func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// nearTieRotate rotates the leading group of near-tie replicas (RTT
// within 2x of the closest) by the router's round-robin counter, so
// symmetric topologies spread successive reads across the tied group
// instead of electing one winner for a whole probe interval. Farther
// replicas keep their place — they still only serve as hedges.
func (rt *replicaRouter) nearTieRotate(live []replicaProbe) []replicaProbe {
	ties := 1
	for ties < len(live) && live[ties].rtt <= 2*live[0].rtt {
		ties++
	}
	if ties < 2 {
		return live
	}
	rot := int(rt.rr.Add(1) % uint64(ties))
	out := make([]replicaProbe, 0, len(live))
	out = append(out, live[rot:ties]...)
	out = append(out, live[:rot]...)
	return append(out, live[ties:]...)
}

// relist serves one current-state membership read, a ListParts gated on
// held's version vector, from the closest live replica in held's layout
// (which ships only partitions newer than held's, never moving one
// backwards), hedging to the next and to the home as the last resort. It
// returns held itself when nothing moved. Each served frame is noted in
// tally against the probe's baseline, as scatter does; an empty answer
// is noted as the certification its replica served.
func (rt *replicaRouter) relist(ctx context.Context, held *listing, cache *repo.Cache, tally *replicaTally) (*listing, error) {
	var gates []uint64
	if held != nil {
		gates = held.vers
	}
	// The home closes the order, probed live or not: the final hedge, with
	// no timeout, whose answer is the read's (alone, it is never probed).
	order := []replicaProbe{{node: rt.home(), home: true}}
	var probes []replicaProbe
	if len(rt.cfg.Nodes) > 1 {
		probes = rt.probe(ctx)
		live := slices.DeleteFunc(liveByRTT(probes), func(p replicaProbe) bool { return held != nil && p.partitions != len(held.vers) })
		order = append(rt.nearTieRotate(live), order[0])
	}
	var frames []repo.PartListing
	for i := 0; ; i++ {
		from := order[i]
		rctx, cancel := ctx, context.CancelFunc(func() {})
		if !from.home {
			rctx, cancel = context.WithTimeout(ctx, rt.cfg.HedgeTimeout)
		}
		frames = frames[:0] // a failed attempt's frames are not the answer
		err := rt.client.ListPartsSubset(rctx, from.node, rt.name, 0, gates, nil, func(pl repo.PartListing) error {
			frames = append(frames, pl)
			return nil
		})
		cancel()
		if err != nil && !from.home {
			rt.markDead(from.node)
			continue
		}
		l := held
		if err == nil {
			l, err = held.with(frames, cache)
		}
		if err != nil {
			return l, err
		}
		if len(frames) == 0 {
			tally.note(from, 0)
			return l, nil
		}
		base := baselineVec(probes, len(l.vers))
		for _, pl := range frames {
			tally.note(from, base[pl.Part]-min(base[pl.Part], pl.Version))
		}
		return l, nil
	}
}

// routeBatch picks the node to serve a GetBatch aimed at owner: the
// closest live replica when owner is one of the collection's replica
// set (its objects are replicated by anti-entropy), owner itself
// otherwise. The returned probe carries the staleness bound to account.
func (rt *replicaRouter) routeBatch(ctx context.Context, owner netsim.NodeID) (replicaProbe, bool) {
	replicated := false
	for _, n := range rt.cfg.Nodes {
		if n == owner {
			replicated = true
			break
		}
	}
	if !replicated {
		return replicaProbe{}, false
	}
	live := liveByRTT(rt.probe(ctx))
	if len(live) == 0 {
		return replicaProbe{}, false
	}
	return rt.nearTieRotate(live)[0], true
}

// scatter streams the collection's opening listing into ing, from every
// live replica concurrently: partitions are dealt round-robin across the
// live replicas closest-first, each replica streams its share, and a
// replica dying mid-stream has its undelivered partitions reassigned to
// the survivors (the home last). A pinned run (pin != 0) streams from the
// home alone — pins are primary-resident. Staleness accounting rides on
// ing's tally, which the iterator folds into the run's WeaknessReport.
func (rt *replicaRouter) scatter(ctx context.Context, pin int64, ing *partIngest) error {
	home := rt.home()
	var probes []replicaProbe
	if pin == 0 {
		probes = rt.probe(ctx)
	}
	live := liveByRTT(probes)

	// The home's partition layout governs; without the home, the freshest
	// live replica's does. Replicas on a different layout would serve a
	// different split, so they sit this read out.
	partitions := 0
	for _, p := range live {
		if p.home {
			partitions = p.partitions
			break
		}
	}
	if partitions == 0 {
		for _, p := range live {
			if p.partitions > partitions {
				partitions = p.partitions
			}
		}
	}
	if partitions == 0 {
		// No replica to deal partitions to: a pinned run, the home alone
		// (never probed for its layout), or no live replica that knows
		// the collection — where streaming from the home lets the real
		// error (unreachable, no such collection) surface.
		return rt.client.ListPartsSubset(ctx, home, rt.name, pin, nil, nil, func(pl repo.PartListing) error {
			ing.push(pl)
			return ctx.Err()
		})
	}
	servers := make([]replicaProbe, 0, len(live))
	for _, p := range live {
		if p.partitions == partitions {
			servers = append(servers, p)
		}
	}
	base := baselineVec(probes, partitions)

	var (
		mu        sync.Mutex
		delivered = make([]bool, partitions)
		firstErr  error
	)
	pushFrom := func(p replicaProbe) func(repo.PartListing) error {
		return func(pl repo.PartListing) error {
			var skew uint64
			if pl.Part >= 0 && pl.Part < partitions {
				mu.Lock()
				dup := delivered[pl.Part]
				delivered[pl.Part] = true
				mu.Unlock()
				if dup {
					return ctx.Err() // a retry re-served it; keep the first
				}
				if base[pl.Part] > pl.Version {
					skew = base[pl.Part] - pl.Version
				}
			}
			ing.tally.note(p, skew)
			ing.push(pl)
			return ctx.Err()
		}
	}

	// First wave: every server streams its share concurrently.
	assign := make(map[netsim.NodeID][]int, len(servers))
	for part := 0; part < partitions; part++ {
		p := servers[part%len(servers)]
		assign[p.node] = append(assign[p.node], part)
	}
	var wg sync.WaitGroup
	for _, p := range servers {
		parts := assign[p.node]
		if len(parts) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := rt.client.ListPartsSubset(ctx, p.node, rt.name, 0, nil, parts, pushFrom(p)); err != nil {
				rt.markDead(p.node)
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	// Reassign whatever a dead replica left undelivered: each surviving
	// server in turn, the home as the final fallback.
	missing := func() []int {
		mu.Lock()
		defer mu.Unlock()
		var out []int
		for part, ok := range delivered {
			if !ok {
				out = append(out, part)
			}
		}
		return out
	}
	retries := servers
	haveHome := false
	for _, p := range retries {
		if p.home {
			haveHome = true
		}
	}
	if !haveHome {
		retries = append(retries, replicaProbe{node: home, home: true, partitions: partitions})
	}
	for _, p := range retries {
		rest := missing()
		if len(rest) == 0 {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		_ = rt.client.ListPartsSubset(ctx, p.node, rt.name, 0, nil, rest, pushFrom(p))
	}
	if rest := missing(); len(rest) > 0 {
		if firstErr == nil {
			firstErr = fmt.Errorf("replicas %v: %d partitions undeliverable", rt.cfg.Nodes, len(rest))
		}
		return firstErr
	}
	return nil
}
