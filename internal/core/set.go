package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"weaksets/internal/locksvc"
	"weaksets/internal/netsim"
	"weaksets/internal/obs"
	"weaksets/internal/repo"
	"weaksets/internal/store"
)

// Element is one yielded member of a weak set: its repository location and
// the object state fetched for it. Data and Attrs are read-only views: a
// yield served from the element cache hands out the cache entry's own
// bytes and map, shared with the cache and with every other run served
// from it, and a fetched one the batch answer's, which is the store's own
// object on the in-process bus. A caller that wants to modify them copies
// first.
type Element struct {
	Ref   repo.Ref
	Data  []byte
	Attrs map[string]string
	// Stale marks an element whose membership was observed (e.g. in a
	// pinned snapshot) but whose object data had already been deleted when
	// fetched — the Fig. 4 "you may see elements that have been removed"
	// case.
	Stale bool
}

// ID returns the element's object ID.
func (e Element) ID() repo.ObjectID { return e.Ref.ID }

// Options configures a weak set.
type Options struct {
	// Semantics selects the design-space point. Required.
	Semantics Semantics
	// LockServer is the node running the lock service; required for
	// ImmutablePerRun.
	LockServer netsim.NodeID
	// LockTTL bounds how long a run's read lease survives a vanished
	// client. Defaults to 5s virtual.
	LockTTL time.Duration
	// BlockRetry is the optimistic iterator's poll interval while waiting
	// for a repair. Defaults to 20ms virtual.
	BlockRetry time.Duration
	// MaxBlock bounds the total time an optimistic iterator will block
	// waiting for repairs before giving up with ErrBlocked. Zero means
	// block until the context is cancelled (the paper's semantics).
	MaxBlock time.Duration
	// Fetch tunes the batched, pipelined element-fetch path. The zero
	// value batches with the defaults; Batch: 1, Inflight: 1 is one element
	// per round trip.
	Fetch FetchOptions
	// Replicas, when configured with the collection's replica set (home
	// node first), routes reads to the closest live replica and scatters
	// snapshot-opening listings across all of them — the replica-parallel
	// read path. Staleness served from a lagging replica is accounted in
	// the run's WeaknessReport (ReplicaSkew, GhostAge), never hidden.
	Replicas ReplicaConfig
	// Tracer, when set, records a span trace of each Elements run
	// (subject to the tracer's sampling knob): the run itself, its
	// membership reads, fetch batches, and — through context propagation
	// — every RPC and store operation underneath, across processes.
	Tracer *obs.Tracer
	// Weakness, when set, receives each run's weakness report when the
	// iterator closes, aggregated per collection.
	Weakness *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.LockTTL == 0 {
		o.LockTTL = 5 * time.Second
	}
	if o.BlockRetry == 0 {
		o.BlockRetry = 20 * time.Millisecond
	}
	o.Fetch = o.Fetch.WithDefaults()
	return o
}

var iterSeq atomic.Int64

// listing is one whole observed membership of the collection: the
// partitions the listing RPC delivered, each ascending by id, with their
// version vector (the next read's gate, and the stamps a run serves the
// element cache under), and the distinct nodes holding them. version is
// the vector's max, the collection version. Its membership is immutable —
// runs (runTable.adopt) and Set.lastListing alias it and its partitions
// freely, each run keeping its own cursor over them.
//
// handles, made when the listing is read with an element cache bound
// (cache), holds a repo.Handle per member, parallel to parts: what runs
// over the listing share to serve a member's cache entry by position. A
// handle is bound lazily, by the first serve by id or the batch install
// that makes its entry fresh under the partition's stamp, never by a
// pass at open.
type listing struct {
	version uint64
	parts   [][]repo.Ref
	vers    []uint64
	nodes   map[netsim.NodeID]bool
	handles [][]repo.Handle
	cache   *repo.Cache
}

// stamp is the cache stamp of partition part of the listing: its version
// in the listing's layout. A nil listing — a stream not yet sealed — has
// none, and the zero stamp serves nothing.
func (l *listing) stamp(part int32) repo.Stamp {
	if l == nil || int(part) >= len(l.vers) {
		return repo.Stamp{}
	}
	return repo.Stamp{Ver: l.vers[part], Part: part, Parts: int32(len(l.vers))}
}

// handle returns the listing's handle on member at of partition part,
// nil when it has none on cache.
func (l *listing) handle(cache *repo.Cache, part, at int32) *repo.Handle {
	if l == nil || l.cache != cache || int(part) >= len(l.handles) || int(at) >= len(l.handles[part]) {
		return nil
	}
	return &l.handles[part][at]
}

// with returns the listing a gated read's frames make of l: l itself
// when no partition moved, else l with the moved partitions replaced and
// the others shared, their handles too when l's are on cache — or the
// frames alone when their layout is not l's, since a gate vector of
// another length ships every partition. With cache bound, every
// partition not shared gets fresh handles. The frames come from outside
// the program, so they are checked here, as fold checks a snapshot's.
func (l *listing) with(frames []repo.PartListing, cache *repo.Cache) (*listing, error) {
	if len(frames) == 0 {
		return l, nil
	}
	total := frames[0].Partitions
	same := l != nil && len(l.vers) == total
	if !same && len(frames) != total {
		return nil, fmt.Errorf("listing of %d partitions in %d frames: another layout ships every partition", total, len(frames))
	}
	parts, vers := make([][]repo.Ref, total), make([]uint64, total)
	var handles [][]repo.Handle
	if cache != nil {
		handles = make([][]repo.Handle, total)
	}
	if same {
		copy(parts, l.parts)
		copy(vers, l.vers)
		if cache != nil && l.cache == cache {
			copy(handles, l.handles)
		}
	}
	for _, pl := range frames {
		if pl.Partitions != total || pl.Part < 0 || pl.Part >= total {
			return nil, fmt.Errorf("listing frame for partition %d of %d in a stream of %d", pl.Part, pl.Partitions, total)
		}
		parts[pl.Part], vers[pl.Part] = pl.Members, pl.Version
	}
	next := &listing{version: slices.Max(vers), parts: parts, vers: vers, nodes: make(map[netsim.NodeID]bool, 8), handles: handles, cache: cache}
	for p, refs := range parts {
		if same && sameRefs(refs, l.parts[p]) {
			noteNodes(next.nodes, refs) // l admitted them
			if handles != nil && handles[p] != nil {
				continue
			}
		} else {
			parts[p] = admit(next.nodes, refs)
		}
		if handles != nil {
			handles[p] = make([]repo.Handle, len(parts[p]))
		}
	}
	return next, nil
}

// Set is a weak set bound to a collection in the distributed repository.
// The collection lives on the directory node dir; its members may live
// anywhere. Set is safe for concurrent use; each Elements call produces an
// independent iterator run.
type Set struct {
	client *repo.Client
	dir    netsim.NodeID
	name   string
	opts   Options

	// router is where every run of this set reads membership and routes
	// element batches: over Options.Replicas, or over the directory node
	// alone. Shared, so one probe's liveness/latency observations route
	// many reads.
	router *replicaRouter

	// lastListing carries the last full membership read across runs. A fresh
	// iterator seeded from it opens with a gated ListParts at worst;
	// under a held lease even that round trip is provably redundant, so
	// the run's opening membership costs no RPC at all — and, the listing
	// being immutable, no copy either. Published only when a lease state
	// is attached: without push invalidation a stale cross-run listing
	// would silently widen the staleness window, so the leaseless paths
	// keep their per-run read behaviour untouched.
	lastListing atomic.Pointer[listing]
	// lastPinned is the last pinned listing a snapshot run completed: a
	// pin's partitions, their pinned versions and their merge. A snapshot
	// run opens from it, reading only the partitions whose pinned version
	// it does not hold — none, while no one writes. It is kept apart from
	// lastListing because a listing lists the ghosts of an open grow
	// window, which a pin does not hold, at the same partition versions.
	lastPinned atomic.Pointer[listing]

	// tabAt, tabTaken and tabCands are the run-table buffers the last
	// closed run gave back (giveTable), for the next run to take at open:
	// one run at a time holds them, so two concurrent runs never share
	// them.
	tabMu    sync.Mutex
	tabAt    []partAt
	tabTaken []uint64
	tabCands []member
}

// takeTable hands t the run-table buffers a closed run gave back, if any.
func (s *Set) takeTable(t *runTable) {
	s.tabMu.Lock()
	t.at, t.taken, t.cands = s.tabAt[:0], s.tabTaken[:0], s.tabCands[:0]
	s.tabAt, s.tabTaken, s.tabCands = nil, nil, nil
	s.tabMu.Unlock()
}

// giveTable takes a closed run's run-table buffers back for the next run,
// and leaves t holding no membership. The candidate window is cleared
// first: its stale refs, up to 16 384 of them, would otherwise be marked
// by every GC cycle between runs, which lengthened the cycles enough to
// read in a cold 10k run's time-to-first-element tail.
func (s *Set) giveTable(t *runTable) {
	clear(t.cands[:cap(t.cands)])
	s.tabMu.Lock()
	if cap(t.taken) >= cap(s.tabTaken) {
		s.tabAt, s.tabTaken, s.tabCands = t.at, t.taken, t.cands
	}
	s.tabMu.Unlock()
	t.at, t.taken, t.cands, t.parts = nil, nil, nil, nil
}

// leaseState returns the client's lease state when it watches this set's
// directory, nil otherwise.
func (s *Set) leaseState() *repo.LeaseState {
	ls := s.client.Leases()
	if ls == nil || ls.Dir() != s.dir {
		return nil
	}
	return ls
}

// publishListing retains a freshly read membership for the next run's
// lease-served opening.
func (s *Set) publishListing(l *listing) {
	if s.leaseState() == nil || l.version == 0 {
		return
	}
	publish(&s.lastListing, l)
}

// publish retains l in slot for the next run, unless a newer listing is
// already there.
func publish(slot *atomic.Pointer[listing], l *listing) {
	for {
		cur := slot.Load()
		if cur != nil && cur.version > l.version || slot.CompareAndSwap(cur, l) {
			return
		}
	}
}

// NewSet binds a weak set to collection name on directory node dir, read
// through client.
func NewSet(client *repo.Client, dir netsim.NodeID, name string, opts Options) (*Set, error) {
	if !opts.Semantics.Valid() {
		return nil, fmt.Errorf("weakset %q: invalid semantics %d", name, int(opts.Semantics))
	}
	if opts.Semantics == ImmutablePerRun && opts.LockServer == "" {
		return nil, fmt.Errorf("weakset %q: %s requires a LockServer", name, opts.Semantics)
	}
	return &Set{
		client: client, dir: dir, name: name, opts: opts.withDefaults(),
		router: newReplicaRouter(client, dir, name, opts.Replicas),
	}, nil
}

// Semantics reports the set's design-space point.
func (s *Set) Semantics() Semantics { return s.opts.Semantics }

// Name reports the underlying collection name.
func (s *Set) Name() string { return s.name }

// Dir reports the directory node holding the collection.
func (s *Set) Dir() netsim.NodeID { return s.dir }

// Create creates the underlying collection (the paper's `create`
// procedure).
func (s *Set) Create(ctx context.Context) error {
	return s.client.CreateCollection(ctx, s.dir, s.name)
}

// Add inserts a member (the paper's `add` procedure).
func (s *Set) Add(ctx context.Context, ref repo.Ref) error {
	return s.client.Add(ctx, s.dir, s.name, ref)
}

// Remove removes a member and deletes its object data unless an open
// grow-only window deferred it (the paper's `remove` procedure).
func (s *Set) Remove(ctx context.Context, ref repo.Ref) error {
	return s.client.DeleteMember(ctx, s.dir, s.name, ref)
}

// Size reports the current membership count (the paper's `size`
// procedure): what a listing would hold — members plus the ghosts an
// open grow-only window keeps listed — from the directory's counters, so
// no member crosses the wire. Like everything here it is only as fresh as
// the moment of the RPC.
func (s *Set) Size(ctx context.Context) (int, error) {
	st, err := s.Stats(ctx)
	if err != nil {
		return 0, err
	}
	return st.Members + st.Ghosts, nil
}

// Elements begins a run of the elements iterator (the paper's `elements`
// iterator). Per-semantics setup happens here: ImmutablePerRun acquires the
// run's read lock, Snapshot pins an atomic membership snapshot,
// GrowOnlyPerRun opens the ghost window. The returned iterator must be
// Closed to release those resources. What it yields is read-only: an
// Element's Data and Attrs may be shared with the cache and with other
// runs.
func (s *Set) Elements(ctx context.Context) (*Iterator, error) { return s.elements(ctx, false) }

// elements begins a run; dyn marks a dynamic set's (OpenDyn).
func (s *Set) elements(ctx context.Context, dyn bool) (*Iterator, error) {
	it := &Iterator{
		set:    s,
		client: s.client,
		opts:   s.opts,
		scale:  s.client.Bus().Network().Scale(),
		owner:  fmt.Sprintf("%s-iter-%d", s.client.Node(), iterSeq.Add(1)),
		dyn:    dyn,
	}
	it.wk.Collection = s.name
	it.wk.Semantics = s.opts.Semantics.String()
	if dyn {
		it.wk.Semantics = "dynamic"
	}
	it.startedAt = time.Now()
	_, it.span = s.opts.Tracer.StartRoot(ctx, "elements")
	it.span.SetAttr("collection", s.name)
	it.span.SetAttr("semantics", it.wk.Semantics)
	it.span.SetAttr("node", string(s.client.Node()))
	it.wk.Trace = it.span.TraceID()
	// The prefetcher's background context carries the run's trace, so
	// batches issued between Next calls still join it.
	it.pf = newPrefetcher(it.traceCtx(context.Background()), s.client, s.name, s.router, &it.rep, s.opts.Fetch, s.opts.Tracer)
	if !dyn { // a dynamic run's set is its own, and its table outlives Close (Skipped)
		s.takeTable(&it.tab)
	}
	if err := it.setup(it.traceCtx(ctx)); err != nil {
		werr := fmt.Errorf("%w: open %s elements on %q: %v", ErrFailure, s.opts.Semantics, s.name, err)
		if it.ingCancel != nil {
			it.ingCancel()
		}
		it.release(context.Background())
		it.terminate(werr)
		it.finishObs()
		return nil, werr
	}
	if ls := s.leaseState(); ls != nil && !s.opts.Semantics.UsesSnapshot() {
		// Seed the run from the set's last published listing: the opening
		// membership read becomes a gated ListParts at worst, and no RPC
		// at all while the lease certifies the seeded version.
		if l := s.lastListing.Load(); l != nil {
			it.adopt(l)
		}
		// Queue the collection for lease acquisition; the first runs still
		// revalidate conditionally until the (asynchronous) grant lands.
		ls.Track(s.name)
	}
	return it, nil
}

// Collect runs a full iteration and returns everything yielded. On
// iterator failure it returns the elements yielded so far together with
// the error.
func (s *Set) Collect(ctx context.Context) ([]Element, error) {
	it, err := s.Elements(ctx)
	if err != nil {
		return nil, err
	}
	defer func() { _ = it.Close(context.Background()) }()
	var out []Element
	for it.Next(ctx) {
		out = append(out, it.Element())
	}
	return out, it.Err()
}

// Stats fetches the directory's counters for this set's collection:
// membership size, ghost copies, pinned snapshots, and open grow
// windows — the observability hook behind the E8 ghost accounting.
func (s *Set) Stats(ctx context.Context) (repo.StatsResp, error) {
	return s.client.Stats(ctx, s.dir, s.name)
}

// StoreStats fetches the storage-engine instrumentation of the
// directory node serving this set: per-operation counts and latency
// quantiles from the engine the collection lives in.
func (s *Set) StoreStats(ctx context.Context) (store.EngineStats, error) {
	return s.client.StoreStats(ctx, s.dir)
}

// lockClient builds the per-run lock client for ImmutablePerRun.
func (s *Set) lockClient(owner string) *locksvc.Client {
	return locksvc.NewClient(s.client.Bus(), s.client.Node(), owner)
}
