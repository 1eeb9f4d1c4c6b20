package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"weaksets/internal/netsim"
	"weaksets/internal/obs"
	"weaksets/internal/repo"
)

// This file is the one element path behind both iterator flavours: the
// closest-first ordering heuristic (§1.1, "fetching 'closer' files
// first") and per-node batch grouping, which the Iterator's
// bounded-concurrency prefetcher and DynSet's fetchers both plan with —
// an element only ever crosses the wire in a GetBatch. Batching is a
// transport optimisation only — every yield is still decided by the spec
// kernel against a freshly observed pre-state, so the Fig. 3–6 semantics
// are untouched.

// FetchOptions tunes the Iterator's batched fetch path.
type FetchOptions struct {
	// Batch caps how many ids ride in one GetBatch RPC. Defaults to 64.
	Batch int
	// Inflight bounds concurrent batch RPCs. Defaults to 4.
	Inflight int
}

// WithDefaults resolves the zero values to the effective defaults.
func (o FetchOptions) WithDefaults() FetchOptions {
	if o.Batch <= 0 {
		o.Batch = 64
	}
	if o.Inflight <= 0 {
		o.Inflight = 4
	}
	return o
}

// sortForFetch orders refs for fetching: ascending estimated round-trip
// time (closest first) or listing (ID) order. Ties break on ID so the
// order is deterministic for a fixed network.
func sortForFetch(client *repo.Client, refs []repo.Ref, order FetchOrder) {
	switch order {
	case OrderListing:
		sort.Slice(refs, func(i, j int) bool { return refs[i].ID < refs[j].ID })
	default:
		sort.Slice(refs, func(i, j int) bool {
			ri, rj := client.EstimateRTT(refs[i]), client.EstimateRTT(refs[j])
			if ri != rj {
				return ri < rj
			}
			return refs[i].ID < refs[j].ID
		})
	}
}

// chunkByNode splits fetch-ordered refs into per-node batches of at most
// size ids, in first-appearance order — so the closest node's batch is
// first and launches first. Each chunk is allocated once, at size or the
// refs left when it opens; a node's open chunk is found by a scan, as
// nodes are few.
func chunkByNode(refs []repo.Ref, size int) [][]repo.Ref {
	var chunks [][]repo.Ref
	var open []int // the chunk each node is filling, in chunks
	for k, ref := range refs {
		o := 0
		for o < len(open) && chunks[open[o]][0].Node != ref.Node {
			o++
		}
		if o == len(open) {
			open = append(open, 0)
		} else if len(chunks[open[o]]) < size {
			chunks[open[o]] = append(chunks[open[o]], ref)
			continue
		}
		open[o] = len(chunks)
		chunks = append(chunks, append(make([]repo.Ref, 0, min(size, len(refs)-k)), ref))
	}
	return chunks
}

// fetchResult is one prefetched object, stamped with the client's mutation
// epoch at the moment the batch was issued.
type fetchResult struct {
	obj     repo.Object
	missing bool
	err     error
	epoch   uint64
}

// fetchChunk is one per-node batch, its refs and their ids, plus the cache
// context it was planned under: the known versions to validate and the
// listing version that stamps installed results.
type fetchChunk struct {
	refs    []repo.Ref
	ids     []repo.ObjectID
	known   map[repo.ObjectID]uint64
	listVer uint64
}

// prefetcher overlaps an Iterator's element fetches: the candidates the
// kernel could yield are grouped into per-node batches, issued
// closest-first under a bounded in-flight budget, and parked in a ready
// map until the kernel actually asks for them. What the shared element
// cache may serve with no round trip is never planned or parked: it is
// served when the kernel asks for it (fetch).
//
// Two properties keep it semantics-preserving:
//
//   - every yield is still re-validated by Step against a fresh pre-state,
//     so a prefetched object whose node has since partitioned is never
//     yielded under pessimistic semantics;
//   - results carry the client's mutation epoch; a result fetched before
//     this client's own later mutation is discarded and refetched,
//     preserving read-your-writes (a member the client itself deleted
//     still surfaces as the Fig. 4 stale-yield anomaly, never as live
//     cached data). A cache serve needs no epoch: it happens at yield, and
//     the client keeps the cache coherent with its own writes.
type prefetcher struct {
	client *repo.Client
	batch  int
	tracer *obs.Tracer
	// router redirects batches aimed at a replicated node to the closest
	// live replica (anti-entropy copies its objects there), hedging back
	// to the owner on failure or a replica miss; tally accounts those
	// serves for the run's weakness report.
	router *replicaRouter
	tally  *replicaTally

	// cache is the client's shared element cache, read through as
	// collection coll; nil means the cache is off and every batch ships
	// full payloads.
	cache *repo.Cache
	coll  string

	// epochRetries counts results discarded for read-your-writes: the
	// iterator folds it into the run's weakness report on close.
	epochRetries atomic.Int64
	// cacheHits / cacheValidated count this run's no-RPC serves and
	// NotModified serves for the weakness report.
	cacheHits      atomic.Int64
	cacheValidated atomic.Int64

	// ctx outlives individual Next calls so batches pipeline across
	// yields; close cancels it and waits out the workers.
	ctx    context.Context
	cancel context.CancelFunc
	sem    chan struct{}
	wg     sync.WaitGroup

	mu sync.Mutex
	// ready is made by the first plan, sized for Inflight batches: a run
	// that never plans (a warm one) never pays for it.
	ready   map[repo.ObjectID]fetchResult
	pending map[repo.ObjectID]bool
	// need is planLocked's scratch: the candidates one replan must fetch,
	// copied into their chunks (chunkByNode) before the next overwrites it.
	need []repo.Ref
	// plans counts replans: what the warm-path guard reads.
	plans int
	// want/wantCh is the single waiter: Iterator is a single-caller
	// control abstraction, so at most one fetch blocks at a time.
	want   repo.ObjectID
	wantCh chan fetchResult
}

// newPrefetcher builds the pipeline for a run over collection coll. base
// carries the run's trace context (or is plain Background for an untraced
// run), so batches issued between Next calls still belong to the run's
// trace.
func newPrefetcher(base context.Context, client *repo.Client, coll string, router *replicaRouter, tally *replicaTally, o FetchOptions, tracer *obs.Tracer) *prefetcher {
	ctx, cancel := context.WithCancel(base)
	return &prefetcher{
		client:  client,
		batch:   o.Batch,
		tracer:  tracer,
		router:  router,
		tally:   tally,
		cache:   client.ElementCache(),
		coll:    coll,
		ctx:     ctx,
		cancel:  cancel,
		sem:     make(chan struct{}, o.Inflight),
		pending: make(map[repo.ObjectID]bool),
	}
}

// errMissing marks an id the holding node had no data for; it unwraps to
// repo.ErrNotFound so the iterator's stale/skip handling applies.
func errMissing(id repo.ObjectID) error {
	return fmt.Errorf("prefetch %q: %w", id, repo.ErrNotFound)
}

// fetch returns ref's object. It looks in three places, in order: a
// result a batch already parked in ready; the cache, when direct — the
// invocation's certificate (Iterator.observe) that an entry fresh under
// the held listing's version listVer is exactly what the owner would
// ship; otherwise it replans, batching ref with the other candidates the
// kernel could yield next, and blocks until ref's batch lands while other
// batches keep filling ready. A transport error is returned once per
// failed round trip, not once per batched id. candidates is consulted
// only on a replan, so a warm run builds no window at all.
func (p *prefetcher) fetch(ctx context.Context, ref repo.Ref, listVer uint64, direct bool, candidates func() []repo.Ref) (repo.Object, error) {
	direct = direct && p.cache != nil
	for {
		p.mu.Lock()
		res, ok := p.ready[ref.ID]
		if ok {
			delete(p.ready, ref.ID)
			p.mu.Unlock()
		} else {
			if !p.pending[ref.ID] {
				if direct {
					if obj, negative, ok := p.cache.ServeFresh(p.coll, listVer, ref.ID); ok {
						p.mu.Unlock()
						p.cacheHits.Add(1)
						if negative {
							return repo.Object{}, errMissing(ref.ID)
						}
						return obj, nil
					}
				}
				// Replan only when ref's batch is not already in flight:
				// replanning on an in-flight miss would launch fragmentary
				// top-up batches for the few candidates the advancing window
				// has newly exposed.
				p.planLocked(candidates(), listVer, direct)
				if !p.pending[ref.ID] {
					// Nothing was launched for ref: the pipeline is closed, or
					// ref turned fresh in the cache since the serve above
					// (another run's batch landed) and the next pass serves it.
					p.mu.Unlock()
					if err := p.ctx.Err(); err != nil {
						return repo.Object{}, err
					}
					continue
				}
			}
			ch := make(chan fetchResult, 1)
			p.want, p.wantCh = ref.ID, ch
			p.mu.Unlock()

			select {
			case res = <-ch:
			case <-ctx.Done():
				p.mu.Lock()
				p.want, p.wantCh = "", nil
				p.mu.Unlock()
				return repo.Object{}, ctx.Err()
			}
		}
		switch {
		case res.epoch != p.client.Mutations():
			p.epochRetries.Add(1) // fetched before our own mutation: refetch
		case res.err != nil:
			return repo.Object{}, res.err
		case res.missing:
			return repo.Object{}, errMissing(ref.ID)
		default:
			return res.obj, nil
		}
	}
}

// planLocked launches batches for every candidate that is neither ready
// nor already in flight nor, when direct (which fetch leaves set only
// with a cache bound), fresh in the cache: fetch serves that one when the
// kernel asks for it, and the probe that leaves it out counts no hit, so
// a partly evicted warm run fetches exactly its evicted ids. With a cache
// bound the chunks carry the known versions for a conditional fetch, and
// listVer stamps what they install. Caller holds p.mu.
func (p *prefetcher) planLocked(candidates []repo.Ref, listVer uint64, direct bool) {
	if p.ctx.Err() != nil {
		return
	}
	p.plans++
	if cap(p.need) < len(candidates) {
		p.need = make([]repo.Ref, 0, len(candidates))
	}
	need := p.need[:0]
	for _, ref := range candidates {
		if p.pending[ref.ID] {
			continue
		}
		if _, ok := p.ready[ref.ID]; ok {
			continue
		}
		if direct && p.cache.Fresh(p.coll, listVer, ref.ID) {
			continue
		}
		need = append(need, ref)
	}
	if len(need) == 0 {
		return
	}
	if p.ready == nil {
		p.ready = make(map[repo.ObjectID]fetchResult, p.batch*cap(p.sem))
	}
	sortForFetch(p.client, need, OrderClosestFirst)
	ids := make([]repo.ObjectID, len(need)) // every chunk's ids, cut from one slice
	for _, refs := range chunkByNode(need, p.batch) {
		ch := fetchChunk{refs: refs, ids: ids[:len(refs):len(refs)], listVer: listVer}
		ids = ids[len(refs):]
		if p.cache != nil {
			for _, ref := range refs {
				if v, ok := p.cache.Version(ref.ID); ok {
					if ch.known == nil {
						ch.known = make(map[repo.ObjectID]uint64, len(refs))
					}
					ch.known[ref.ID] = v
				}
			}
		}
		for i, ref := range refs {
			ch.ids[i] = ref.ID
			p.pending[ref.ID] = true
		}
		p.wg.Add(1)
		go p.run(ch)
	}
}

// run issues one per-node batch and routes the results: the single waiter
// gets its result directly, everything else parks in ready. A transport
// failure is delivered only to the waiter — the ids are simply cleared
// from pending so a later fetch re-batches them — which is what makes a
// failed batch count once per round trip in the iterator's liveness
// accounting.
func (p *prefetcher) run(ch fetchChunk) {
	defer p.wg.Done()
	select {
	case p.sem <- struct{}{}:
		defer func() { <-p.sem }()
	case <-p.ctx.Done():
		p.deliver(ch.refs, nil, p.ctx.Err(), p.client.Mutations())
		return
	}
	epoch := p.client.Mutations()
	bctx, span := p.tracer.StartSpan(p.ctx, "fetch.batch")
	span.SetAttr("node", string(ch.refs[0].Node))
	span.SetInt("ids", int64(len(ch.ids)))
	span.SetInt("known", int64(len(ch.known)))
	var (
		objs []repo.Object
		err  error
	)
	if p.cache != nil {
		// Conditional batches stay owner-routed: a replica's object
		// versions can lag the client's known versions, and a conditional
		// answer is only meaningful against the version authority.
		objs, err = p.fetchValidated(bctx, ch)
	} else {
		objs, err = p.fetchPlain(bctx, ch.refs[0].Node, ch.ids)
	}
	if span != nil {
		if err != nil {
			span.SetAttr("error", err.Error())
		}
		span.End()
	}
	p.deliver(ch.refs, objs, err, epoch)
}

// fetchPlain issues one unconditional batch, routed to the closest live
// replica when the owner's objects are replicated there. A replica may
// legally lack some of the objects (anti-entropy lag) or die mid-flight;
// both hedge back to the owner, so replica routing never loses data,
// only freshness — which is accounted as ReplicaServed/GhostAge.
func (p *prefetcher) fetchPlain(ctx context.Context, owner netsim.NodeID, ids []repo.ObjectID) ([]repo.Object, error) {
	if target, ok := p.router.routeBatch(ctx, owner); ok && target.node != owner {
		hctx, cancel := context.WithTimeout(ctx, p.router.cfg.HedgeTimeout)
		objs, missing, err := p.client.GetBatch(hctx, target.node, ids)
		cancel()
		if err == nil {
			p.tally.note(target, 0)
			if len(missing) > 0 {
				// The replica has not synced these objects yet: detour to
				// the owner for just the gap. Whatever the owner also lacks
				// is then a genuinely missing object, reported as such.
				more, _, merr := p.client.GetBatch(ctx, owner, missing)
				if merr != nil {
					return nil, merr
				}
				objs = mergeByPosition(ids, objs, more)
			}
			return objs, nil
		}
		// The replica died or timed out under the batch: hedge to the
		// owner and stop routing to it until the next probe.
		p.router.markDead(target.node)
	}
	objs, _, err := p.client.GetBatch(ctx, owner, ids)
	return objs, err
}

// mergeByPosition merges two answers to disjoint parts of the request
// ids, each in request order, into one answer in request order.
func mergeByPosition(ids []repo.ObjectID, a, b []repo.Object) []repo.Object {
	out := make([]repo.Object, 0, len(a)+len(b))
	for _, id := range ids {
		switch {
		case len(a) > 0 && a[0].ID == id:
			out, a = append(out, a[0]), a[1:]
		case len(b) > 0 && b[0].ID == id:
			out, b = append(out, b[0]), b[1:]
		}
	}
	return out
}

// batchFlight is the shared result of one coalesced conditional batch.
type batchFlight struct {
	objs        []repo.Object
	notModified []repo.ObjectID
	err         error
}

// flightKey identifies a conditional batch for singleflight coalescing:
// node, ids (in deterministic fetch order) and the known versions fully
// determine the response, so concurrent iterators planning the same
// chunk share one round trip.
func flightKey(node netsim.NodeID, refs []repo.Ref, known map[repo.ObjectID]uint64) string {
	var b strings.Builder
	b.WriteString("batch|")
	b.WriteString(string(node))
	for _, ref := range refs {
		b.WriteByte('|')
		b.WriteString(string(ref.ID))
		if v, ok := known[ref.ID]; ok {
			b.WriteByte('=')
			b.WriteString(strconv.FormatUint(v, 10))
		}
	}
	return b.String()
}

// fetchValidated issues one conditional batch through the cache's
// singleflight group: full objects ship only for ids whose version
// moved, NotModified ids serve from cache, and missing ids are cached
// negatively. The leader installs results; every caller (leader and
// joiners) assembles its own answer, in request order, so deliver sees
// one coherent answer per chunk.
func (p *prefetcher) fetchValidated(ctx context.Context, ch fetchChunk) ([]repo.Object, error) {
	node := ch.refs[0].Node
	v, _ := p.cache.Do(flightKey(node, ch.refs, ch.known), func() any {
		objs, notModified, missing, err := p.client.GetBatchValidated(ctx, node, ch.ids, ch.known)
		if err != nil {
			return &batchFlight{err: err}
		}
		for _, obj := range objs {
			p.cache.PutValidated(p.coll, ch.listVer, obj)
		}
		for _, id := range missing {
			p.cache.PutNegative(p.coll, ch.listVer, id)
		}
		return &batchFlight{objs: objs, notModified: notModified}
	})
	res := v.(*batchFlight)
	if res.err != nil {
		return nil, res.err
	}
	// The flight's objects are shared by every iterator that joined it:
	// yielded Data and Attrs are read-only views (Element).
	if len(res.notModified) == 0 {
		return res.objs, nil
	}
	var validated []repo.Object
	var evicted []repo.ObjectID
	for _, id := range res.notModified {
		if obj, ok := p.cache.MarkValidated(p.coll, ch.listVer, id); ok {
			validated = append(validated, obj)
			p.cacheValidated.Add(1)
		} else {
			evicted = append(evicted, id)
		}
	}
	out := mergeByPosition(ch.ids, res.objs, validated)
	if len(evicted) > 0 {
		// The entry vanished between planning and the NotModified answer
		// (eviction race): refetch those ids unconditionally.
		objs, _, err := p.client.GetBatch(ctx, node, evicted)
		if err != nil {
			return nil, err
		}
		for _, obj := range objs {
			p.cache.PutValidated(p.coll, ch.listVer, obj)
		}
		out = mergeByPosition(ch.ids, out, objs)
	}
	return out, nil
}

// deliver routes one batch's answer, objs in the order of chunk's refs,
// matching the two by position.
func (p *prefetcher) deliver(chunk []repo.Ref, objs []repo.Object, err error, epoch uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ref := range chunk {
		delete(p.pending, ref.ID)
		res := fetchResult{err: err, epoch: epoch}
		if err == nil {
			if len(objs) > 0 && objs[0].ID == ref.ID {
				res, objs = fetchResult{obj: objs[0], epoch: epoch}, objs[1:]
			} else {
				res = fetchResult{missing: true, epoch: epoch}
			}
		}
		if p.wantCh != nil && p.want == ref.ID {
			p.wantCh <- res
			p.want, p.wantCh = "", nil
			continue
		}
		if err == nil {
			p.ready[ref.ID] = res
		}
	}
}

// close cancels in-flight batches and waits for the workers to exit.
func (p *prefetcher) close() {
	p.cancel()
	p.wg.Wait()
}
