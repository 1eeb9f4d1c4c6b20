package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"weaksets/internal/netsim"
	"weaksets/internal/obs"
	"weaksets/internal/repo"
	"weaksets/internal/sim"
)

// FetchOrder selects how a dynamic set orders its prefetches.
type FetchOrder int

// Fetch orders. ClosestFirst is the paper's heuristic ("fetching 'closer'
// files first", §1.1) and the useful default, so it is the zero value.
const (
	// OrderClosestFirst fetches members in ascending estimated round-trip
	// time.
	OrderClosestFirst FetchOrder = iota
	// OrderListing fetches members in listing (ID) order.
	OrderListing
)

// DynOptions configures a dynamic set.
type DynOptions struct {
	// Width is the number of parallel fetchers. Defaults to 4.
	Width int
	// Order selects the prefetch order. Defaults to closest-first.
	Order FetchOrder
	// Refresh, when positive, re-reads the membership at this virtual
	// period so additions made during the iteration are picked up (the
	// Fig. 6 "misses no additions" property). The set then only terminates
	// when Close is called or the context ends.
	Refresh time.Duration
	// RetryUnreachable keeps retrying members whose nodes are unreachable
	// (optimistic blocking). When false such members are reported via
	// Skipped instead — the practical mode for `ls`-like commands that
	// should return "all accessible files despite network failures"
	// (§1.1).
	RetryUnreachable bool
	// RetryEvery is the virtual pause between retry sweeps. Defaults to
	// 50ms.
	RetryEvery time.Duration
	// Batch caps how many same-node members ride in one GetBatch RPC —
	// the only way a dynamic set fetches. Defaults to 16; any value ≤ 1
	// (use -1 or 1 explicitly) is one member per round trip.
	Batch int
	// FallbackCache, when set, keeps fetched objects cached and, when a
	// batch's node cannot be reached, serves each of its members' cached
	// copies — delivered with Element.Stale set — instead of skipping or
	// retrying them. This is the disconnected-operation extension:
	// strictly weaker than Fig. 6 (the cached copy is not reachable), so
	// it is opt-in and visible per element.
	FallbackCache *repo.Cache
	// Tracer, when set, records a span trace of the run (subject to the
	// tracer's sampling knob); fetch RPCs underneath join it.
	Tracer *obs.Tracer
	// Weakness, when set, receives the run's weakness report on Close.
	Weakness *obs.Registry
}

func (o DynOptions) withDefaults() DynOptions {
	if o.Width <= 0 {
		o.Width = 4
	}
	if o.RetryEvery <= 0 {
		o.RetryEvery = 50 * time.Millisecond
	}
	if o.Batch == 0 {
		o.Batch = 16
	}
	o.Batch = max(o.Batch, 1)
	return o
}

// DynSet is a dynamic set (Steere's abstraction, §1.1): an open handle on a
// weak-set query whose members are fetched in parallel, nearest first, and
// handed to the consumer in completion order — so the first element arrives
// after roughly one round trip regardless of set size, and slow or
// unreachable members never block fast ones. Its observable behaviour is
// the Fig. 6 optimistic semantics.
//
// Usage mirrors Iterator:
//
//	ds, err := core.OpenDyn(ctx, client, dir, name, opts)
//	for ds.Next(ctx) { e := ds.Element() }
//	err = ds.Err()
//	_ = ds.Close()
type DynSet struct {
	client *repo.Client
	dir    netsim.NodeID
	name   string
	opts   DynOptions
	scale  sim.TimeScale

	cancel  context.CancelFunc
	results chan Element
	done    chan struct{}

	mu      sync.Mutex
	seen    map[repo.ObjectID]bool
	skipped map[repo.ObjectID]repo.Ref
	retry   []repo.Ref

	// Observability: root span (nil when untraced) plus atomic weakness
	// counters — fetchers run concurrently, so plain ints won't do.
	span       *obs.Span
	openedAt   time.Time
	yielded    atomic.Int64
	ghosts     atomic.Int64
	dupes      atomic.Int64
	fetchFails atomic.Int64
	reported   bool
	wkFinal    obs.WeaknessReport

	cur Element
	err error
}

// OpenDyn opens a dynamic set over the collection and starts prefetching.
// The initial membership read happens synchronously so an unreachable
// directory surfaces here.
func OpenDyn(ctx context.Context, client *repo.Client, dir netsim.NodeID, name string, opts DynOptions) (*DynSet, error) {
	opts = opts.withDefaults()
	members, _, err := client.List(ctx, dir, name)
	if err != nil {
		return nil, fmt.Errorf("%w: open dynamic set %q: %v", ErrFailure, name, err)
	}
	_, span := opts.Tracer.StartRoot(ctx, "dynset.elements")
	span.SetAttr("collection", name)
	span.SetAttr("node", string(client.Node()))
	// The fetch pipeline's context carries the run's trace so every
	// prefetch RPC joins it, while cancellation still comes from ctx.
	ictx, cancel := context.WithCancel(obs.ContextWithSpan(ctx, span.Context()))
	d := &DynSet{
		client:   client,
		dir:      dir,
		name:     name,
		opts:     opts,
		scale:    client.Bus().Network().Scale(),
		cancel:   cancel,
		results:  make(chan Element, opts.Width),
		done:     make(chan struct{}),
		seen:     make(map[repo.ObjectID]bool, len(members)),
		skipped:  make(map[repo.ObjectID]repo.Ref),
		span:     span,
		openedAt: time.Now(),
	}
	pending := d.admit(members)
	go d.coordinate(ictx, pending)
	return d, nil
}

// admit filters already-seen refs and marks the rest seen, returning the
// newly admitted ones.
func (d *DynSet) admit(refs []repo.Ref) []repo.Ref {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []repo.Ref
	for _, ref := range refs {
		if d.seen[ref.ID] {
			d.dupes.Add(1)
			continue
		}
		d.seen[ref.ID] = true
		out = append(out, ref)
	}
	return out
}

// coordinate drives the prefetch pipeline until everything admitted is
// fetched (or skipped), then — if Refresh is enabled — keeps polling for
// additions until cancelled.
func (d *DynSet) coordinate(ctx context.Context, pending []repo.Ref) {
	defer close(d.done)
	defer close(d.results)

	sem := make(chan struct{}, d.opts.Width)
	var wg sync.WaitGroup
	defer wg.Wait()

	for {
		sortForFetch(d.client, pending, d.opts.Order)
		jobs := chunkByNode(pending, d.opts.Batch)
		pending = nil
		for _, job := range jobs {
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				d.fetchBatch(ctx, job)
			}()
		}
		// Let in-flight fetches finish; they may enqueue retries.
		wg.Wait()
		if ctx.Err() != nil {
			return
		}

		d.mu.Lock()
		retries := d.retry
		d.retry = nil
		d.mu.Unlock()

		switch {
		case len(retries) > 0:
			if !d.pause(ctx, d.opts.RetryEvery) {
				return
			}
			pending = retries
		case d.opts.Refresh > 0:
			if !d.pause(ctx, d.opts.Refresh) {
				return
			}
			members, _, err := d.client.List(ctx, d.dir, d.name)
			if err == nil {
				pending = d.admit(members)
			}
		default:
			return
		}
	}
}

// fetchBatch retrieves one per-node chunk in a single round trip and
// routes each member: fetched to the consumer, deleted (the node answers
// but has no data — Fig. 6 permits missing it) to the void. A transport
// failure fails the whole round trip at the cost of one RPC, not one per
// member: each member is then served stale from the fallback cache if it
// is there, and goes to retry or skipped otherwise.
func (d *DynSet) fetchBatch(ctx context.Context, refs []repo.Ref) {
	ids := make([]repo.ObjectID, len(refs))
	for i, ref := range refs {
		ids[i] = ref.ID
	}
	objs, _, err := d.client.GetBatch(ctx, refs[0].Node, ids)
	cache := d.opts.FallbackCache
	var unserved []repo.Ref // deleted if the node answered, unreachable if not
	for _, ref := range refs {
		obj, ok := repo.Object{}, len(objs) > 0 && objs[0].ID == ref.ID
		if ok { // the answer follows the request
			obj, objs = objs[0], objs[1:]
		}
		switch {
		case err != nil && cache != nil:
			obj, ok = cache.Fallback(ref.ID)
		case ok && cache != nil:
			cache.Put(obj)
		}
		if !ok {
			unserved = append(unserved, ref)
			continue
		}
		e := Element{Ref: ref, Data: obj.Data, Attrs: obj.Attrs, Stale: obj.Tombstone || err != nil}
		select {
		case d.results <- e:
			d.yielded.Add(1)
			if e.Stale {
				d.ghosts.Add(1)
			}
		case <-ctx.Done():
			return
		}
	}
	if err == nil {
		return
	}
	d.fetchFails.Add(1)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.opts.RetryUnreachable {
		d.retry = append(d.retry, unserved...)
		return
	}
	for _, ref := range unserved {
		d.skipped[ref.ID] = ref
	}
}

func (d *DynSet) pause(ctx context.Context, virtual time.Duration) bool {
	return d.scale.SleepCtxFloor(ctx, virtual, 100*time.Microsecond)
}

// Next blocks until the next prefetched element is available. It returns
// false when the set is exhausted, closed, or the context ends.
func (d *DynSet) Next(ctx context.Context) bool {
	select {
	case e, ok := <-d.results:
		if !ok {
			return false
		}
		d.cur = e
		return true
	case <-ctx.Done():
		if d.err == nil {
			d.err = ctx.Err()
		}
		return false
	}
}

// Element returns the element delivered by the last successful Next.
func (d *DynSet) Element() Element { return d.cur }

// Err reports a consumer-side error (context cancellation). Exhaustion is
// not an error; unreachable members are reported by Skipped.
func (d *DynSet) Err() error { return d.err }

// Skipped lists members that were unreachable and not retried — the
// partial-result report an `ls` built on dynamic sets shows the user.
func (d *DynSet) Skipped() []repo.Ref {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]repo.Ref, 0, len(d.skipped))
	for _, ref := range d.skipped {
		out = append(out, ref)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TraceID reports the run's trace ID, or the zero ID when untraced or
// unsampled.
func (d *DynSet) TraceID() obs.TraceID { return d.span.TraceID() }

// Close stops prefetching and waits for the pipeline to drain. It is
// idempotent and safe to call while a Next is blocked (that Next returns
// false).
func (d *DynSet) Close() error {
	finished := false
	select {
	case <-d.done:
		finished = true
	default:
	}
	d.cancel()
	<-d.done
	d.finishObs(finished)
	return nil
}

// finishObs emits the run's weakness report and ends the root span, once.
func (d *DynSet) finishObs(finished bool) {
	d.mu.Lock()
	if d.reported {
		d.mu.Unlock()
		return
	}
	d.reported = true
	skipped := int64(len(d.skipped))
	d.mu.Unlock()

	rep := obs.WeaknessReport{
		Collection:           d.name,
		Semantics:            "dynamic (optimistic)",
		Trace:                d.span.TraceID(),
		Yielded:              d.yielded.Load(),
		UnreachableSkipped:   skipped,
		GhostsServed:         d.ghosts.Load(),
		DuplicatesSuppressed: d.dupes.Load(),
		FetchFailures:        d.fetchFails.Load(),
		SnapshotAge:          time.Since(d.openedAt),
		Duration:             time.Since(d.openedAt),
	}
	switch {
	case d.err != nil:
		rep.Outcome = "error"
	case finished:
		rep.Outcome = "returns"
	default:
		rep.Outcome = "abandoned"
	}
	d.wkFinal = rep
	d.opts.Weakness.Observe(rep)
	d.span.SetInt("yielded", rep.Yielded)
	d.span.SetInt("unreachableSkipped", rep.UnreachableSkipped)
	d.span.SetInt("ghostsServed", rep.GhostsServed)
	d.span.SetInt("duplicatesSuppressed", rep.DuplicatesSuppressed)
	d.span.SetAttr("outcome", rep.Outcome)
	d.span.End()
}

// Weakness returns the run's weakness report. It is complete only after
// Close.
func (d *DynSet) Weakness() obs.WeaknessReport { return d.wkFinal }
