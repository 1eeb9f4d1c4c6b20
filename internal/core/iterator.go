package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"weaksets/internal/locksvc"
	"weaksets/internal/netsim"
	"weaksets/internal/obs"
	"weaksets/internal/repo"
	"weaksets/internal/sim"
)

// maxConsecutiveFetchFailures is a liveness guard: a pessimistic iterator
// whose element fetches keep failing on a lossy-but-reachable link retries
// (the element is still reachable, so the spec says yield), but after this
// many consecutive transport failures it gives up with ErrFailure rather
// than spin forever.
const maxConsecutiveFetchFailures = 64

// Iterator is one run of the elements iterator. It follows the rows
// pattern:
//
//	it, err := set.Elements(ctx)
//	...
//	for it.Next(ctx) {
//	    e := it.Element()
//	}
//	err = it.Err()        // nil on normal termination
//	_ = it.Close(ctx)     // releases locks/pins/ghost windows
//
// An Iterator is not safe for concurrent use: like the paper's iterators it
// is a control abstraction suspended and resumed by a single caller.
type Iterator struct {
	set    *Set
	client *repo.Client
	opts   Options
	scale  sim.TimeScale
	owner  string

	// Resources held for the run, and the pin's version vector.
	lock      *locksvc.Client
	hasLock   bool
	pin       int64
	pinVers   []uint64
	growToken int64
	released  bool

	// tab is the run's membership state — members, cursor and yielded in
	// one table of sorted refs. A snapshot run grows it into s_first,
	// partition by partition (fold), until the opening stream completes —
	// unless it opens on its set's held pinned listing (openPinned); the
	// run legally steps over the partial view meanwhile — members it
	// yields are genuine members of the snapshot — but terminal decisions
	// wait for completeness. A current-state run re-bases it on the shared
	// immutable listing its last observation delivered (adopt), which it
	// keeps as held; a lease or a ListParts gated on held's version vector
	// revalidates that in no round trip or one that ships no frame while
	// the membership hasn't changed, and the cursor stands meanwhile.
	//
	// held is also what the run serves the element cache under: each
	// partition's version is the stamp its members' entries are checked
	// against, and its handles serve them by position. A pinned stream's
	// is the pin's vector, with the handles its folds make, which the
	// listing it publishes keeps; an unpinned stream's is the vector it
	// folded, once sealed, and nil until then, so no cache entry serves
	// against a listing still being assembled.
	tab  runTable
	held *listing

	// ing buffers the streamed opening listing; nil for the current-state
	// semantics, which have no opening listing. ingDone flips once the
	// completed stream has been folded and tab.version sealed. folded marks
	// the partitions already in the table, one per partition of the
	// stream's layout, from its first frame: a frame is checked against it;
	// an unpinned stream notes each one's version in partVers.
	ing        *partIngest
	ingCancel  context.CancelFunc
	ingDone    bool
	maxPartVer uint64
	folded     []bool
	partVers   []uint64

	// dyn marks a dynamic set's run (OpenDyn), which folds its whole
	// opening listing first and settles where Fig. 3 would fail; rest
	// is what settle has still to try.
	dyn, settling bool
	rest          []member

	// pf is the batched prefetch pipeline every element fetch goes through.
	pf *prefetcher
	// rep tallies the reads a replica answered for this run, whichever of
	// the listing streams, the membership reads or the batches they were.
	rep replicaTally
	// observed flips once this run has observed a listing, by lease or by
	// RPC: a version move against the cross-run seed is not within-run skew.
	observed bool
	// direct is the invocation's certificate for serving fresh cache
	// entries with no round trip (prefetcher.fetch), set by observe.
	direct bool

	// hist, when a test attaches one between Elements and the first Next,
	// receives every invocation the run decides (record), for a check
	// against the run's figure after the run; nil otherwise.
	hist *[]invocation

	blockedFor time.Duration
	fetchFails int
	listFails  int

	// Observability: the run's root span (nil when untraced/unsampled),
	// its weakness report under construction, the run start that turns
	// into Duration on close, and the snapshot capture time that turns
	// into SnapshotAge (snapshot-governed semantics only).
	span      *obs.Span
	wk        obs.WeaknessReport
	startedAt time.Time
	openedAt  time.Time
	obsDone   bool

	elem   Element
	err    error
	done   bool
	closed bool
}

func lockName(coll string) string { return "coll/" + coll }

// partIngest is the unbounded buffer between the listing-ingest
// goroutine (pushing partition frames as the stream delivers them) and
// the iterator goroutine (folding them into s_first between
// invocations). Unbounded so the stream's producer never blocks on a
// slow consumer; total memory is bounded by the listing itself.
type partIngest struct {
	mu     sync.Mutex
	parts  []repo.PartListing
	done   bool
	err    error
	notify chan struct{} // buffered(1); signaled on push and finish
	// tally is the run's replica accounting, which the (possibly several)
	// stream goroutines note replica-served frames in.
	tally *replicaTally
}

func newPartIngest(tally *replicaTally) *partIngest {
	return &partIngest{notify: make(chan struct{}, 1), tally: tally}
}

func (g *partIngest) signal() {
	select {
	case g.notify <- struct{}{}:
	default:
	}
}

func (g *partIngest) push(pl repo.PartListing) {
	g.mu.Lock()
	g.parts = append(g.parts, pl)
	g.mu.Unlock()
	g.signal()
}

func (g *partIngest) finish(err error) {
	g.mu.Lock()
	g.done = true
	g.err = err
	g.mu.Unlock()
	g.signal()
}

// takeOne pops the oldest queued partition; done/err report stream
// completion once the queue is empty.
func (g *partIngest) takeOne() (pl repo.PartListing, ok, done bool, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.parts) > 0 {
		pl = g.parts[0]
		g.parts = g.parts[1:]
		return pl, true, false, nil
	}
	return repo.PartListing{}, false, g.done, g.err
}

// setup acquires the per-run resources and, for snapshot-based semantics,
// s_first.
func (it *Iterator) setup(ctx context.Context) error {
	s := it.set
	switch it.opts.Semantics {
	case ImmutablePerRun:
		it.lock = s.lockClient(it.owner)
		if _, err := it.lock.Acquire(ctx, it.opts.LockServer, lockName(s.name), locksvc.Read, it.opts.LockTTL); err != nil {
			return fmt.Errorf("acquire read lock: %w", err)
		}
		it.hasLock = true
	case Snapshot:
		pin, vers, err := it.client.Pin(ctx, s.dir, s.name)
		if err != nil {
			return fmt.Errorf("pin snapshot: %w", err)
		}
		it.pin, it.pinVers = pin, vers
		if len(vers) == 0 {
			return fmt.Errorf("pin snapshot: a pin of no partitions")
		}
		it.tab.version = slices.Max(vers) // the pin's governs before any frame arrives
	case GrowOnlyPerRun:
		token, err := it.client.BeginGrow(ctx, s.dir, s.name)
		if err != nil {
			return fmt.Errorf("open grow window: %w", err)
		}
		it.growToken = token
	}

	if it.opts.Semantics.UsesSnapshot() {
		if err := it.openPinned(ctx); err != nil {
			return fmt.Errorf("read s_first: %w", err)
		}
		it.openedAt = time.Now()
	}
	return nil
}

// openPinned reads s_first. A pinned run whose set holds a pinned listing
// in the pin's layout opens on it: it reads only the partitions the pin
// holds at another version than the held listing — none, when nothing
// moved — and adopts the held listing with those replaced. Any other run
// streams its listing (startIngest).
func (it *Iterator) openPinned(ctx context.Context) error {
	held := it.set.lastPinned.Load()
	if it.pin == 0 || held == nil || len(held.vers) != len(it.pinVers) {
		return it.startIngest(ctx)
	}
	var moved []int
	for p, v := range it.pinVers {
		if held.vers[p] != v {
			moved = append(moved, p)
		}
	}
	l := held
	if len(moved) > 0 {
		var frames []repo.PartListing
		err := it.client.ListPartsSubset(ctx, it.set.dir, it.set.name, it.pin, nil, moved, func(pl repo.PartListing) error {
			frames = append(frames, pl)
			return nil
		})
		if err == nil {
			l, err = held.with(frames, it.pf.cache)
		}
		if err == nil && !slices.Equal(l.vers, it.pinVers) {
			err = fmt.Errorf("pinned listing frames do not make the pin's %d partitions at its versions", len(it.pinVers))
		}
		if err != nil {
			return err
		}
		publish(&it.set.lastPinned, l)
	}
	it.adopt(l)
	return nil
}

// startIngest opens the streamed partitioned listing and waits until the
// cursor holds a prefetch window or the stream has completed, so opening
// errors surface from Elements and the run's first plan is cut over a
// window or the whole listing — a plan over a shorter prefix would take
// its end for the cursor's, cut each node's chunk short there, and the
// next plan call the same nodes again — while the remaining partitions
// keep arriving in the background, already fetchable against.
func (it *Iterator) startIngest(ctx context.Context) error {
	if it.pin != 0 && it.pf.cache != nil {
		it.held = &listing{vers: it.pinVers, handles: make([][]repo.Handle, len(it.pinVers)), cache: it.pf.cache}
	}
	ing := newPartIngest(&it.rep)
	it.ing = ing
	// The stream outlives this call; its context carries the run's trace
	// and is cancelled by Close.
	ictx, cancel := context.WithCancel(it.traceCtx(context.Background()))
	it.ingCancel = cancel
	go func() { ing.finish(it.set.router.scatter(ictx, it.pin, ing)) }()
	for {
		select {
		case <-ing.notify:
		case <-ctx.Done():
			return ctx.Err()
		}
		// A dynamic run plans its first window closest-first over the
		// whole membership, so it waits the stream out.
		if err := it.drainIngest(); err != nil || it.ingDone || !it.dyn && it.tab.unyielded() >= it.pf.window() {
			return err
		}
	}
}

// maxPartitions bounds the partition count a listing stream may claim:
// the count arrives off the wire, and the run table is sized by it (the
// store bounds a replication push's layout alike).
const maxPartitions = 1 << 12

// fold merges one partition's listing into s_first on the iterator
// goroutine. The frame came from outside the program, so it is checked
// here, where it is used: a partition the table already holds is dropped
// (a retried stream re-served it; yielding its members twice would break
// the no-duplicates obligation), and a layout of more than maxPartitions,
// a partition index the stream's layout does not have, or a pinned
// frame at another version than the pin's, fails the run.
func (it *Iterator) fold(pl repo.PartListing) error {
	if it.folded == nil && pl.Partitions >= 1 && pl.Partitions <= maxPartitions {
		it.folded = make([]bool, pl.Partitions)
		if it.pin == 0 {
			it.partVers = make([]uint64, pl.Partitions)
		}
	}
	if pl.Partitions != len(it.folded) || pl.Part < 0 || pl.Part >= pl.Partitions {
		return fmt.Errorf("listing frame for partition %d of %d in a stream of %d", pl.Part, pl.Partitions, len(it.folded))
	}
	if it.pin != 0 && (len(it.pinVers) != pl.Partitions || it.pinVers[pl.Part] != pl.Version) {
		return fmt.Errorf("pinned listing frame for partition %d at version %d, not the pin's", pl.Part, pl.Version)
	}
	if it.folded[pl.Part] {
		return nil
	}
	it.folded[pl.Part] = true
	if pl.Skewed {
		it.wk.PartitionSkew++
	}
	if pl.Version > it.maxPartVer {
		it.maxPartVer = pl.Version
	}
	it.tab.fold(pl.Part, pl.Partitions, pl.Members)
	if it.pin == 0 {
		it.partVers[pl.Part] = pl.Version
	} else if it.held != nil {
		it.held.handles[pl.Part] = make([]repo.Handle, len(it.tab.parts[pl.Part]))
	}
	return nil
}

// drainIngest folds arrived partitions, without blocking — at most
// enough to keep a full prefetch window of unyielded members in the
// cursor (everything, in a dynamic run), so the fold cost is paid
// incrementally across yields rather than all before the first element
// (the in-process stream can outrun the iterator arbitrarily). When the stream has completed and the queue is drained it
// seals tab.version — 0 until then on an unpinned stream, so no cache
// serves against a version still being assembled; a pinned one has its
// pin's from the start — to the highest partition version observed
// (sound, because every object fetch from here on is at least that
// fresh), publishes a pinned stream's listing for the set's next
// snapshot run, and reports the stream's error, if any, as it does a
// frame that fails fold's checks.
func (it *Iterator) drainIngest() error {
	if it.ing == nil || it.ingDone {
		return nil
	}
	for it.dyn || it.tab.unyielded() < it.pf.window() {
		pl, ok, done, err := it.ing.takeOne()
		if !ok {
			if !done {
				return nil
			}
			it.ingDone = true
			if err != nil {
				return err
			}
			it.tab.version = it.maxPartVer
			if it.pin == 0 {
				if it.pf.cache != nil {
					it.held = &listing{vers: it.partVers}
				}
				return nil
			}
			if slices.Contains(it.folded, false) {
				return fmt.Errorf("pinned listing frames do not make the pin's %d partitions", len(it.pinVers))
			}
			// The folded table is the pin, partition for partition, and no
			// fold writes it again: it is the set's pinned listing, with the
			// handles this run's installs bound.
			l := &listing{version: it.tab.version, parts: it.tab.parts, vers: it.pinVers, nodes: it.tab.nodes}
			if it.held != nil {
				l.handles, l.cache = it.held.handles, it.held.cache
			}
			publish(&it.set.lastPinned, l)
			return nil
		}
		if err := it.fold(pl); err != nil {
			return err
		}
	}
	return nil
}

// ingestActive reports whether opening-listing partitions may still
// arrive: terminal decisions must wait them out.
func (it *Iterator) ingestActive() bool { return it.ing != nil && !it.ingDone }

// waitIngest blocks until the ingest stream produces (or finishes).
func (it *Iterator) waitIngest(ctx context.Context) bool {
	select {
	case <-it.ing.notify:
		return true
	case <-ctx.Done():
		it.terminate(ctx.Err())
		return false
	}
}

// traceCtx stamps the run's span context onto ctx so downstream RPCs
// join the trace. On an untraced run it returns ctx unchanged.
func (it *Iterator) traceCtx(ctx context.Context) context.Context {
	if it.span == nil {
		return ctx
	}
	return obs.ContextWithSpan(ctx, it.span.Context())
}

// release frees the run's resources exactly once, best-effort.
func (it *Iterator) release(ctx context.Context) {
	if it.released {
		return
	}
	it.released = true
	s := it.set
	if it.hasLock {
		_ = it.lock.Release(ctx, it.opts.LockServer, lockName(s.name))
		it.hasLock = false
	}
	if it.pin != 0 {
		_ = it.client.Unpin(ctx, s.dir, s.name, it.pin)
		it.pin = 0
	}
	if it.growToken != 0 {
		_, _ = it.client.EndGrow(ctx, s.dir, s.name, it.growToken)
		it.growToken = 0
	}
}

// leaseCertifies reports whether a held lease certifies the listing the
// run holds current, and the certification's age.
func (it *Iterator) leaseCertifies() (age time.Duration, ok bool) {
	ls := it.set.leaseState()
	if ls == nil || it.tab.version == 0 {
		return 0, false
	}
	v, age, ok := ls.Serveable(it.set.name)
	return age, ok && v <= it.tab.version
}

// observe is the invocation's membership observation, after which tab is
// what the invocation steps over: s_first as folded so far for snapshot
// semantics, otherwise a fresh read — the lease's certificate, or a
// ListParts through the router gated on the held listing's version
// vector, which certifies it (no frame) or ships the moved partitions
// for a new listing. Every invocation pays it, on either path, and
// leaves its certificate in it.direct — set under a snapshot semantics,
// otherwise whether a held lease certifies the listing the run holds
// after the read: lease-served, or re-listed after a pushed change, when
// the partitions the push did not move serve as they did before it — so
// the lease is read once or twice per invocation, never per element
// served.
func (it *Iterator) observe(ctx context.Context) error {
	if it.opts.Semantics.UsesSnapshot() {
		it.direct = true
		return nil
	}
	if age, ok := it.leaseCertifies(); ok {
		// The server promised to push any listing change, so while the
		// certified version is the one the run holds the gated re-list is
		// provably redundant; a pushed bump fails the comparison and the
		// re-list below runs — the degradation ladder's middle rung.
		it.wk.LeaseServed++
		it.wk.LeaseAge = max(it.wk.LeaseAge, age)
		it.direct, it.observed = true, true
		return nil
	}
	ctx, lsp := it.opts.Tracer.StartSpan(it.traceCtx(ctx), "iter.list")
	defer lsp.End()
	l, err := it.set.router.relist(ctx, it.held, it.pf.cache, &it.rep)
	if err != nil {
		return err
	}
	if l != it.held {
		if it.observed && l.version != it.tab.version {
			// The listing changed under the run: membership skew the
			// caller can never distinguish from a slow iteration.
			it.wk.ListingSkew++
		}
		it.adopt(l)
		it.set.publishListing(l)
	}
	it.observed = true
	_, it.direct = it.leaseCertifies()
	return nil
}

// adopt makes l the listing the run holds: the cursor becomes l's yield
// order minus what the run already yielded (re-listed yielded members are
// suppressed — the "no duplicates" obligation).
func (it *Iterator) adopt(l *listing) {
	it.held = l
	it.wk.DuplicatesSuppressed += int64(it.tab.adopt(l))
}

// Next advances the iterator: it either yields the next element (true) or
// terminates (false). After false, Err distinguishes normal termination
// (nil) from the failure exception, a blocking timeout, or context
// cancellation.
func (it *Iterator) Next(ctx context.Context) bool {
	if it.done || it.closed {
		return false
	}
	if it.settling {
		return it.settle()
	}
	for {
		if err := ctx.Err(); err != nil {
			it.terminate(err)
			return false
		}
		if err := it.drainIngest(); err != nil {
			it.terminate(fmt.Errorf("%w: read membership: %v", ErrFailure, err))
			return false
		}
		if err := it.observe(ctx); err != nil {
			switch {
			case ctx.Err() != nil:
				it.terminate(ctx.Err())
			case it.opts.Semantics == Optimistic && netsim.IsFailure(err):
				// The directory itself is unreachable; optimistically wait
				// for repair.
				if !it.blockPause(ctx) {
					return false
				}
				continue
			case errors.Is(err, netsim.ErrDropped) && it.listFails < maxConsecutiveFetchFailures:
				// A dropped message is transient by definition (the link is
				// up); retry rather than report the failure exception.
				it.listFails++
				it.wk.FetchFailures++
				continue
			default:
				it.terminate(fmt.Errorf("%w: read membership: %v", ErrFailure, err))
			}
			return false
		}
		it.listFails = 0
		// The generation is read before the sample it gates, so a sample is
		// never kept for a topology newer than the one it saw.
		d := it.tab.decide(it.opts.Semantics, it.dyn, it.client.Bus().Network().Generation(), it.client.NodeReachable)
		if (d == DecideReturn || d == DecideFail) && it.ingestActive() {
			// The drained partitions are exhausted but the opening listing
			// is still streaming in: a terminal decision is about a prefix,
			// not the snapshot, so it decides nothing. Wait for more.
			if !it.waitIngest(ctx) {
				return false
			}
			continue
		}
		it.wk.Invocations++
		switch d {
		case DecideYield:
			if it.fetch(ctx) {
				return true
			}
			if it.done {
				return false
			}
			// Fetch raced with a mutation or a failure: re-observe the
			// world and decide again.
			continue

		case DecideReturn:
			it.record(DecideReturn, repo.Ref{})
			it.countSkipped()
			it.done = true
			return false

		case DecideFail:
			if it.dyn {
				return it.settle()
			}
			it.record(DecideFail, repo.Ref{})
			it.countSkipped()
			it.terminate(fmt.Errorf("%w: %s: unreachable members remain", ErrFailure, it.opts.Semantics))
			return false

		case DecideBlock:
			it.record(DecideBlock, repo.Ref{})
			if !it.blockPause(ctx) {
				return false
			}
		}
	}
}

// cursorCandidates lists what the run could yield next, in yield order
// from the cursor's head — the member a yield decision chose — on: a
// prefetch window, enough to keep Inflight batches of the prefetcher's
// current size full several times over, small enough that building and
// sorting a plan never scales with the set — which is what keeps
// time-to-first-element (and the cost of each replan) independent of
// membership size. The prefetcher batches them by node for later Next
// calls, copying what it keeps: the window is one buffer, rewritten by
// the next replan. It also reports whether the opening stream may still
// fold members in (a prefix's end is not the cursor's).
func (it *Iterator) cursorCandidates() ([]member, bool) {
	limit := min(it.pf.window(), it.tab.unyielded())
	if cap(it.tab.cands) < limit {
		it.tab.cands = make([]member, 0, limit)
	}
	it.tab.cands = it.tab.window(it.tab.cands[:0], limit)
	return it.tab.cands, it.ingestActive()
}

// fetch retrieves the object of the member a yield decision chose — the
// cursor's head — or of one the run accepts in its place whose batch
// landed first (completion order). It returns true when the iterator
// yielded; false means the caller should re-observe (or the iterator
// terminated — check it.done). Until the first plan no chunk can hold the
// head: a direct invocation serves it here, by its position in the held
// listing; otherwise the batched path plans the candidates on a miss.
func (it *Iterator) fetch(ctx context.Context) bool {
	p, i := it.tab.cur, it.tab.at[it.tab.cur].pos
	ref := &it.tab.parts[p][i]
	var obj *repo.Object
	ok, err := false, error(nil)
	if it.direct && it.pf.plans == 0 && it.pf.cache != nil {
		obj, ok, err = it.pf.serve(it.held, int32(p), i, ref.ID)
	}
	if !ok {
		var m member
		m, obj, err = it.pf.fetch(it.traceCtx(ctx), member{*ref, int32(p), i}, it.held, it.direct, it.cursorCandidates, it.tab.accepts)
		ref, p, i = &m.Ref, int(m.part), m.at
	}
	switch {
	case err == nil:
		it.yield(ref, p, int(i), obj.Data, obj.Attrs, obj.Tombstone)
		return true

	case errors.Is(err, repo.ErrNotFound):
		it.fetchFails = 0
		switch it.opts.Semantics {
		case Immutable, ImmutablePerRun, Snapshot:
			// The snapshot still lists the member but its data is gone —
			// Fig. 4's tolerated anomaly. Yield the identity as stale.
			it.yield(ref, p, int(i), nil, nil, true)
			return true
		case Optimistic:
			// Concurrently deleted; the next membership read drops it.
			return false
		default:
			// Grow-only: a member's data vanished, so the grow-only
			// discipline was broken under us. Pessimistic failure.
			it.record(DecideFail, repo.Ref{})
			it.terminate(fmt.Errorf("%w: member %q data missing: %v", ErrFailure, ref.ID, err))
			return false
		}

	default:
		// Transport failure. The element may have become unreachable (the
		// next sample will see that) or the message was dropped (the run
		// will choose it again). Guard liveness on lossy links.
		it.fetchFails++
		it.wk.FetchFailures++
		if it.fetchFails >= maxConsecutiveFetchFailures && it.opts.Semantics != Optimistic {
			it.record(DecideFail, repo.Ref{})
			it.terminate(fmt.Errorf("%w: fetching %q kept failing: %v", ErrFailure, ref.ID, err))
		}
		return false
	}
}

// yield marks ref, member i of partition p of the run table, yielded and
// makes it the element, built in place.
func (it *Iterator) yield(ref *repo.Ref, p, i int, data []byte, attrs map[string]string, stale bool) {
	it.record(DecideYield, *ref)
	it.tab.yield(p, i)
	it.wk.Yielded++
	// Field by field: a composite literal is built on the stack and
	// copied, and the copy's wide loads stall on the narrow stores.
	e := &it.elem
	e.Ref, e.Data, e.Attrs, e.Stale = *ref, data, attrs, stale
	if stale {
		it.wk.GhostsServed++
	}
	it.blockedFor = 0
	it.fetchFails = 0
}

// Skipped lists, in the run's yield order, the members the run has not
// yielded: once Next has returned false, those it left at termination —
// for a dynamic run, the unreachable ones it had no fallback copy of. A
// closed run lists none, but for a dynamic one.
func (it *Iterator) Skipped() []repo.Ref {
	rest := it.tab.remaining()
	out := make([]repo.Ref, len(rest))
	for k := range rest {
		out[k] = rest[k].Ref
	}
	return out
}

// countSkipped records, at a terminal decision, the members of the
// governing membership that were never yielded: existent but unreachable
// (or ghost-degraded) — the paper's central weakness, observable only
// here because a weak `elements` run gives the caller no other signal.
func (it *Iterator) countSkipped() {
	it.wk.UnreachableSkipped += int64(it.tab.unyielded())
}

// blockPause sleeps one optimistic retry interval. It returns false when
// the iterator must stop (budget exhausted or context cancelled).
func (it *Iterator) blockPause(ctx context.Context) bool {
	it.blockedFor += it.opts.BlockRetry
	it.wk.Blocked += it.opts.BlockRetry
	if it.opts.MaxBlock > 0 && it.blockedFor > it.opts.MaxBlock {
		it.terminate(fmt.Errorf("%w: waited %v", ErrBlocked, it.opts.MaxBlock))
		return false
	}
	// Logical-time runs (zero scale) still pause briefly so the
	// environment can make progress.
	if !it.scale.SleepCtxFloor(ctx, it.opts.BlockRetry, 100*time.Microsecond) {
		it.terminate(ctx.Err())
		return false
	}
	return true
}

// invocation is one decision in a run's history: its kind, the member a
// yield took, and the state it was made over — the table's partitions and
// the down nodes of the sample it used. Neither is written again once
// recorded: allReachable replaces down at each sample, and a current-state
// table's partitions are the held listing's, which are immutable.
type invocation struct {
	kind  DecisionKind
	yield repo.Ref
	parts [][]repo.Ref
	down  map[netsim.NodeID]bool
}

// record appends the invocation the run just decided to its history, if
// one is attached.
func (it *Iterator) record(kind DecisionKind, yield repo.Ref) {
	if it.hist != nil {
		*it.hist = append(*it.hist, invocation{kind, yield, it.tab.parts, it.tab.down})
	}
}

func (it *Iterator) terminate(err error) {
	it.done = true
	if it.err == nil {
		it.err = err
	}
}

// Element returns the element yielded by the last successful Next.
func (it *Iterator) Element() Element { return it.elem }

// Err reports how the run ended: nil for normal termination (`returns`),
// ErrFailure for the failure exception (`fails`), ErrBlocked for an
// exhausted optimistic budget, or the context's error.
func (it *Iterator) Err() error { return it.err }

// Yielded reports how many elements the run has yielded.
func (it *Iterator) Yielded() int { return it.tab.yieldedCount() }

// TraceID reports the run's trace id, or zero when the run was untraced
// or sampled out.
func (it *Iterator) TraceID() obs.TraceID { return it.span.TraceID() }

// Weakness returns the run's weakness report. It is complete after
// Close; before that it reflects the run so far.
func (it *Iterator) Weakness() obs.WeaknessReport {
	it.foldCounters()
	return it.wk
}

// foldCounters copies into the report what the fetch pipeline and the
// listing streams count on their own goroutines.
func (it *Iterator) foldCounters() {
	it.wk.EpochRetries = it.pf.epochRetries.Load()
	it.wk.CacheHits = it.pf.cacheHits
	it.wk.CacheValidatedHits = it.pf.cacheValidated.Load()
	it.wk.ReplicaSkew = it.rep.skew.Load()
	it.wk.ReplicaServed = it.rep.served.Load()
	it.wk.GhostAge = time.Duration(it.rep.ageMs.Load()) * time.Millisecond
}

// finishObs completes the run's weakness report and root span exactly
// once: outcome classification, snapshot age, prefetcher epoch retries,
// registry aggregation, span annotations.
func (it *Iterator) finishObs() {
	if it.obsDone {
		return
	}
	it.obsDone = true
	it.foldCounters()
	if !it.startedAt.IsZero() {
		it.wk.Duration = time.Since(it.startedAt)
	}
	if !it.openedAt.IsZero() {
		it.wk.SnapshotAge = time.Since(it.openedAt)
	}
	switch {
	case it.wk.Outcome != "": // pre-classified (abandoned)
	case it.err == nil:
		it.wk.Outcome = "returns"
	case errors.Is(it.err, ErrFailure):
		it.wk.Outcome = "fails"
	case errors.Is(it.err, ErrBlocked):
		it.wk.Outcome = "blocked"
	default:
		it.wk.Outcome = "error"
	}
	if it.opts.Weakness != nil {
		it.opts.Weakness.Observe(it.wk)
	}
	if it.span != nil {
		it.span.SetInt("invocations", it.wk.Invocations)
		it.span.SetInt("yielded", it.wk.Yielded)
		it.span.SetInt("unreachableSkipped", it.wk.UnreachableSkipped)
		it.span.SetInt("ghostsServed", it.wk.GhostsServed)
		it.span.SetInt("duplicatesSuppressed", it.wk.DuplicatesSuppressed)
		it.span.SetInt("epochRetries", it.wk.EpochRetries)
		it.span.SetInt("cacheHits", it.wk.CacheHits)
		it.span.SetInt("cacheValidatedHits", it.wk.CacheValidatedHits)
		it.span.SetInt("listingSkew", it.wk.ListingSkew)
		it.span.SetInt("partitionSkew", it.wk.PartitionSkew)
		it.span.SetInt("replicaSkew", it.wk.ReplicaSkew)
		it.span.SetInt("replicaServed", it.wk.ReplicaServed)
		it.span.SetInt("ghostAgeMs", int64(it.wk.GhostAge/time.Millisecond))
		it.span.SetAttr("outcome", it.wk.Outcome)
		it.span.End()
	}
}

// Close releases the run's lock, pin, or grow window. It is idempotent.
func (it *Iterator) Close(ctx context.Context) error {
	if it.closed {
		return nil
	}
	if !it.done && it.err == nil {
		// Closed before the run terminated: the caller walked away.
		it.wk.Outcome = "abandoned"
	}
	it.closed = true
	it.done = true
	if it.ingCancel != nil {
		it.ingCancel()
	}
	it.pf.close()
	if !it.dyn {
		it.set.giveTable(&it.tab)
	}
	// Release rides the run's trace so the closing unpin/unlock RPCs show
	// up as the trace's final spans; finishObs then seals the root span.
	it.release(it.traceCtx(ctx))
	it.finishObs()
	return nil
}
