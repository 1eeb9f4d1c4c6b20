package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"weaksets/internal/locksvc"
	"weaksets/internal/netsim"
	"weaksets/internal/obs"
	"weaksets/internal/repo"
	"weaksets/internal/sim"
	"weaksets/internal/spec"
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

	// Resources held for the run.
	lock      *locksvc.Client
	hasLock   bool
	pin       int64
	growToken int64
	released  bool

	// first is s_first for snapshot-based semantics. With the streamed
	// partitioned listing it grows partition-by-partition on the
	// iterator's own goroutine (drainIngest) until the stream completes;
	// the kernel legally runs against the partial view meanwhile —
	// members it yields are genuine members of the snapshot — but
	// terminal decisions wait for completeness.
	first map[spec.ElemID]bool
	// snapVer is the listing version governing s_first: the version the
	// pinned (or opening) membership read reported. It anchors the
	// cache's freshness check for snapshot-governed runs. While the
	// partitioned listing is still streaming in it stays 0 (no cache
	// serves against a version still being assembled); on completion it
	// becomes the highest partition version observed, which is sound:
	// any object fetched after that point is at least that fresh.
	snapVer uint64
	// refs maps every element ID this run has seen to its location.
	refs map[spec.ElemID]repo.Ref

	// ing buffers the streamed opening listing; nil for the current-state
	// semantics, which have no opening listing. ingDone flips once the
	// completed stream has been folded and snapVer sealed.
	ing        *partIngest
	ingCancel  context.CancelFunc
	ingDone    bool
	maxPartVer uint64

	// cursor is the one stepper's yield order, for every semantics: the
	// sorted ids of the governing membership not yet yielded. Snapshot
	// runs merge it partition-by-partition as s_first streams in;
	// current-state runs key it on the listing they hold: it stands while
	// each invocation's observation (lease or NotModified) certifies that
	// listing and is rebuilt, O(n log n), only when the version moves.
	// Unless fastNext stands down, cursor[0] IS the kernel's decision, so
	// a yield costs O(distinct nodes), not an O(members) scan.
	cursor []spec.ElemID
	// nodes is the set of distinct nodes holding members, the fast
	// path's per-invocation reachability sample domain.
	nodes map[netsim.NodeID]bool
	// yieldedGone counts yielded ids the held listing no longer lists
	// (current-state runs only; yielded ⊆ s_first otherwise).
	yieldedGone int
	// kernelSteps counts Step calls: what the complexity guard reads.
	kernelSteps int

	// pf is the batched prefetch pipeline every element fetch goes through.
	pf *prefetcher
	// curMembers/listVersion are the listing a current-state run holds
	// (see adopt); a version-gated List revalidates it in one member-free
	// round trip when the listing hasn't changed.
	curMembers  map[spec.ElemID]bool
	listVersion uint64
	// observed flips once this run has observed a listing, by lease or by
	// RPC: a version move against the cross-run seed is not within-run skew.
	observed bool

	yielded    map[spec.ElemID]bool
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
// the iterator goroutine (folding them into s_first between kernel
// invocations). Unbounded so the stream's producer never blocks on a
// slow consumer; total memory is bounded by the listing itself.
type partIngest struct {
	mu     sync.Mutex
	parts  []repo.PartListing
	done   bool
	err    error
	hinted bool
	sized  *sizedMaps    // pre-sized membership maps, once built
	notify chan struct{} // buffered(1); signaled on push and finish

	// Replica staleness accounting, written by the (possibly several)
	// stream goroutines and folded into the run's WeaknessReport on the
	// iterator goroutine. Atomics because the streams outlive Close on
	// abandonment.
	replicaSkew   atomic.Int64
	replicaServed atomic.Int64
	replicaAgeMs  atomic.Int64
}

func newPartIngest() *partIngest {
	return &partIngest{notify: make(chan struct{}, 1)}
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
	hint := 0
	if !g.hinted && len(pl.Members) > 0 {
		// Estimate the whole listing from the first non-empty frame
		// (uniform partition hash) and build pre-sized membership maps
		// concurrently with consumption.
		g.hinted = true
		hint = len(pl.Members) * max(pl.Partitions, 1)
	}
	g.mu.Unlock()
	if hint >= sizedMapsMin {
		go g.buildSized(hint)
	}
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

// sizedMaps is a set of membership maps pre-sized for the whole
// listing, built in the background while the first partitions are
// already being consumed.
type sizedMaps struct {
	first   map[spec.ElemID]bool
	refs    map[spec.ElemID]repo.Ref
	yielded map[spec.ElemID]bool
}

// sizedMapsMin gates the background build: below this estimated
// membership the incremental rehashes are cheaper than the handoff.
const sizedMapsMin = 1 << 16

// buildSized allocates membership maps with capacity for the whole
// estimated listing. It runs on its own goroutine: zeroing that much
// map capacity takes tens of milliseconds at a million members, which
// must not sit on the time-to-first-element path.
func (g *partIngest) buildSized(hint int) {
	m := &sizedMaps{
		first:   make(map[spec.ElemID]bool, hint),
		refs:    make(map[spec.ElemID]repo.Ref, hint),
		yielded: make(map[spec.ElemID]bool, hint),
	}
	g.mu.Lock()
	g.sized = m
	g.mu.Unlock()
}

// takeSized hands the pre-sized maps to the iterator exactly once.
func (g *partIngest) takeSized() *sizedMaps {
	g.mu.Lock()
	defer g.mu.Unlock()
	m := g.sized
	g.sized = nil
	return m
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
		pin, err := it.client.Pin(ctx, s.dir, s.name)
		if err != nil {
			return fmt.Errorf("pin snapshot: %w", err)
		}
		it.pin = pin
	case GrowOnlyPerRun:
		token, err := it.client.BeginGrow(ctx, s.dir, s.name)
		if err != nil {
			return fmt.Errorf("open grow window: %w", err)
		}
		it.growToken = token
	}

	if it.opts.Semantics.UsesSnapshot() {
		it.first = make(map[spec.ElemID]bool)
		it.refs = make(map[spec.ElemID]repo.Ref)
		it.nodes = make(map[netsim.NodeID]bool, 8)
		if err := it.startIngest(ctx); err != nil {
			return fmt.Errorf("read s_first: %w", err)
		}
		it.openedAt = time.Now()
	}
	return nil
}

// startIngest opens the streamed partitioned listing and waits for its
// first partition (or its completion), so opening errors surface from
// Elements — while the remaining partitions keep arriving in the
// background, already fetchable against.
func (it *Iterator) startIngest(ctx context.Context) error {
	s := it.set
	ing := newPartIngest()
	it.ing = ing
	// The stream outlives this call; its context carries the run's trace
	// and is cancelled by Close.
	ictx, cancel := context.WithCancel(it.traceCtx(context.Background()))
	it.ingCancel = cancel
	go func() {
		if rt := s.router; rt != nil && it.pin == 0 {
			// Replica-parallel opening: the listing's partitions stream
			// from every live replica concurrently into this ingest. A
			// pinned run stays home-bound — pins are primary-resident.
			ing.finish(rt.scatter(ictx, ing))
			return
		}
		err := it.client.ListParts(ictx, s.dir, s.name, it.pin, nil, func(pl repo.PartListing) error {
			ing.push(pl)
			return ictx.Err()
		})
		ing.finish(err)
	}()
	for {
		select {
		case <-ing.notify:
		case <-ctx.Done():
			return ctx.Err()
		}
		// A recorded run is checked against the figures invocation by
		// invocation, so every recorded pre-state must hold the whole
		// s_first: it waits the stream out before its first invocation.
		if err := it.drainIngest(); err != nil || it.opts.Recorder == nil || it.ingDone {
			return err
		}
	}
}

// fold merges one partition's listing into s_first on the iterator
// goroutine.
func (it *Iterator) fold(pl repo.PartListing) {
	if pl.Skewed {
		it.wk.PartitionSkew++
	}
	if pl.Version > it.maxPartVer {
		it.maxPartVer = pl.Version
	}
	if it.pin != 0 && pl.Version > it.snapVer {
		// A pinned stream's frames all carry the pin's own listing version
		// (the pin is one immutable snapshot, partitioned on the fly), so
		// the run's governing version is known from the first frame — the
		// cache can serve and stamp against it while the rest of the
		// stream is still arriving, instead of revalidating every element
		// planned before the final seal in drainIngest.
		it.snapVer = pl.Version
	}
	if len(pl.Members) == 0 {
		return
	}
	// Adopt the pre-sized maps once the background build finishes.
	// Allocating ~n map capacity takes tens of milliseconds at a million
	// members, so it happens off the yield path; adoption only copies what
	// little has folded so far.
	if m := it.ing.takeSized(); m != nil {
		for id := range it.first {
			m.first[id] = true
		}
		for id, ref := range it.refs {
			m.refs[id] = ref
		}
		for id := range it.yielded {
			m.yielded[id] = true
		}
		it.first, it.refs, it.yielded = m.first, m.refs, m.yielded
	}
	fresh := make([]spec.ElemID, 0, len(pl.Members))
	for _, ref := range pl.Members {
		id := spec.ElemID(ref.ID)
		if it.first[id] {
			continue
		}
		it.first[id] = true
		it.refs[id] = ref
		it.nodes[ref.Node] = true
		fresh = append(fresh, id)
	}
	slices.Sort(fresh)
	it.cursor = mergeSorted(it.cursor, fresh)
}

// mergeSorted merges two ascending id slices into one.
func mergeSorted(a, b []spec.ElemID) []spec.ElemID {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make([]spec.ElemID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// drainIngest folds arrived partitions, without blocking — at most
// enough to keep a full prefetch window of unyielded members in the
// cursor (everything, under a recorder), so the fold cost is paid
// incrementally across yields rather than all before the first element
// (the in-process stream can outrun the iterator arbitrarily). When the stream has completed and the
// queue is drained it seals snapVer (the highest partition version
// observed — sound, because every object fetch from here on is at
// least that fresh) and reports the stream's error, if any.
func (it *Iterator) drainIngest() error {
	if it.ing == nil || it.ingDone {
		return nil
	}
	for it.opts.Recorder != nil || len(it.cursor) < it.prefetchWindow() {
		pl, ok, done, err := it.ing.takeOne()
		if !ok {
			if !done {
				return nil
			}
			it.ingDone = true
			if err != nil {
				return err
			}
			it.snapVer = it.maxPartVer
			return nil
		}
		it.fold(pl)
	}
	return nil
}

// ingestActive reports whether opening-listing partitions may still
// arrive: terminal kernel decisions must wait them out.
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

// leaseServe tries to serve a current-state membership read from the
// cached listing under a held lease: the server promised to push any
// listing change, so if the certified version is still the one the run
// has cached, the conditional revalidation RPC is provably redundant. A
// pushed bump makes the version comparison fail and the caller falls
// back to ListIfNew — the degradation ladder's middle rung.
func (it *Iterator) leaseServe() bool {
	ls := it.set.leaseState()
	if ls == nil || it.listVersion == 0 {
		return false
	}
	v, age, ok := ls.Serveable(it.set.name)
	if !ok || v > it.listVersion {
		return false
	}
	it.wk.LeaseServed++
	if age > it.wk.LeaseAge {
		it.wk.LeaseAge = age
	}
	return true
}

// noteReplicaList accounts a current-state membership read answered by a
// replica. A non-home serve counts as ReplicaServed and bounds GhostAge
// by the replica's last-sync age. A reply older than what the run has
// already observed (the serving replica lags the run's own view) is
// demoted to not-modified — the run keeps its fresher cached listing,
// staying monotonic — and the regression is accounted as ReplicaSkew.
func (it *Iterator) noteReplicaList(from replicaProbe, version uint64, notModified *bool) {
	if !from.home {
		it.wk.ReplicaServed++
		if age := from.age(); age > it.wk.GhostAge {
			it.wk.GhostAge = age
		}
	}
	if !*notModified && version < it.listVersion {
		it.wk.ReplicaSkew += int64(it.listVersion - version)
		*notModified = true
	}
}

// observe is the invocation's membership observation: s_first as folded
// so far for snapshot semantics, otherwise a fresh read — the lease's
// certificate, or a conditional List that certifies the held listing
// (NotModified) or replaces it. Every invocation pays it, on either path.
func (it *Iterator) observe(ctx context.Context) (map[spec.ElemID]bool, error) {
	if it.opts.Semantics.UsesSnapshot() {
		return it.first, nil
	}
	if it.leaseServe() {
		it.observed = true
		return it.curMembers, nil
	}
	ctx, lsp := it.opts.Tracer.StartSpan(it.traceCtx(ctx), "iter.list")
	defer lsp.End()
	var (
		refs        []repo.Ref
		version     uint64
		notModified bool
		err         error
	)
	if rt := it.set.router; rt != nil {
		var from replicaProbe
		refs, version, notModified, from, err = rt.listIfNew(ctx, it.listVersion)
		if err == nil {
			it.noteReplicaList(from, version, &notModified)
		}
	} else {
		refs, version, notModified, err = it.client.ListIfNew(ctx, it.set.dir, it.set.name, it.listVersion)
	}
	if err != nil {
		return nil, err
	}
	if !notModified {
		if it.observed && version != it.listVersion {
			// The listing changed under the run: membership skew the
			// caller can never distinguish from a slow iteration.
			it.wk.ListingSkew++
		}
		l := newListing(version, refs)
		it.adopt(l)
		it.set.publishListing(l)
	}
	it.observed = true
	return it.curMembers, nil
}

// adopt makes l the listing the run holds and rebuilds the cursor for it:
// l's yield order minus what the run already yielded (re-listed yielded
// members are suppressed — the "no duplicates" obligation).
func (it *Iterator) adopt(l *listing) {
	it.listVersion, it.curMembers, it.refs, it.nodes = l.version, l.members, l.refs, l.nodes
	it.cursor, it.yieldedGone = l.order, 0
	if len(it.yielded) == 0 {
		return
	}
	for id := range it.yielded {
		if !l.members[id] {
			it.yieldedGone++
		}
	}
	it.wk.DuplicatesSuppressed += int64(len(it.yielded) - it.yieldedGone)
	it.cursor = slices.DeleteFunc(slices.Clone(l.order), func(id spec.ElemID) bool { return it.yielded[id] })
}

// assembleState turns a membership map into the kernel's pre-state.
// Membership maps (it.first, it.curMembers) are never mutated once a
// state aliases them — the Recorder clones on record. Reachability is
// sampled fresh, once per distinct node: it is a link property, so
// members sharing a node share the answer within one sample.
func (it *Iterator) assembleState(members map[spec.ElemID]bool) spec.State {
	sample := make(map[netsim.NodeID]bool, 8)
	reach := make(map[spec.ElemID]bool, len(members))
	for id := range members {
		node := it.refs[id].Node
		up, ok := sample[node]
		if !ok {
			up = it.client.NodeReachable(node)
			sample[node] = up
		}
		if up {
			reach[id] = true
		}
	}
	return spec.State{Members: members, Reach: reach}
}

// Next advances the iterator: it either yields the next element (true) or
// terminates (false). After false, Err distinguishes normal termination
// (nil) from the failure exception, a blocking timeout, or context
// cancellation.
func (it *Iterator) Next(ctx context.Context) bool {
	if it.done || it.closed {
		return false
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
		members, err := it.observe(ctx)
		if err != nil {
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
		pre := spec.State{Members: members}
		d, fast := it.fastNext()
		if !fast {
			if it.opts.Recorder == nil && it.opts.Semantics.UsesSnapshot() && len(it.cursor) == 0 {
				if it.ingestActive() {
					// Every folded member is yielded but the opening listing is
					// still streaming: the kernel could only reach a terminal
					// decision about a prefix, which the terminal cases below wait
					// out anyway. Wait for the next partition directly instead of
					// paying a full kernel pass per arriving partition.
					if !it.waitIngest(ctx) {
						return false
					}
					continue
				}
				if len(it.yielded) >= len(it.first) {
					// The listing is complete and every snapshot member is
					// yielded (yielded ⊆ s_first always holds under snapshot
					// semantics, so equal sizes mean equal sets), which forces
					// stepSnapshot to Returned no matter what reachability this
					// invocation would sample. Conclude directly rather than
					// paying four O(members) scans to prove it.
					it.wk.Invocations++
					it.done = true
					return false
				}
			}
			// The fast path stood down: the kernel decides. s_first is read
			// here, not hoisted above the loop: the first non-empty fold may
			// swap it.first for a pre-sized map.
			pre = it.assembleState(members)
			it.kernelSteps++
			d = Step(it.opts.Semantics, spec.State{Members: it.first}, pre, it.yielded)
		}
		it.wk.Invocations++
		switch d.Kind {
		case DecideYield:
			if it.fetch(ctx, pre, d.Elem) {
				return true
			}
			if it.done {
				return false
			}
			// Fetch raced with a mutation or a failure: re-observe the
			// world and decide again.
			continue

		case DecideReturn:
			if it.ingestActive() {
				// The drained partitions are exhausted but the opening
				// listing is still streaming in: the decision is about a
				// prefix, not the snapshot. Wait for more.
				if !it.waitIngest(ctx) {
					return false
				}
				continue
			}
			it.record(pre, spec.Returned, "", false)
			it.countSkipped(pre)
			it.done = true
			return false

		case DecideFail:
			if it.ingestActive() {
				if !it.waitIngest(ctx) {
					return false
				}
				continue
			}
			it.record(pre, spec.Failed, "", false)
			it.countSkipped(pre)
			it.terminate(fmt.Errorf("%w: %s: unreachable members remain", ErrFailure, it.opts.Semantics))
			return false

		case DecideBlock:
			it.record(pre, spec.Blocked, "", false)
			if !it.blockPause(ctx) {
				return false
			}
		}
	}
}

// fastNext is the one stepper in front of Step, for every semantics: it
// produces the kernel's decision without the O(members) state assembly
// and scans, where that decision is provable cheaply (fastDecide, which
// ExhaustiveConformance checks against Step). It stands down, leaving
// the invocation to assembleState + Step, when a conformance Recorder is
// attached (recorded pre-states are full ones); when some member-holding
// node is unreachable in this invocation's sample; when the cursor is
// empty (every terminal decision stays with the kernel); and, except
// under the optimistic Fig. 6, when a yielded id has left the listing
// (the pessimistic Fig. 5 kernel must fail that run).
func (it *Iterator) fastNext() (Decision, bool) {
	for len(it.cursor) > 0 && it.yielded[it.cursor[0]] {
		it.cursor = it.cursor[1:]
	}
	if it.opts.Recorder != nil || len(it.cursor) == 0 {
		return Decision{}, false
	}
	// Reachability is still sampled fresh on every invocation, as the
	// spec demands — but per distinct node, not per member.
	allReachable := true
	for node := range it.nodes {
		if !it.client.NodeReachable(node) {
			allReachable = false
			break
		}
	}
	return fastDecide(it.opts.Semantics, it.cursor, allReachable, it.yieldedGone)
}

// prefetchWindow bounds how many candidates one prefetch replan hands
// the pipeline: enough to keep Inflight batches full several times
// over, small enough that building and sorting a plan never scales with
// the set — which is what keeps time-to-first-element (and the cost of
// each replan) independent of membership size.
func (it *Iterator) prefetchWindow() int {
	return it.opts.Fetch.Batch * it.opts.Fetch.Inflight * 4
}

// cursorCandidates lists what the run could yield after elem: the next
// prefetch window of unyielded members in yield order, elem first, less
// those the kernel's sample (reach, nil on the fast path) found
// unreachable. The prefetcher batches them by node for later Next calls.
func (it *Iterator) cursorCandidates(elem spec.ElemID, reach map[spec.ElemID]bool) []repo.Ref {
	limit := it.prefetchWindow()
	out := make([]repo.Ref, 0, limit)
	out = append(out, it.refs[elem])
	for _, id := range it.cursor {
		if len(out) >= limit {
			break
		}
		if id == elem || it.yielded[id] || (reach != nil && !reach[id]) {
			continue
		}
		out = append(out, it.refs[id])
	}
	return out
}

// fetch retrieves the chosen element's object. It returns true when the
// iterator yielded; false means the caller should re-observe (or the
// iterator terminated — check it.done). The prefetch candidates are
// planned lazily, on a miss.
func (it *Iterator) fetch(ctx context.Context, pre spec.State, elem spec.ElemID) bool {
	ref := it.refs[elem]
	obj, err := it.pf.fetch(it.traceCtx(ctx), ref, func() []repo.Ref { return it.cursorCandidates(elem, pre.Reach) })
	switch {
	case err == nil:
		it.yield(pre, ref, Element{Ref: ref, Data: obj.Data, Attrs: obj.Attrs, Stale: obj.Tombstone})
		return true

	case errors.Is(err, repo.ErrNotFound):
		it.fetchFails = 0
		switch it.opts.Semantics {
		case Immutable, ImmutablePerRun, Snapshot:
			// The snapshot still lists the member but its data is gone —
			// Fig. 4's tolerated anomaly. Yield the identity as stale.
			it.yield(pre, ref, Element{Ref: ref, Stale: true})
			return true
		case Optimistic:
			// Concurrently deleted; the next membership read drops it.
			return false
		default:
			// Grow-only: a member's data vanished, so the grow-only
			// discipline was broken under us. Pessimistic failure.
			it.record(pre, spec.Failed, "", false)
			it.terminate(fmt.Errorf("%w: member %q data missing: %v", ErrFailure, elem, err))
			return false
		}

	default:
		// Transport failure. The element may have become unreachable (the
		// kernel will see that next time) or the message was dropped (the
		// kernel will choose it again). Guard liveness on lossy links.
		it.fetchFails++
		it.wk.FetchFailures++
		if it.fetchFails >= maxConsecutiveFetchFailures && it.opts.Semantics != Optimistic {
			it.record(pre, spec.Failed, "", false)
			it.terminate(fmt.Errorf("%w: fetching %q kept failing: %v", ErrFailure, elem, err))
		}
		return false
	}
}

func (it *Iterator) yield(pre spec.State, ref repo.Ref, e Element) {
	it.record(pre, spec.Suspended, spec.ElemID(ref.ID), true)
	it.yielded[spec.ElemID(ref.ID)] = true
	it.wk.Yielded++
	if e.Stale {
		it.wk.GhostsServed++
	}
	it.elem = e
	it.blockedFor = 0
	it.fetchFails = 0
}

// countSkipped records, at a terminal decision, the members of the
// governing membership that were never yielded: existent but unreachable
// (or ghost-degraded) — the paper's central weakness, observable only
// here because a weak `elements` run gives the caller no other signal.
func (it *Iterator) countSkipped(pre spec.State) {
	// Every yielded id is a member, bar the yieldedGone that left.
	it.wk.UnreachableSkipped += int64(len(pre.Members) - len(it.yielded) + it.yieldedGone)
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

func (it *Iterator) record(pre spec.State, outcome spec.Outcome, yield spec.ElemID, hasYield bool) {
	if it.opts.Recorder != nil {
		it.opts.Recorder.Record(pre, outcome, yield, hasYield)
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
func (it *Iterator) Yielded() int { return len(it.yielded) }

// TraceID reports the run's trace id, or zero when the run was untraced
// or sampled out.
func (it *Iterator) TraceID() obs.TraceID { return it.span.TraceID() }

// Weakness returns the run's weakness report. It is complete after
// Close; before that it reflects the run so far.
func (it *Iterator) Weakness() obs.WeaknessReport { return it.wk }

// finishObs completes the run's weakness report and root span exactly
// once: outcome classification, snapshot age, prefetcher epoch retries,
// registry aggregation, span annotations.
func (it *Iterator) finishObs() {
	if it.obsDone {
		return
	}
	it.obsDone = true
	it.wk.EpochRetries = it.pf.epochRetries.Load()
	it.wk.CacheHits = it.pf.cacheHits.Load()
	it.wk.CacheValidatedHits = it.pf.cacheValidated.Load()
	it.wk.ReplicaServed += it.pf.replicaServed.Load()
	if age := time.Duration(it.pf.replicaAgeMs.Load()) * time.Millisecond; age > it.wk.GhostAge {
		it.wk.GhostAge = age
	}
	if it.ing != nil {
		// Scatter accounting accumulated by the stream goroutines.
		it.wk.ReplicaSkew += it.ing.replicaSkew.Load()
		it.wk.ReplicaServed += it.ing.replicaServed.Load()
		if age := time.Duration(it.ing.replicaAgeMs.Load()) * time.Millisecond; age > it.wk.GhostAge {
			it.wk.GhostAge = age
		}
	}
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
	// Release rides the run's trace so the closing unpin/unlock RPCs show
	// up as the trace's final spans; finishObs then seals the root span.
	it.release(it.traceCtx(ctx))
	it.finishObs()
	return nil
}
