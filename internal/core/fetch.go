package core

import (
	"cmp"
	"container/heap"
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"weaksets/internal/netsim"
	"weaksets/internal/obs"
	"weaksets/internal/repo"
)

// This file is the one element path behind every run, dynamic sets
// included: closest-first ordering (§1.1, "fetching 'closer' files
// first"), per-node batches issued in that order, answers handed out in
// completion order — an element only ever crosses the wire in a
// GetBatch. These are transport choices only: every yield is still
// decided by the run table against a freshly observed pre-state, and a
// ref yielded in place of the table's choice is one the figures' Yield
// allows, so the Fig. 3–6 semantics are untouched.

// FetchOptions tunes the Iterator's batched fetch path.
type FetchOptions struct {
	// Batch caps how many ids ride in one GetBatch RPC of a run's first
	// prefetch window. Defaults to 64. A run that outlives a window cuts
	// its later calls by bytes (prefetcher.sized): about callBytes of
	// answer each, within [Batch, 16 × Batch] ids; Batch: 1 stays one id
	// per round trip.
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

// callBytes is what a GetBatch call after a run's first window aims to
// carry: a quarter of the transport's kept buffer (tcprpc maxKeptBuf), so
// neither end outgrows it, and what a run holds in flight and parked is
// about Inflight × 4 × callBytes, whatever its objects' size.
const callBytes = 256 << 10

// chunkByNode splits members in yield order into per-node batches of at
// most size ids, in first-appearance order, each in yield order. Each
// chunk is allocated once, at size or the refs left when it opens; a
// node's open chunk is found by a scan, as nodes are few.
func chunkByNode(refs []member, size int) [][]member {
	var chunks [][]member
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
		chunks = append(chunks, append(make([]member, 0, min(size, len(refs)-k)), ref))
	}
	return chunks
}

// fetchChunk is one per-node batch, the unit of the prefetcher's
// bookkeeping: its refs (one node's, in yield order) — the slots — and
// the request, their ids ascending (a store answers a strictly ascending
// request without a duplicate check), with ord[j] the slot of ids[j]; the
// cache context it was planned under (the known versions to validate, the
// listing whose stamps and handles its installs take — nil for none)
// and, once landed, the answer parked by slot. One epoch and one error
// cover the whole batch.
type fetchChunk struct {
	refs  []member
	ids   []repo.ObjectID
	ord   []int32
	known map[repo.ObjectID]uint64
	img   *listing

	// Under the prefetcher's mu.
	landed bool
	objs   []repo.Object // as GetBatch returned them, in request order
	at     []int32       // per slot: an index into objs, slotMissing or slotTaken
	taken  int
	// next is the first slot not taken. The run asks for members in
	// yield order, so a chunk's next slot is almost always the one a fetch
	// wants, and every chunk's lies at or above the cursor.
	next  int
	slot  int // c's index in the live heap, −1 once retired
	epoch uint64
	err   error
}

// liveHeap orders the live chunks on their next slot, in yield order
// (container/heap). Every chunk's next slot lies at or above the cursor's
// head, so the chunk holding the head, which the run asks for, is the top.
type liveHeap []*fetchChunk

func (h liveHeap) Len() int { return len(h) }
func (h liveHeap) Less(a, b int) bool {
	return before(&h[a].refs[h[a].next], &h[b].refs[h[b].next])
}
func (h liveHeap) Swap(a, b int) {
	h[a], h[b] = h[b], h[a]
	h[a].slot, h[b].slot = a, b
}
func (h *liveHeap) Push(x any) {
	x.(*fetchChunk).slot = len(*h)
	*h = append(*h, x.(*fetchChunk))
}
func (h *liveHeap) Pop() any {
	c := (*h)[len(*h)-1]
	(*h)[len(*h)-1], *h, c.slot = nil, (*h)[:len(*h)-1], -1
	return c
}

const (
	slotMissing int32 = -1 // the answer lacks the slot's id
	slotTaken   int32 = -2 // fetch has handed the slot out, or a plan dropped it (sweep)
)

// take marks c's slot i taken and moves c.next past the taken slots.
func (p *prefetcher) take(c *fetchChunk, i int) {
	c.at[i] = slotTaken
	c.taken++
	p.parked.Add(-1)
	for c.next < len(c.refs) && c.at[c.next] == slotTaken {
		c.next++
	}
}

// prefetcher overlaps an Iterator's element fetches: the candidates the
// run could yield are grouped into per-node batches, issued
// closest-first and in that order under a bounded in-flight budget, and
// parked by position in the chunk that fetched them until the run takes
// them: the slot the run asked for or, while its batch is in flight,
// a landed one the run accepts instead (completion order). What the
// shared element cache may serve with no round trip is never planned or
// parked: it is served when the run asks for it (fetch).
//
// Two properties keep it semantics-preserving:
//
//   - every yield is still decided by the run table against a fresh
//     pre-state, and a landed slot stands in for the table's choice only
//     when the run accepts its ref under that pre-state, so a prefetched
//     object whose node has since partitioned is never yielded;
//   - results carry the client's mutation epoch; a result fetched before
//     this client's own later mutation is discarded and refetched,
//     preserving read-your-writes (a member the client itself deleted
//     still surfaces as the Fig. 4 stale-yield anomaly, never as live
//     cached data). A cache serve needs no epoch: it happens at yield, and
//     the client keeps the cache coherent with its own writes.
type prefetcher struct {
	client *repo.Client
	// size is the chunk size the next plan cuts at: Batch until the run
	// has landed an object, then what deliver last sized (next). Only
	// fetch writes it, on the iterator's goroutine, window's one caller.
	batch, size int
	tracer      *obs.Tracer
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
	// NotModified serves for the weakness report; only the iterator's
	// goroutine serves, workers validate. served is the no-RPC serves'
	// tally for the cache's stats, which close hands over.
	cacheHits      int64
	cacheValidated atomic.Int64
	served         repo.Tally

	// ctx outlives individual Next calls so batches pipeline across
	// yields; close cancels it and waits out the workers.
	ctx      context.Context
	cancel   context.CancelFunc
	inflight int
	wg       sync.WaitGroup

	mu sync.Mutex
	// queue holds the chunks not yet issued, in the order planLocked cut
	// them, which at most inflight workers take from its head — so the
	// closest node's batch is issued first at any Inflight.
	queue   []*fetchChunk
	workers int
	// wake is made by a fetch waiting for any batch to land and closed by
	// the next deliver; woke is the chunk that deliver landed.
	wake chan struct{}
	woke *fetchChunk
	// live holds the chunks launched and not yet retired: in flight, or
	// landed with a slot left to take.
	live liveHeap
	// parked counts the untaken slots across live, which window reads
	// without the lock.
	parked atomic.Int64
	// held and merge are planLocked's scratch: which candidates a live
	// chunk holds (sweep), and a chunk's request order (order).
	held  []bool
	merge []int32
	// plans counts replans, on the iterator's goroutine: the warm guard.
	plans int
	// landedBytes and landedObjs are the answers' bytes (answerBytes) and
	// objects landed so far, and next the chunk size they make (sized).
	landedBytes, landedObjs int64
	next                    int
}

// newPrefetcher builds the pipeline for a run over collection coll. base
// carries the run's trace context (or is plain Background for an untraced
// run), so batches issued between Next calls still belong to the run's
// trace.
func newPrefetcher(base context.Context, client *repo.Client, coll string, router *replicaRouter, tally *replicaTally, o FetchOptions, tracer *obs.Tracer) *prefetcher {
	ctx, cancel := context.WithCancel(base)
	return &prefetcher{
		client:   client,
		batch:    o.Batch,
		size:     o.Batch,
		next:     o.Batch,
		tracer:   tracer,
		router:   router,
		tally:    tally,
		cache:    client.ElementCache(),
		coll:     coll,
		ctx:      ctx,
		cancel:   cancel,
		inflight: o.Inflight,
	}
}

// window is how many candidates one replan hands the pipeline: enough to
// keep Inflight batches of the current size full several times over —
// Batch × Inflight × 4 before the run has landed an object. A
// replan while the live chunks still hold a first window's slots is a
// top-up — a fold landed members below the cursor — and a first window
// does.
func (p *prefetcher) window() int {
	if first := p.batch * p.inflight * 4; p.parked.Load() >= int64(first) {
		return first
	}
	return p.size * p.inflight * 4
}

// errMissing marks an id the holding node had no data for; it unwraps to
// repo.ErrNotFound so the iterator's stale/skip handling applies.
func errMissing(id repo.ObjectID) error {
	return fmt.Errorf("prefetch %q: %w", id, repo.ErrNotFound)
}

// fetch returns the object of ref — chosen, the cursor's head, member at
// of partition part of the listing im — or of a ref the run accepts in
// its place, with the ref it returns it for. It looks in three places, in
// order: the live chunk holding ref, whose batch is in flight or has
// landed; the cache, when direct — the invocation's certificate
// (Iterator.observe) that an entry fresh under its partition's version in
// im is exactly what the owner would ship — through im's handle on it;
// otherwise it replans,
// batching ref with the other candidates the run could yield next.
// While ref's batch is in flight it hands out a landed slot whose ref
// accept admits, waiting for the next landing only when there is none:
// a slow node never holds up what faster ones delivered. A transport
// error is returned for ref only, once per failed round trip, not once
// per batched id. candidates is consulted only on a replan, so a warm run
// builds no window at all; it lists ref first, then the cursor's next
// members in yield order, which sweep relies on. Until the first plan no
// chunk exists to hold ref, so the cache serves without mu.
func (p *prefetcher) fetch(ctx context.Context, chosen repo.Ref, part int, at int32, im *listing, direct bool, candidates func() []member, accept func(member) bool) (repo.Ref, repo.Object, error) {
	direct = direct && p.cache != nil
	ref := member{chosen, int32(part), at}
	unlocked := direct && p.plans == 0
	if unlocked {
		if obj, ok, err := p.serve(im, &ref); ok {
			return chosen, obj, err
		}
	}
	for ; ; unlocked = false {
		p.mu.Lock()
		c, i := p.find(ref)
		if c == nil {
			if direct && !unlocked {
				if obj, ok, err := p.serve(im, &ref); ok {
					p.mu.Unlock()
					return ref.Ref, obj, err
				}
			}
			// Replan only when ref's batch is not already in flight:
			// replanning on an in-flight miss would launch fragmentary
			// top-up batches for the few candidates the advancing window
			// has newly exposed.
			p.planLocked(candidates(), im, direct)
			if c, i = p.find(ref); c == nil {
				// Nothing was launched for ref: the pipeline is closed, or
				// ref turned fresh in the cache since the serve above
				// (another run's batch landed) and the next pass serves it.
				p.mu.Unlock()
				if err := p.ctx.Err(); err != nil {
					return ref.Ref, repo.Object{}, err
				}
				continue
			}
		}
		for !c.landed {
			if s, j := p.substitute(accept); s != nil {
				c, i = s, j
				break
			}
			if p.wake == nil {
				p.wake = make(chan struct{})
			}
			wake := p.wake
			p.mu.Unlock()
			select {
			case <-wake:
			case <-ctx.Done():
				return ref.Ref, repo.Object{}, ctx.Err()
			}
			p.mu.Lock()
			// Whatever landed first while this fetch waited goes first,
			// though ref's own batch may have landed since — unless that
			// batch failed, whose error is ref's to report.
			if w := p.woke; w != c && w.slot >= 0 && c.err == nil {
				if j := accepted(w, accept); j >= 0 {
					c, i = w, j
				}
			}
		}
		// One epoch covers the batch: fetched before this client's own
		// later mutation, every slot is stale, so the chunk retires and the
		// next plan re-batches what it still held together. Otherwise take
		// the slot; the chunk retires with its last one. A failed chunk is
		// retired already, and nothing is taken from it.
		if c.epoch != p.client.Mutations() {
			p.retire(c)
			p.mu.Unlock()
			p.epochRetries.Add(1)
			continue
		}
		err, k, got := c.err, slotMissing, ref.Ref
		if err == nil {
			k, got = c.at[i], c.refs[i].Ref
			if p.take(c, i); c.taken == len(c.refs) {
				p.retire(c)
			} else {
				heap.Fix(&p.live, c.slot)
			}
		}
		p.size = p.next
		p.mu.Unlock()
		switch {
		case err != nil:
			return ref.Ref, repo.Object{}, err
		case k == slotMissing:
			return ref.Ref, repo.Object{}, errMissing(ref.ID)
		}
		return got, c.objs[k], nil
	}
}

// serve hands out m's cache entry if it is fresh under its partition's
// stamp in im, through im's handle on it: its object, or a negative
// entry's missing error.
func (p *prefetcher) serve(im *listing, m *member) (obj repo.Object, ok bool, err error) {
	obj, negative, ok := p.cache.ServeAt(im.handle(p.cache, m.part, m.at), p.coll, im.stamp(m.part), m.ID, &p.served)
	if !ok {
		return repo.Object{}, false, nil
	}
	p.cacheHits++
	if negative {
		return repo.Object{}, true, errMissing(m.ID)
	}
	return obj, true, nil
}

// substitute returns a landed slot holding an object whose ref accept
// admits, and its chunk; nil when no landed chunk has one. Caller holds
// p.mu.
func (p *prefetcher) substitute(accept func(member) bool) (*fetchChunk, int) {
	for _, c := range p.live {
		if i := accepted(c, accept); i >= 0 {
			return c, i
		}
	}
	return nil, 0
}

// accepted returns the first untaken slot of landed chunk c holding an
// object whose ref accept admits, or −1. Only slots with an object stand
// in for the ref the run chose, so what fetch returns for another ref
// is always a yield; a missing one waits for the run to ask for it.
// Caller holds p.mu.
func accepted(c *fetchChunk, accept func(member) bool) int {
	for i := c.next; c.landed && i < len(c.refs); i++ {
		if c.at[i] >= 0 && accept(c.refs[i]) {
			return i
		}
	}
	return -1
}

// find returns the live chunk holding ref in a slot not yet taken, and
// the slot: the top chunk's next slot when ref is the cursor's head, as
// it almost always is; otherwise a chunk matches on node and the range
// from its next slot on, and a binary search finds the slot. Caller holds
// p.mu.
func (p *prefetcher) find(ref member) (*fetchChunk, int) {
	if len(p.live) > 0 && same(&p.live[0].refs[p.live[0].next], &ref) {
		return p.live[0], p.live[0].next
	}
	for _, c := range p.live {
		refs := c.refs[c.next:]
		if refs[0].Node != ref.Node || before(&ref, &refs[0]) || before(&refs[len(refs)-1], &ref) {
			continue
		}
		i, ok := 0, same(&refs[0], &ref)
		if !ok {
			i, ok = slices.BinarySearchFunc(refs, ref, cmpMember)
		}
		if ok && c.at[c.next+i] != slotTaken {
			return c, c.next + i
		}
	}
	return nil, 0
}

// retire drops c from live, if it is still there. Caller holds p.mu.
func (p *prefetcher) retire(c *fetchChunk) {
	if c.slot >= 0 {
		p.parked.Add(int64(c.taken - len(c.refs)))
		heap.Remove(&p.live, c.slot)
	}
}

// planLocked launches batches for every candidate that is neither in a
// live chunk (sweep) nor, when direct (which fetch leaves set only with a
// cache bound), fresh in the cache under its partition's stamp in im —
// read off im's handle on it, which a probe by id binds when it can:
// fetch serves that one when the run asks for it, and the check that
// leaves it out counts no hit, so a partly evicted warm run fetches
// exactly its evicted ids. With a cache bound the chunks carry the known
// versions for a conditional fetch, and im's stamps and handles take what
// they install. Chunks are cut at p.size ids. The plan filters candidates
// in place. Caller holds p.mu.
func (p *prefetcher) planLocked(candidates []member, im *listing, direct bool) {
	if p.ctx.Err() != nil {
		return
	}
	p.plans++
	chosen, whole := candidates[0], len(candidates) < p.window()
	held := p.sweep(candidates, whole)
	need := candidates[:0]
	for k, ref := range candidates {
		if held[k] || direct && p.cache.Bound(im.handle(p.cache, ref.part, ref.at), p.coll, im.stamp(ref.part), ref.ID) {
			continue
		}
		need = append(need, ref)
	}
	// A node's last chunk short of size waits for the next plan, which
	// cuts it whole with the members after it — unless it holds the run's
	// choice, or the candidates reach the cursor's end.
	chunks, total := chunkByNode(need, p.size), 0
	chunks = slices.DeleteFunc(chunks, func(c []member) bool { return len(c) < p.size && !whole && !same(&c[0], &chosen) })
	for _, c := range chunks {
		total += len(c)
	}
	if total == 0 {
		return
	}
	// Closest node first, by estimated round-trip time; ties keep the
	// order the chunks were cut in, so the order is deterministic for a
	// fixed network.
	slices.SortStableFunc(chunks, func(a, b []member) int {
		return cmp.Compare(p.client.EstimateRTT(a[0].Ref), p.client.EstimateRTT(b[0].Ref))
	})
	// Every chunk's ids, request order and slots are cut from one slice
	// each.
	ids, ord, at := make([]repo.ObjectID, total), make([]int32, total), make([]int32, total)
	for _, refs := range chunks {
		n := len(refs)
		c := &fetchChunk{refs: refs, ids: ids[:n:n], ord: ord[:n:n], at: at[:n:n], img: im}
		ids, ord, at = ids[n:], ord[n:], at[n:]
		p.merge = order(refs, c.ord, p.merge)
		for j, i := range c.ord {
			id := refs[i].ID
			c.ids[j] = id
			if p.cache == nil {
				continue
			}
			if v, ok := p.cache.Version(id); ok {
				if c.known == nil {
					c.known = make(map[repo.ObjectID]uint64, n)
				}
				c.known[id] = v
			}
		}
		heap.Push(&p.live, c)
		p.queue = append(p.queue, c)
	}
	for n := min(p.inflight-p.workers, len(p.queue)); n > 0; n-- {
		p.workers++
		p.wg.Add(1)
		go p.work()
	}
	p.parked.Add(int64(total))
}

// sized is the chunk size for the plans after a run's first landing: as
// many ids as make callBytes of answer at the mean answer bytes per object
// the run has landed, within [Batch, 16 × Batch] — so a chunk of large
// objects is narrower than one of small, and what a run holds is bounded
// in bytes, not ids. Batch: 1 stays 1. Caller holds p.mu.
func (p *prefetcher) sized() int {
	if p.batch == 1 || p.landedObjs == 0 {
		return p.batch
	}
	return min(max(int(callBytes*p.landedObjs/p.landedBytes), p.batch), 16*p.batch)
}

// answerBytes is about what objs cost in a GetBatch answer: each object's
// id, data and attributes, and a few bytes of lengths, version and flags.
func answerBytes(objs []repo.Object) (n int64) {
	for i := range objs {
		o := &objs[i]
		n += int64(len(o.ID) + len(o.Data) + 8)
		for k, v := range o.Attrs {
			n += int64(len(k) + len(v) + 2)
		}
	}
	return n
}

// order fills ord with the positions of refs by ascending id and returns
// buf, its scratch, for reuse. refs are in yield order — ascending by id
// within each partition they span — so the partitions' runs are merged
// pairwise, then the merged runs pairwise, until one is left: n log P for
// a chunk spanning P partitions, where a sort would be n log n. buf holds
// the merge's other n positions, then the runs' ends.
func order(refs []member, ord, buf []int32) []int32 {
	n := len(refs)
	for i := range ord {
		ord[i] = int32(i)
	}
	buf = slices.Grow(buf[:0], n+1)[:n]
	for e := 1; e <= n; e++ {
		if e == n || refs[e].part != refs[e-1].part {
			buf = append(buf, int32(e))
		}
	}
	src, dst, ends := ord, buf[:n], buf[n:]
	for len(ends) > 1 {
		k := 0
		for r, s := 0, int32(0); r < len(ends); r, k = r+2, k+1 {
			m, e := ends[r], ends[min(r+1, len(ends)-1)]
			a, b, j := src[s:m], src[m:e], s
			for ; len(a) > 0 && len(b) > 0; j++ {
				if refs[b[0]].ID < refs[a[0]].ID {
					dst[j], b = b[0], b[1:]
				} else {
					dst[j], a = a[0], a[1:]
				}
			}
			copy(dst[j+int32(copy(dst[j:], a)):], b)
			ends[k], s = e, e
		}
		src, dst, ends = dst, src, ends[:k]
	}
	if n > 0 && &src[0] != &ord[0] {
		copy(ord, src)
	}
	return buf
}

// sweep reports which candidates a live chunk holds in an untaken slot,
// and drops the landed slots the candidates show the run will not ask
// for. candidates are the run's choice — in no live chunk, or fetch
// would not be planning — then the cursor's next members in yield order;
// a chunk's refs are in yield order too, so each chunk is merged against
// them, a step per ref instead of a scan of the chunks per candidate. A
// landed slot the merge passes unlisted — below the candidates, or among
// them but not listed — is no member the cursor still holds: a
// current-state listing dropped it, or the run's sample found its node
// down, and a refetch serves it if it is asked for again. Dropping it lets
// its chunk retire instead of holding the answer, and lengthening every
// find, to the end of the run. whole says the candidates reached the
// cursor's end — fewer than a window — so then nothing above them is
// listed either. Caller holds p.mu.
func (p *prefetcher) sweep(candidates []member, whole bool) []bool {
	if cap(p.held) < len(candidates) {
		p.held = make([]bool, len(candidates))
	}
	held := p.held[:len(candidates)]
	clear(held)
	chosen, rest := candidates[0], candidates[1:]
	live := p.live[:0]
	for _, c := range p.live {
		j, _ := slices.BinarySearchFunc(rest, c.refs[c.next], cmpMember)
		for i := c.next; i < len(c.refs); i++ {
			ref := &c.refs[i]
			if j < len(rest) && before(&rest[j], ref) {
				j = seek(rest, j, ref)
			}
			if j == len(rest) && !whole {
				break // the chunk's other refs lie past the candidates
			}
			switch {
			case c.landed && c.at[i] == slotTaken:
			case j < len(rest) && same(&rest[j], ref):
				held[1+j] = true
			case c.landed && !same(ref, &chosen):
				p.take(c, i)
			}
		}
		if c.taken < len(c.refs) {
			c.slot, live = len(live), append(live, c)
		} else {
			c.slot = -1
		}
	}
	clear(p.live[len(live):])
	p.live = live
	heap.Init(&p.live) // a drop moves its chunk's next slot
	return held
}

// seek returns the first k > j with refs[k] at or past key in yield
// order, given refs[j] before it: it gallops from j, then binary-searches
// the last stride, so a chunk sparse among the candidates costs a
// logarithm of each gap it skips, not the gap.
func seek(refs []member, j int, key *member) int {
	step := 1
	for j+step < len(refs) && before(&refs[j+step], key) {
		j, step = j+step, 2*step
	}
	k, _ := slices.BinarySearchFunc(refs[j+1:min(j+step, len(refs))], *key, cmpMember)
	return j + 1 + k
}

// work issues the queued batches, the queue's head each time, until the
// queue is empty.
func (p *prefetcher) work() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		if len(p.queue) == 0 {
			p.workers--
			p.mu.Unlock()
			return
		}
		c := p.queue[0]
		p.queue[0], p.queue = nil, p.queue[1:]
		p.mu.Unlock()
		p.run(c)
	}
}

// run issues one per-node batch and hands its answer to deliver.
func (p *prefetcher) run(c *fetchChunk) {
	if err := p.ctx.Err(); err != nil {
		p.deliver(c, nil, err, p.client.Mutations())
		return
	}
	epoch := p.client.Mutations()
	bctx, span := p.tracer.StartSpan(p.ctx, "fetch.batch")
	span.SetAttr("node", string(c.refs[0].Node))
	span.SetInt("ids", int64(len(c.ids)))
	span.SetInt("known", int64(len(c.known)))
	var (
		objs []repo.Object
		err  error
	)
	if p.cache != nil {
		// Conditional batches stay owner-routed: a replica's object
		// versions can lag the client's known versions, and a conditional
		// answer is only meaningful against the version authority.
		objs, err = p.fetchValidated(bctx, c)
	} else {
		objs, err = p.fetchPlain(bctx, c.refs[0].Node, c.ids)
	}
	if span != nil {
		if err != nil {
			span.SetAttr("error", err.Error())
		}
		span.End()
	}
	p.deliver(c, objs, err, epoch)
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
// node, ids (in request order) and the known versions fully determine the
// response, so concurrent iterators planning the same chunk share one
// round trip.
func flightKey(node netsim.NodeID, ids []repo.ObjectID, known map[repo.ObjectID]uint64) string {
	var b strings.Builder
	b.WriteString("batch|")
	b.WriteString(string(node))
	for _, id := range ids {
		b.WriteByte('|')
		b.WriteString(string(id))
		if v, ok := known[id]; ok {
			b.WriteByte('=')
			b.WriteString(strconv.FormatUint(v, 10))
		}
	}
	return b.String()
}

// fetchValidated issues one conditional batch through the cache's
// singleflight group: full objects ship only for ids whose version
// moved, NotModified ids serve from cache, and missing ids are cached
// negatively, each under its partition's stamp in the listing the chunk
// was planned over, binding the listing's handle on its slot. The leader
// installs results; every caller (leader and joiners) assembles its own
// answer, in request order, so deliver sees one coherent answer per
// chunk.
func (p *prefetcher) fetchValidated(ctx context.Context, c *fetchChunk) ([]repo.Object, error) {
	node := c.refs[0].Node
	v, _ := p.cache.Do(flightKey(node, c.ids, c.known), func() any {
		objs, notModified, missing, err := p.client.GetBatchValidated(ctx, node, c.ids, c.known)
		if err != nil {
			return &batchFlight{err: err}
		}
		// Installed in slot order, the order runs are served in: the cache
		// lays its copies out as they are installed, and a warm run that
		// walks them in another order misses the CPU cache on each.
		for i, k := range c.park(objs, make([]int32, len(c.refs))) {
			if k >= 0 {
				h, st := c.cached(p.cache, i)
				p.cache.PutAt(h, p.coll, st, objs[k])
			}
		}
		j := 0
		for _, id := range missing {
			h, st := c.answered(p.cache, id, &j)
			p.cache.PutNegativeAt(h, p.coll, st, id)
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
	j := 0
	for _, id := range res.notModified {
		h, st := c.answered(p.cache, id, &j)
		if obj, ok := p.cache.ValidateAt(h, p.coll, st, id); ok {
			validated = append(validated, obj)
			p.cacheValidated.Add(1)
		} else {
			evicted = append(evicted, id)
		}
	}
	out := mergeByPosition(c.ids, res.objs, validated)
	if len(evicted) > 0 {
		// The entry vanished between planning and the NotModified answer
		// (eviction race): refetch those ids unconditionally.
		objs, _, err := p.client.GetBatch(ctx, node, evicted)
		if err != nil {
			return nil, err
		}
		j = 0
		for _, obj := range objs {
			h, st := c.answered(p.cache, obj.ID, &j)
			p.cache.PutAt(h, p.coll, st, obj)
		}
		out = mergeByPosition(c.ids, out, objs)
	}
	return out, nil
}

// deliver parks one batch's answer in its chunk — objs in request order,
// matched to the ids by position and so to their slots — sizes the later
// plans' chunks by what has landed, and wakes the fetch waiting for a
// landing, if any. A failed batch retires at once: its
// error reaches the fetch that asked for one of its refs only, and a later
// fetch re-batches the chunk's other refs, which is what makes a failed
// batch count once per round trip in the iterator's liveness accounting.
func (p *prefetcher) deliver(c *fetchChunk, objs []repo.Object, err error, epoch uint64) {
	bytes := answerBytes(objs)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.landedBytes, p.landedObjs = p.landedBytes+bytes, p.landedObjs+int64(len(objs))
	p.next = p.sized()
	c.landed, c.objs, c.epoch, c.err = true, objs, epoch, err
	if err != nil {
		p.retire(c)
	} else {
		c.park(objs, c.at)
	}
	if p.wake != nil {
		close(p.wake)
		p.wake, p.woke = nil, c
	}
}

// cached returns slot i's handle on cache and stamp, in the listing c was
// planned over.
func (c *fetchChunk) cached(cache *repo.Cache, i int) (*repo.Handle, repo.Stamp) {
	m := &c.refs[i]
	return c.img.handle(cache, m.part, m.at), c.img.stamp(m.part)
}

// answered is cached for the slot of id, which c's request holds at or
// after position *j — an answer names its ids in request order — moving
// *j past it; an id the request does not hold has neither.
func (c *fetchChunk) answered(cache *repo.Cache, id repo.ObjectID, j *int) (*repo.Handle, repo.Stamp) {
	for ; *j < len(c.ids); *j++ {
		if c.ids[*j] == id {
			*j++
			return c.cached(cache, int(c.ord[*j-1]))
		}
	}
	return nil, repo.Stamp{}
}

// park maps objs, an answer to c's request in request order, onto c's
// slots: it sets at[i] to slot i's index into objs, or slotMissing.
func (c *fetchChunk) park(objs []repo.Object, at []int32) []int32 {
	k := 0
	for j, i := range c.ord {
		at[i] = slotMissing
		if k < len(objs) && objs[k].ID == c.ids[j] {
			at[i], k = int32(k), k+1
		}
	}
	return at
}

// close cancels in-flight batches, waits for the workers to exit and
// hands the run's serves to the cache's stats.
func (p *prefetcher) close() {
	p.cancel()
	p.wg.Wait()
	if p.cache != nil {
		p.cache.Count(p.served)
		p.served = repo.Tally{}
	}
}
