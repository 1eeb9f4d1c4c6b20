package repo

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"weaksets/internal/netsim"
	"weaksets/internal/obs"
	"weaksets/internal/rpc"
	"weaksets/internal/store"
)

// This file is the push-invalidation protocol (DESIGN.md §13): the
// server side grants time-bounded leases on collection listing versions
// and pushes compact Invalidation frames down a long-lived Watch stream;
// the client side holds the leases and answers "is my cached listing
// still current?" without a round trip. A lease is a promise to tell,
// not a lock: a briefly-stale lease-held read is the same legal weakness
// the paper's semantics already tolerate, now measured by
// WeaknessReport.LeaseServed/LeaseAge instead of hidden behind a
// revalidation RPC.
//
// Soundness rests on one ordering rule at each end. The server registers
// a lease before reading the listing version it grants, so any
// concurrent bump lands in the holder's queue (possibly alongside a
// grant that already reflects it — the client folds by max version). The
// client opens its Watch stream before acquiring any lease, so there is
// no window where a granted lease has no stream to be invalidated on.
// Everything else degrades instead of breaking: a dropped connection or
// an expired TTL just ends the stream, the client discards its leases,
// and reads fall back to the conditional revalidation path (PR 5) they
// used before leases existed.

// DefaultLeaseTTL is the lease duration servers grant unless configured
// otherwise. It is wall-clock time: long enough that the client's
// half-TTL renewal cadence is cheap, short enough that a holder that
// vanished without closing its connection stops costing pushes quickly.
const DefaultLeaseTTL = 30 * time.Second

// invKey coalesces pending invalidations: one slot per (collection,
// partition), latest version wins. A slow or stalled watch consumer
// therefore bounds the server's queue by collections × partitions, not
// by write rate.
type invKey struct {
	coll string
	part int
}

// leaseHolder is one client's lease book and pending push queue, keyed
// by the node the client calls from.
type leaseHolder struct {
	mu      sync.Mutex
	leases  map[string]time.Time // collection -> expiry
	pending map[invKey]Invalidation
	order   []invKey
	// gen numbers the holder's watch streams; a stream whose gen is
	// stale has been superseded and ends. notify is buffered(1) and
	// signaled on every enqueue and supersede.
	gen    int
	notify chan struct{}
}

func (h *leaseHolder) signal() {
	select {
	case h.notify <- struct{}{}:
	default:
	}
}

// leaseHub is the server's lease table: every holder, the grant TTL, and
// the fan-out from store change events to holder queues.
type leaseHub struct {
	ttl atomic.Int64 // time.Duration; atomic so tests can shorten it

	mu      sync.Mutex
	holders map[netsim.NodeID]*leaseHolder
	closed  chan struct{}
	once    sync.Once
}

func newLeaseHub(ttl time.Duration) *leaseHub {
	hub := &leaseHub{
		holders: make(map[netsim.NodeID]*leaseHolder),
		closed:  make(chan struct{}),
	}
	hub.ttl.Store(int64(ttl))
	return hub
}

func (hub *leaseHub) leaseTTL() time.Duration { return time.Duration(hub.ttl.Load()) }

func (hub *leaseHub) close() {
	hub.once.Do(func() { close(hub.closed) })
}

func (hub *leaseHub) holder(from netsim.NodeID) *leaseHolder {
	hub.mu.Lock()
	defer hub.mu.Unlock()
	h, ok := hub.holders[from]
	if !ok {
		h = &leaseHolder{
			leases:  make(map[string]time.Time),
			pending: make(map[invKey]Invalidation),
			notify:  make(chan struct{}, 1),
		}
		hub.holders[from] = h
	}
	return h
}

// grant registers (or renews) leases for the caller and reads the
// versions it certifies. The lease is registered before its version is
// read — the ordering that makes a concurrent bump land in the push
// queue rather than vanish.
func (hub *leaseHub) grant(from netsim.NodeID, colls []string, st store.Store) LeaseGrant {
	ttl := hub.leaseTTL()
	h := hub.holder(from)
	expiry := time.Now().Add(ttl)
	h.mu.Lock()
	for _, coll := range colls {
		h.leases[coll] = expiry
	}
	h.mu.Unlock()

	versions := make(map[string]uint64, len(colls))
	var unknown []string
	for _, coll := range colls {
		v, err := st.ListVersion(coll)
		if err != nil {
			unknown = append(unknown, coll)
			continue
		}
		versions[coll] = v
	}
	if len(unknown) > 0 {
		h.mu.Lock()
		for _, coll := range unknown {
			delete(h.leases, coll)
		}
		h.mu.Unlock()
	}
	return LeaseGrant{TTL: ttl, Versions: versions}
}

// touch implicitly renews every unexpired lease the caller holds — the
// piggyback renewal every served RPC performs.
func (hub *leaseHub) touch(from netsim.NodeID) {
	hub.mu.Lock()
	h := hub.holders[from]
	hub.mu.Unlock()
	if h == nil {
		return
	}
	now := time.Now()
	expiry := now.Add(hub.leaseTTL())
	h.mu.Lock()
	for coll, exp := range h.leases {
		if exp.After(now) {
			h.leases[coll] = expiry
		}
	}
	h.mu.Unlock()
}

// invalidate fans one committed listing change out to every holder with
// an unexpired lease on the collection. It runs on the mutating
// goroutine (the store fires change events outside its locks), so it
// only moves the event into per-holder queues; shipping is the watch
// streams' job.
func (hub *leaseHub) invalidate(ev store.ChangeEvent) {
	hub.mu.Lock()
	holders := make([]*leaseHolder, 0, len(hub.holders))
	for _, h := range hub.holders {
		holders = append(holders, h)
	}
	hub.mu.Unlock()
	now := time.Now()
	for _, h := range holders {
		h.enqueue(ev, now)
	}
}

func (h *leaseHolder) enqueue(ev store.ChangeEvent, now time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	exp, leased := h.leases[ev.Coll]
	if !leased {
		return
	}
	if !exp.After(now) {
		// Lazy expiry: the lease lapsed without renewal, so the holder
		// stops costing pushes here rather than on a timer.
		delete(h.leases, ev.Coll)
		return
	}
	k := invKey{coll: ev.Coll, part: ev.Part}
	if prev, ok := h.pending[k]; ok {
		if ev.Version > prev.Version {
			h.pending[k] = Invalidation{Coll: ev.Coll, Part: ev.Part, Version: ev.Version}
		}
	} else {
		h.pending[k] = Invalidation{Coll: ev.Coll, Part: ev.Part, Version: ev.Version}
		h.order = append(h.order, k)
	}
	h.signal()
}

// watch opens (or supersedes) the holder's invalidation stream.
func (hub *leaseHub) watch(ctx context.Context, from netsim.NodeID) *watchStream {
	h := hub.holder(from)
	h.mu.Lock()
	h.gen++
	gen := h.gen
	h.mu.Unlock()
	// Wake any superseded stream so it notices and exits.
	h.signal()
	return &watchStream{ctx: ctx, hub: hub, h: h, gen: gen}
}

// watchStream delivers a holder's pending invalidations as a long-lived
// rpc.Streamer. Next blocks until an invalidation is queued; the stream
// ends — always cleanly, from the protocol's point of view — when the
// consumer's context is cancelled (connection teardown), the server
// closes, or a newer Watch supersedes it. Lease loss is the client's
// inference from the end of the stream, not an error code.
type watchStream struct {
	ctx context.Context
	hub *leaseHub
	h   *leaseHolder
	gen int
}

func (ws *watchStream) Next() (any, bool) {
	for {
		ws.h.mu.Lock()
		if ws.h.gen != ws.gen {
			ws.h.mu.Unlock()
			// Pass the wakeup on: the superseding stream may be waiting
			// on the same notify channel.
			ws.h.signal()
			return nil, false
		}
		if len(ws.h.order) > 0 {
			k := ws.h.order[0]
			ws.h.order = ws.h.order[1:]
			inv := ws.h.pending[k]
			delete(ws.h.pending, k)
			ws.h.mu.Unlock()
			return inv, true
		}
		ws.h.mu.Unlock()
		select {
		case <-ws.h.notify:
		case <-ws.ctx.Done():
			return nil, false
		case <-ws.hub.closed:
			return nil, false
		}
	}
}

func (ws *watchStream) Err() error { return nil }

// --- Client side ---------------------------------------------------------

// LeaseStats is a LeaseState's counter snapshot, surfaced in /stats and
// the Prometheus families.
type LeaseStats struct {
	// Active reports a live watch stream.
	Active bool `json:"active"`
	// Held is the number of collections currently leased.
	Held int `json:"held"`
	// Grants counts first-time lease acquisitions; Renewals counts
	// re-grants of a lease already held.
	Grants   int64 `json:"grants"`
	Renewals int64 `json:"renewals"`
	// Invalidations counts pushed Invalidation frames applied.
	Invalidations int64 `json:"invalidations"`
	// Breaks counts leases lost to stream end (connection drop, server
	// close, Stop).
	Breaks int64 `json:"breaks"`
}

// leaseEntry is one held lease: the latest listing version the server
// has certified (grant or push, folded by max), when it expires, and
// when the version was last confirmed — the age a lease-served read
// reports.
type leaseEntry struct {
	version   uint64
	expiry    time.Time
	confirmed time.Time
}

// LeaseState holds a client's leases against one directory node and owns
// the Watch stream they are invalidated on. Attach it with
// Client.UseLeases; the iterator hot path consults it through Serveable,
// which takes no lock.
//
// Degradation is the design: if the node does not serve Watch
// (ErrNoMethod) or the stream ends, the state simply stops reporting
// Serveable and reads fall back to conditional revalidation. Start must
// be called again to re-arm after a break.
type LeaseState struct {
	client *Client
	dir    netsim.NodeID

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	wake   chan struct{}

	mu      sync.Mutex
	started bool
	ttl     time.Duration
	want    map[string]struct{}
	// leases is published copy-on-write (writers hold mu, clone, modify,
	// Store) for Serveable to read with no lock; nil while inactive.
	leases atomic.Pointer[map[string]leaseEntry]

	grants   atomic.Int64
	renewals atomic.Int64
	invals   atomic.Int64
	breaks   atomic.Int64

	journal *obs.Journal
}

// UseJournal makes the holder record a lease.break event whenever its
// leases drop (stream loss). Call before Start.
func (ls *LeaseState) UseJournal(j *obs.Journal) { ls.journal = j }

// NewLeaseState creates a lease holder for collections on the directory
// node dir. The named collections are acquired at Start; more join
// on-demand via Track.
func NewLeaseState(client *Client, dir netsim.NodeID, colls ...string) *LeaseState {
	ls := &LeaseState{
		client: client,
		dir:    dir,
		wake:   make(chan struct{}, 1),
		want:   make(map[string]struct{}, len(colls)),
	}
	for _, coll := range colls {
		ls.want[coll] = struct{}{}
	}
	return ls
}

// Dir reports the directory node this state leases against.
func (ls *LeaseState) Dir() netsim.NodeID { return ls.dir }

// Start opens the Watch stream and acquires the initial leases. It is
// the ordering-sensitive half of the protocol: the stream must exist
// before the first grant, so no invalidation can fall between them.
// A node that does not serve Watch (a gateway registered without the
// method, say) leaves the state inactive (reads run leaseless) and Start
// returns nil; every other failure is reported as an error.
func (ls *LeaseState) Start(ctx context.Context) error {
	ls.mu.Lock()
	if ls.started {
		ls.mu.Unlock()
		return errors.New("repo: lease state already started")
	}
	ls.started = true
	ls.mu.Unlock()
	ls.ctx, ls.cancel = context.WithCancel(ctx)

	out, _, err := ls.client.bus.Call(ls.ctx, ls.client.node, ls.dir, MethodWatch, WatchReq{})
	if err != nil {
		ls.reset()
		if errors.Is(err, rpc.ErrNoMethod) {
			// The node does not serve Watch: no watch, no leases, no
			// error — the degradation ladder's bottom rung.
			return nil
		}
		return err
	}
	st, ok := out.(rpc.Streamer)
	if !ok {
		ls.reset()
		return fmt.Errorf("rpc %s: unexpected response type %T", MethodWatch, out)
	}

	ls.mu.Lock()
	ls.leases.Store(&map[string]leaseEntry{})
	ls.mu.Unlock()

	ls.wg.Add(1)
	go ls.consume(st)

	// First acquisition is synchronous, so callers observe held leases
	// when Start returns and the renewal loop arms for the granted TTL.
	ls.acquire()
	ls.wg.Add(1)
	go ls.renewLoop()
	return nil
}

// reset marks the state re-startable after a failed or degraded Start.
func (ls *LeaseState) reset() {
	ls.cancel()
	ls.mu.Lock()
	ls.started = false
	ls.mu.Unlock()
}

// Stop cancels the stream and waits out the background goroutines. The
// state can be Started again.
func (ls *LeaseState) Stop() {
	ls.mu.Lock()
	if !ls.started {
		ls.mu.Unlock()
		return
	}
	ls.mu.Unlock()
	ls.cancel()
	ls.wg.Wait()
	ls.mu.Lock()
	ls.started = false
	ls.mu.Unlock()
}

// consume applies pushed invalidations until the stream ends, then
// breaks every held lease: a vanished stream means pushes may have been
// lost, so the leases are no longer trustworthy.
func (ls *LeaseState) consume(st rpc.Streamer) {
	defer ls.wg.Done()
	for {
		chunk, ok := st.Next()
		if !ok {
			break
		}
		inv, ok := chunk.(Invalidation)
		if !ok {
			continue
		}
		ls.apply(inv)
	}
	ls.breakAll()
}

// held returns the published lease map (read-only), nil while inactive.
func (ls *LeaseState) held() map[string]leaseEntry {
	if m := ls.leases.Load(); m != nil {
		return *m
	}
	return nil
}

// publish stores a copy of the held leases with fn applied; an inactive
// state publishes nothing. Caller holds ls.mu.
func (ls *LeaseState) publish(fn func(map[string]leaseEntry)) {
	if cur := ls.held(); cur != nil {
		m := maps.Clone(cur)
		fn(m)
		ls.leases.Store(&m)
	}
}

// apply folds one pushed invalidation: the lease survives, its certified
// version advances, and the next read that consults it revalidates
// conditionally (one RPC) before lease-serving resumes.
func (ls *LeaseState) apply(inv Invalidation) {
	now := time.Now()
	ls.mu.Lock()
	if e, ok := ls.held()[inv.Coll]; ok && inv.Version > e.version {
		e.version = inv.Version
		e.confirmed = now
		ls.publish(func(m map[string]leaseEntry) { m[inv.Coll] = e })
	}
	ls.mu.Unlock()
	ls.invals.Add(1)
}

// breakAll drops every lease (stream gone ⇒ pushes may be lost) and
// queues the collections for re-acquisition on a future Start.
func (ls *LeaseState) breakAll() {
	ls.mu.Lock()
	held := ls.held()
	colls := make([]string, 0, len(held))
	for coll := range held {
		ls.want[coll] = struct{}{}
		colls = append(colls, coll)
	}
	ls.leases.Store(nil)
	ls.mu.Unlock()
	ls.breaks.Add(int64(len(colls)))
	for _, coll := range colls {
		ls.journal.Record(obs.Event{
			Type: obs.EvLeaseBreak, Node: string(ls.dir), Collection: coll,
			Detail: "watch stream lost; lease dropped pending re-acquisition",
		})
	}
}

// renewLoop re-grants held leases at half TTL — the client-side clock
// that keeps a read-only holder leased (server-side piggyback renewal
// only helps holders that still make calls) — and picks up Tracked
// collections.
func (ls *LeaseState) renewLoop() {
	defer ls.wg.Done()
	for {
		ls.mu.Lock()
		ttl := ls.ttl
		ls.mu.Unlock()
		if ttl <= 0 {
			ttl = DefaultLeaseTTL
		}
		t := time.NewTimer(ttl / 2)
		select {
		case <-ls.ctx.Done():
			t.Stop()
			return
		case <-ls.wake:
			t.Stop()
		case <-t.C:
		}
		ls.acquire()
	}
}

// acquire grants (or renews) every wanted and held lease in one Lease
// RPC. Failures are left for the next renewal tick; a node that does not
// serve Lease deactivates leasing outright.
func (ls *LeaseState) acquire() {
	ls.mu.Lock()
	held := ls.held()
	if held == nil {
		ls.mu.Unlock()
		return
	}
	colls := make([]string, 0, len(ls.want)+len(held))
	for coll := range ls.want {
		colls = append(colls, coll)
	}
	for coll := range held {
		if _, ok := ls.want[coll]; !ok {
			colls = append(colls, coll)
		}
	}
	ls.mu.Unlock()
	if len(colls) == 0 {
		return
	}

	// The expiry clock starts before the request goes out: the server
	// measures its TTL from grant time, which is strictly later, so a
	// client that stops believing at asked+TTL can never outlive the
	// server's own bookkeeping — a push dropped after the server reaps
	// is then provably a push the client no longer relies on.
	asked := time.Now()
	grant, err := rpc.Invoke[LeaseGrant](ls.ctx, ls.client.bus, ls.client.node, ls.dir, MethodLease, LeaseReq{Colls: colls})
	if err != nil {
		if errors.Is(err, rpc.ErrNoMethod) {
			ls.breakAll()
		}
		return
	}
	now := asked
	expiry := asked.Add(grant.TTL)
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.ttl = grant.TTL
	// After a break while the grant was in flight nothing is published,
	// and want keeps the collections for the next Start.
	ls.publish(func(leases map[string]leaseEntry) {
		for _, coll := range colls {
			v, granted := grant.Versions[coll]
			if !granted {
				// Unknown collection: drop it rather than re-asking every
				// tick; a later Track re-queues it.
				delete(ls.want, coll)
				continue
			}
			e, held := leases[coll]
			if !held {
				ls.grants.Add(1)
				e = leaseEntry{version: v, confirmed: now}
			} else {
				ls.renewals.Add(1)
			}
			if v > e.version {
				e.version = v
				e.confirmed = now
			}
			e.expiry = expiry
			leases[coll] = e
			delete(ls.want, coll)
		}
	})
}

// Track queues a collection for lease acquisition. It is cheap and
// non-blocking — the hot path calls it once per run — and a no-op for
// collections already leased or queued.
func (ls *LeaseState) Track(coll string) {
	ls.mu.Lock()
	_, held := ls.held()[coll]
	_, queued := ls.want[coll]
	if held || queued {
		ls.mu.Unlock()
		return
	}
	ls.want[coll] = struct{}{}
	ls.mu.Unlock()
	select {
	case ls.wake <- struct{}{}:
	default:
	}
}

// Serveable reports whether a read of coll may skip revalidation: ok
// means a live stream and an unexpired lease, version is the latest
// listing version the server certified (grant or push), and age is the
// time since that certification — the staleness bound a lease-served
// read carries into the weakness report. The caller still compares
// version against its own cached listing version; a pushed bump makes
// that comparison fail, which is exactly the conditional-revalidate
// fallback.
// It takes no lock and reads the monotonic clock once, after loading the
// map, whose stamps were all taken before it was published: the age is
// never negative. A lease expires when its age reaches expiry − confirmed.
func (ls *LeaseState) Serveable(coll string) (version uint64, age time.Duration, ok bool) {
	e, held := ls.held()[coll]
	if !held {
		return 0, 0, false
	}
	if age = time.Since(e.confirmed); age >= e.expiry.Sub(e.confirmed) {
		return 0, 0, false
	}
	return e.version, age, true
}

// Stats snapshots the lease counters.
func (ls *LeaseState) Stats() LeaseStats {
	held := ls.held()
	return LeaseStats{
		Active:        held != nil,
		Held:          len(held),
		Grants:        ls.grants.Load(),
		Renewals:      ls.renewals.Load(),
		Invalidations: ls.invals.Load(),
		Breaks:        ls.breaks.Load(),
	}
}
