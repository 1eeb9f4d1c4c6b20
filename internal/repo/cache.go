package repo

import (
	"strings"
	"sync"
	"sync/atomic"
)

// The paper's target environment is "a network of (possibly mobile)
// workstations" where "disconnecting a mobile client from the network
// while traveling is an induced failure" (§1.1), and it notes an iterator
// "might keep a cached version" of the set (§3). Cache is that cached
// version for element data, in two roles:
//
//   - A coherent, version-validated read-through cache on the elements
//     hot path. Entries carry the object version plus, per collection, a
//     Stamp: the partition, layout and partition version of the listing
//     they were last fetched or validated under. Snapshot runs whose own
//     listing holds that partition at or below the stamp serve the entry
//     with no RPC at all, so a write to one partition revalidates only
//     that partition's elements; current-state runs revalidate by
//     shipping only the known version (GetBatchReq.Known) and get a
//     compact NotModified back. Ghosts and tombstones are cached
//     negatively, so a missing member stops costing a round trip until
//     its partition moves.
//   - A fallback that can answer when the owner is unreachable — the
//     disconnected-operation move of the Coda work this paper grew out
//     of. Serving a cached copy of an unreachable element is *weaker than
//     Fig. 6* (which only yields reachable elements), so the weak-set
//     iterators never use it; a dynamic set (core.OpenDyn) over a client
//     with a cache bound does, delivering such elements marked Stale.
//
// A run serves by position: the listing it holds carries a Handle per
// member, bound to the member's entry by the first serve by id or by the
// batch install that made the entry fresh, and a serve through a bound
// handle is two atomic loads — no map probe, no string hash, no lock.
// An entry is never written once published: a newer object or verdict
// replaces it whole, and eviction, Drop and replacement mark the old one
// dead, which unbinds every handle on it.
//
// The coherent role owns a singleflight group, so N concurrent iterators
// missing on the same data produce one upstream round trip. The fallback
// role needs no path of its own: a dynamic run fills the cache like any
// run, and asks Fallback once per member it could not reach.
//
// Eviction is CLOCK (second chance): a use sets an entry's used bit, and a
// full cache's hand sweeps a ring of the entries clearing bits, evicting
// the first entry found clear.

// CacheStats counts cache activity.
type CacheStats struct {
	// Stores counts new entries written into the cache.
	Stores int64 `json:"stores"`
	// Hits counts elements served directly from a fresh entry with no
	// RPC at all (snapshot runs at or below the entry's stamp).
	Hits int64 `json:"hits"`
	// ValidatedHits counts elements served from cache after the server
	// confirmed the version via NotModified.
	ValidatedHits int64 `json:"validated_hits"`
	// NegativeHits counts missing members answered from a negative entry
	// without a round trip.
	NegativeHits int64 `json:"negative_hits"`
	// BytesSaved totals the payload bytes direct and validated hits kept
	// off the wire.
	BytesSaved int64 `json:"bytes_saved"`
	// Coalesces counts callers that joined another caller's in-flight
	// fetch instead of issuing their own.
	Coalesces int64 `json:"coalesces"`
	// StaleServes counts unreachable fetches answered from the cache.
	StaleServes int64 `json:"stale_serves"`
	// Misses counts unreachable fetches the cache could not answer.
	Misses int64 `json:"misses"`
	// Evictions counts entries dropped by the capacity bound.
	Evictions int64 `json:"evictions"`
	// Drops counts entries invalidated explicitly (the attached client
	// deleted the object).
	Drops int64 `json:"drops"`
}

// Cache is a bounded cache of fetched objects with CLOCK eviction, safe
// for concurrent use.
type Cache struct {
	mu      sync.Mutex
	cap     int
	entries map[ObjectID]*cacheEntry
	// ring holds every entry once; hand is the slot the sweep looks at next.
	ring  []*cacheEntry
	hand  int
	stats CacheStats // under mu, but for the serve counters below
	// hits, negHits and saved count serves, which a bound handle makes
	// without mu.
	hits, negHits, saved atomic.Int64

	fmu     sync.Mutex
	flights map[string]*flight
}

type cacheEntry struct {
	id ObjectID
	// obj and negative (a member the owner reported missing, ghost or
	// tombstone, which answers "missing" without a round trip while fresh)
	// are never written once the entry is in the cache: a handle reads
	// them without mu.
	obj      Object
	negative bool
	// used is the second-chance bit; dead marks an entry that left the
	// cache — evicted, dropped or replaced — on which a handle serves no
	// more.
	used, dead atomic.Bool
	slot       int // the entry's index in ring
	// first (inline) and seen (almost always empty) hold, under mu, the
	// stamp per collection the entry was last fetched or validated under
	// through its elements path. A run may serve the entry without
	// revalidation under a stamp its collection's covers: the entry is at
	// least as new as that partition of the run's membership image.
	first stamp
	seen  []stamp
}

// Stamp is the listing image a serve or an install is governed by:
// partition Part of the collection's Parts-partition layout at version
// Ver. Partition versions are drawn from the collection's change counter
// and move with every change to the partition's membership, so an entry
// stamped at a partition's version stays fresh for that partition until
// it moves, whatever the other partitions do. The by-id methods
// (PutValidated, ServeFresh, PutNegative, MarkValidated) read the
// collection as one partition at its listing version.
type Stamp struct {
	Ver         uint64
	Part, Parts int32
}

// whole is the by-id methods' stamp: the collection as one partition.
func whole(ver uint64) Stamp { return Stamp{Ver: ver, Parts: 1} }

// covers reports whether an entry stamped s serves under st: the same
// partition of the same layout, at a version at least st's. A zero
// version proves nothing, and versions of two layouts do not compare.
func (s Stamp) covers(st Stamp) bool {
	return st.Ver != 0 && s.Part == st.Part && s.Parts == st.Parts && s.Ver >= st.Ver
}

// stamp is one collection's Stamp on a cache entry.
type stamp struct {
	coll string
	Stamp
}

// fresh reports whether the entry serves under coll's st.
func (e *cacheEntry) fresh(coll string, st Stamp) bool {
	if e.first.coll == coll {
		return e.first.covers(st)
	}
	for _, s := range e.seen {
		if s.coll == coll {
			return s.covers(st)
		}
	}
	return false
}

// Handle is one listing position's hold on its member's cache entry: a
// run serves through it with no lookup. A handle belongs to one listing
// image — a partition at one version, of one collection, over one cache —
// and is passed only with that image's stamp. It is bound, under mu, only
// to an entry fresh under the stamp, and stays good while the entry lives:
// an entry's object is never written, so one as new as the image once is
// as new for as long as it is cached, and what could make it older —
// a newer object or verdict, eviction, Drop — marks it dead. The zero
// Handle is unbound. Handles are shared by concurrent runs over one
// listing.
type Handle struct{ e atomic.Pointer[cacheEntry] }

// entry returns the live entry h is bound to, or nil.
func (h *Handle) entry() *cacheEntry {
	if h == nil {
		return nil
	}
	if e := h.e.Load(); e != nil && !e.dead.Load() {
		return e
	}
	return nil
}

// bindLocked binds h to e when e serves under coll's st. Caller holds mu.
func bindLocked(h *Handle, coll string, st Stamp, e *cacheEntry) {
	if h != nil && e.fresh(coll, st) {
		h.e.Store(e)
	}
}

// NewCache creates a cache bounded to capacity entries (minimum 1).
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		cap:     capacity,
		entries: make(map[ObjectID]*cacheEntry, capacity),
		flights: make(map[string]*flight),
	}
}

// Put stores a fetched object, evicting an entry not used since the last
// sweep when full. It is version-aware: an older object never overwrites a
// newer cached one, so a slow fetch completing after a faster refetch
// cannot write back stale data.
func (c *Cache) Put(obj Object) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(obj, "", Stamp{})
}

// putLocked is the shared insert/update path; it returns obj.ID's entry.
// A non-empty coll stamps the entry as observed under coll's st.
func (c *Cache) putLocked(obj Object, coll string, st Stamp) *cacheEntry {
	if e, ok := c.entries[obj.ID]; ok {
		if !e.negative && obj.Version < e.obj.Version {
			// A newer copy is already cached; the incoming object is a
			// stale read completing late. Keep the newer data and leave
			// the stamps alone.
			return e
		}
		e = c.replaceLocked(e, obj.Clone(), false)
		c.stampLocked(e, coll, st)
		return e
	}
	// The entry outlives the message obj came in, and a decoded id may be
	// a view into its whole frame (wirebin.Reader.Text): the cache keeps
	// its own copy of the id, as it does of the data.
	e := &cacheEntry{id: ObjectID(strings.Clone(string(obj.ID))), obj: obj.Clone()}
	e.obj.ID = e.id
	c.stampLocked(e, coll, st)
	c.insertLocked(e)
	return e
}

// replaceLocked puts a used entry holding obj — a missing verdict when
// negative — in e's place, in the map and the ring, with e's stamps, and
// marks e dead: what e served stays as it was, and no handle serves it
// again.
func (c *Cache) replaceLocked(e *cacheEntry, obj Object, negative bool) *cacheEntry {
	n := &cacheEntry{id: e.id, obj: obj, negative: negative, slot: e.slot, first: e.first, seen: e.seen}
	n.obj.ID = n.id
	n.used.Store(true)
	c.entries[n.id], c.ring[n.slot] = n, n
	e.dead.Store(true)
	return n
}

// stampLocked records that e was observed under coll's st: the stamp
// advances within one partition and layout, and is replaced by one of
// another.
func (c *Cache) stampLocked(e *cacheEntry, coll string, st Stamp) {
	if coll == "" || st.Ver == 0 {
		return
	}
	s := &e.first
	if s.coll != coll && s.coll != "" {
		s = nil
		for i := range e.seen {
			if e.seen[i].coll == coll {
				s = &e.seen[i]
			}
		}
		if s == nil {
			e.seen = append(e.seen, stamp{coll, st})
			return
		}
	}
	if s.coll == coll && s.Part == st.Part && s.Parts == st.Parts {
		st.Ver = max(st.Ver, s.Ver)
	}
	*s = stamp{coll, st}
}

// insertLocked adds a new entry, used bit clear, at the ring's end or, at
// capacity, in the slot of the entry the hand evicts, the hand moving on.
func (c *Cache) insertLocked(e *cacheEntry) {
	c.entries[e.id] = e
	c.stats.Stores++
	if len(c.ring) < c.cap {
		e.slot = len(c.ring)
		c.ring = append(c.ring, e)
		return
	}
	for c.ring[c.hand].used.Load() {
		c.ring[c.hand].used.Store(false)
		c.hand = (c.hand + 1) % len(c.ring)
	}
	victim := c.ring[c.hand]
	delete(c.entries, victim.id)
	victim.dead.Store(true)
	c.stats.Evictions++
	e.slot, c.ring[c.hand] = c.hand, e
	c.hand = (c.hand + 1) % len(c.ring)
}

// PutValidated stores an object the server just shipped for a run over
// coll governed by listing version listVer, stamping it fresh for that
// image.
func (c *Cache) PutValidated(coll string, listVer uint64, obj Object) {
	c.PutAt(nil, coll, whole(listVer), obj)
}

// PutAt stores an object the server just shipped for a run over coll,
// stamping it fresh under st, and binds h — the run's handle on the
// object's position, or nil — to the entry.
func (c *Cache) PutAt(h *Handle, coll string, st Stamp, obj Object) {
	c.mu.Lock()
	defer c.mu.Unlock()
	bindLocked(h, coll, st, c.putLocked(obj, coll, st))
}

// PutNegative records that the owner reported id missing during a run
// over coll governed by listing version listVer. The negative entry
// answers "missing" for runs at or below that stamp; it never downgrades
// an entry already validated at the same or a newer stamp.
func (c *Cache) PutNegative(coll string, listVer uint64, id ObjectID) {
	c.PutNegativeAt(nil, coll, whole(listVer), id)
}

// PutNegativeAt is PutNegative under coll's st, binding h as PutAt does.
func (c *Cache) PutNegativeAt(h *Handle, coll string, st Stamp, id ObjectID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[id]
	switch {
	case !ok:
		e = &cacheEntry{id: ObjectID(strings.Clone(string(id))), negative: true}
		e.obj.ID = e.id
		c.insertLocked(e)
	case e.negative:
		e.used.Store(true)
	case e.fresh(coll, st):
		// The positive copy was observed at least as recently; the
		// missing report is the older observation.
		bindLocked(h, coll, st, e)
		return
	default:
		e = c.replaceLocked(e, Object{}, true)
	}
	c.stampLocked(e, coll, st)
	bindLocked(h, coll, st, e)
}

// ServeFresh serves id directly from cache for a run over coll governed
// by listing version atVer, with no RPC: it succeeds only when the entry
// was fetched or validated under that listing image (stamp >= atVer).
// negative reports a fresh missing member. ok=false means the caller
// must go to the owner. The object served is the entry's own: its Data
// and Attrs are shared with the cache and with every other run it serves,
// and are read-only (an entry is copied on Put and replaced whole, never
// written in place).
func (c *Cache) ServeFresh(coll string, atVer uint64, id ObjectID) (obj Object, negative, ok bool) {
	return c.ServeAt(nil, coll, whole(atVer), id, nil)
}

// Tally is one reader's count of its serves, which the cache's stats take
// in one step (Count) when the reader is done rather than in an atomic
// add a serve.
type Tally struct{ hits, negative, saved int64 }

// Count adds a reader's tally to the stats.
func (c *Cache) Count(t Tally) {
	if t.hits != 0 {
		c.hits.Add(t.hits)
		c.saved.Add(t.saved)
	}
	if t.negative != 0 {
		c.negHits.Add(t.negative)
	}
}

// ServeAt is ServeFresh by position: through h when it is bound to a
// live entry, with no lock; otherwise by id under coll's st, binding h to
// the entry it serves. The serve is counted in t, or at once when t is
// nil.
func (c *Cache) ServeAt(h *Handle, coll string, st Stamp, id ObjectID, t *Tally) (obj Object, negative, ok bool) {
	e := h.entry()
	if e == nil {
		if e = c.bind(h, coll, st, id); e == nil {
			return Object{}, false, false
		}
	}
	if !e.used.Load() {
		e.used.Store(true)
	}
	one := Tally{hits: 1, saved: int64(len(e.obj.Data))}
	if e.negative {
		one = Tally{negative: 1}
	}
	if t == nil {
		c.Count(one)
	} else {
		t.hits, t.negative, t.saved = t.hits+one.hits, t.negative+one.negative, t.saved+one.saved
	}
	if e.negative {
		return Object{}, true, true
	}
	return e.obj, false, true
}

// Bound reports whether ServeAt would serve, without serving it: no hit
// is counted and the used bit is left alone. It binds h as ServeAt does.
// A fetch planner uses it to leave out what the run will be served at
// yield.
func (c *Cache) Bound(h *Handle, coll string, st Stamp, id ObjectID) bool {
	return h.entry() != nil || c.bind(h, coll, st, id) != nil
}

// bind looks id up under coll's st and binds h to its entry if that
// serves.
func (c *Cache) bind(h *Handle, coll string, st Stamp, id ObjectID) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, found := c.entries[id]
	if !found || !e.fresh(coll, st) {
		return nil
	}
	if h != nil {
		h.e.Store(e)
	}
	return e
}

// Version reports the cached version of id, used to build a conditional
// fetch's Known map. Negative entries carry no version to validate.
func (c *Cache) Version(id ObjectID) (uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[id]
	if !ok || e.negative || e.obj.Version == 0 {
		return 0, false
	}
	e.used.Store(true)
	return e.obj.Version, true
}

// MarkValidated applies a NotModified answer: the server confirmed the
// cached version is current under coll's listing version listVer, so the
// stamp advances and the cached copy serves. ok=false means the entry
// was evicted while the request was in flight and the caller must
// refetch. Like ServeFresh it serves the entry's own, read-only, object.
func (c *Cache) MarkValidated(coll string, listVer uint64, id ObjectID) (Object, bool) {
	return c.ValidateAt(nil, coll, whole(listVer), id)
}

// ValidateAt is MarkValidated under coll's st, binding h as PutAt does.
func (c *Cache) ValidateAt(h *Handle, coll string, st Stamp, id ObjectID) (Object, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, found := c.entries[id]
	if !found || e.negative {
		return Object{}, false
	}
	c.stampLocked(e, coll, st)
	e.used.Store(true)
	bindLocked(h, coll, st, e)
	c.stats.ValidatedHits++
	c.saved.Add(int64(len(e.obj.Data)))
	return e.obj, true
}

// Drop invalidates id (the attached client deleted the object).
func (c *Cache) Drop(id ObjectID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[id]
	if !ok {
		return
	}
	last := c.ring[len(c.ring)-1]
	last.slot, c.ring[e.slot] = e.slot, last
	c.ring[len(c.ring)-1], c.ring = nil, c.ring[:len(c.ring)-1]
	if c.hand >= len(c.ring) {
		c.hand = 0
	}
	delete(c.entries, id)
	e.dead.Store(true)
	c.stats.Drops++
}

// Get returns the cached copy of id, if any, marking it used.
// Negative entries don't answer: a plain Get wants data, not a
// membership verdict.
func (c *Cache) Get(id ObjectID) (Object, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.getLocked(id)
}

func (c *Cache) getLocked(id ObjectID) (Object, bool) {
	e, ok := c.entries[id]
	if !ok || e.negative {
		return Object{}, false
	}
	e.used.Store(true)
	return e.obj.Clone(), true
}

// Fallback is Get on behalf of a fetch whose owner could not be reached,
// counted as a stale serve or a miss. Only a transport failure may come
// here: a member the owner reports missing was deleted, and must not be
// resurrected from the cache.
func (c *Cache) Fallback(id ObjectID) (Object, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	obj, ok := c.getLocked(id)
	if ok {
		c.stats.StaleServes++
	} else {
		c.stats.Misses++
	}
	return obj, ok
}

// Len reports the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	st := c.stats
	c.mu.Unlock()
	st.Hits, st.NegativeHits, st.BytesSaved = c.hits.Load(), c.negHits.Load(), c.saved.Load()
	return st
}

// flight is one in-flight coalesced fetch: the leader runs the work,
// joiners wait on done and share val.
type flight struct {
	done chan struct{}
	val  any
}

// Do coalesces concurrent calls sharing a key: the first caller runs fn;
// callers arriving while it runs block until it finishes and share its
// result. shared reports whether this caller joined another's flight.
// Keys must fully determine fn's result — node, ids and known versions
// for a batch — or a joiner could be handed the wrong answer.
func (c *Cache) Do(key string, fn func() any) (val any, shared bool) {
	c.fmu.Lock()
	if f, ok := c.flights[key]; ok {
		c.fmu.Unlock()
		<-f.done
		c.mu.Lock()
		c.stats.Coalesces++
		c.mu.Unlock()
		return f.val, true
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.fmu.Unlock()
	defer func() {
		c.fmu.Lock()
		delete(c.flights, key)
		c.fmu.Unlock()
		close(f.done)
	}()
	f.val = fn()
	return f.val, false
}
