package repo

import (
	"strings"
	"sync"
)

// The paper's target environment is "a network of (possibly mobile)
// workstations" where "disconnecting a mobile client from the network
// while traveling is an induced failure" (§1.1), and it notes an iterator
// "might keep a cached version" of the set (§3). Cache is that cached
// version for element data, in two roles:
//
//   - A coherent, version-validated read-through cache on the elements
//     hot path. Entries carry the object version plus, per collection, the
//     listing version they were last fetched or validated under. Snapshot
//     runs pinned at or below that stamp serve the entry with no RPC at
//     all; current-state runs revalidate by shipping only the known
//     version (GetBatchReq.Known) and get a compact NotModified back.
//     Ghosts and tombstones are cached negatively, so a missing member
//     stops costing a round trip until the listing moves.
//   - A fallback that can answer when the owner is unreachable — the
//     disconnected-operation move of the Coda work this paper grew out
//     of. Serving a cached copy of an unreachable element is *weaker than
//     Fig. 6* (which only yields reachable elements), so the weak-set
//     iterators never use it; a dynamic set (core.OpenDyn) over a client
//     with a cache bound does, delivering such elements marked Stale.
//
// The coherent role owns a singleflight group, so N concurrent iterators
// missing on the same data produce one upstream round trip. The fallback
// role needs no path of its own: a dynamic run fills the cache like any
// run, and asks Fallback once per member it could not reach.
//
// Eviction is CLOCK (second chance): a use sets an entry's used bit, and a
// full cache's hand sweeps a ring of the entries clearing bits, evicting
// the first entry found clear. A serve is one map probe and a bit write.

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
	stats CacheStats

	fmu     sync.Mutex
	flights map[string]*flight
}

type cacheEntry struct {
	id  ObjectID
	obj Object
	// negative marks a member the owner reported missing (ghost or
	// tombstone); it answers "missing" without a round trip while fresh.
	negative bool
	used     bool // the second-chance bit
	slot     int  // the entry's index in ring
	// first (inline) and seen (almost always empty) hold, per collection,
	// the listing version the entry was last fetched or validated under
	// through its elements path. A run governed by listing version v may
	// serve the entry without revalidation iff its collection's stamp is
	// >= v: the entry is at least as new as the run's membership image.
	first stamp
	seen  []stamp
}

// stamp is one collection's listing version on a cache entry.
type stamp struct {
	coll string
	ver  uint64
}

// seenUnder reports the listing version the entry was last fetched or
// validated under through coll, 0 for never.
func (e *cacheEntry) seenUnder(coll string) uint64 {
	if e.first.coll == coll {
		return e.first.ver
	}
	for _, s := range e.seen {
		if s.coll == coll {
			return s.ver
		}
	}
	return 0
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
	c.putLocked(obj, "", 0)
}

// putLocked is the shared insert/update path. A non-empty coll stamps the
// entry as observed under that collection's listing version listVer.
func (c *Cache) putLocked(obj Object, coll string, listVer uint64) {
	if e, ok := c.entries[obj.ID]; ok {
		if !e.negative && obj.Version < e.obj.Version {
			// A newer copy is already cached; the incoming object is a
			// stale read completing late. Keep the newer data and leave
			// the stamps alone.
			return
		}
		e.obj = obj.Clone()
		e.obj.ID = e.id
		e.negative, e.used = false, true
		c.stampLocked(e, coll, listVer)
		return
	}
	// The entry outlives the message obj came in, and a decoded id may be
	// a view into its whole frame (wirebin.Reader.Text): the cache keeps
	// its own copy of the id, as it does of the data.
	e := &cacheEntry{id: ObjectID(strings.Clone(string(obj.ID))), obj: obj.Clone()}
	e.obj.ID = e.id
	c.stampLocked(e, coll, listVer)
	c.insertLocked(e)
}

func (c *Cache) stampLocked(e *cacheEntry, coll string, listVer uint64) {
	if coll == "" || listVer == 0 {
		return
	}
	if e.first.coll == coll || e.first.coll == "" {
		e.first = stamp{coll, max(e.first.ver, listVer)}
		return
	}
	for i := range e.seen {
		if e.seen[i].coll == coll {
			e.seen[i].ver = max(e.seen[i].ver, listVer)
			return
		}
	}
	e.seen = append(e.seen, stamp{coll, listVer})
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
	for c.ring[c.hand].used {
		c.ring[c.hand].used = false
		c.hand = (c.hand + 1) % len(c.ring)
	}
	delete(c.entries, c.ring[c.hand].id)
	c.stats.Evictions++
	e.slot, c.ring[c.hand] = c.hand, e
	c.hand = (c.hand + 1) % len(c.ring)
}

// PutValidated stores an object the server just shipped for a run over
// coll governed by listing version listVer, stamping it fresh for that
// image.
func (c *Cache) PutValidated(coll string, listVer uint64, obj Object) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(obj, coll, listVer)
}

// PutNegative records that the owner reported id missing during a run
// over coll governed by listing version listVer. The negative entry
// answers "missing" for runs at or below that stamp; it never downgrades
// an entry already validated at the same or a newer stamp.
func (c *Cache) PutNegative(coll string, listVer uint64, id ObjectID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[id]; ok {
		if !e.negative && e.seenUnder(coll) >= listVer {
			// The positive copy was observed at least as recently; the
			// missing report is the older observation.
			return
		}
		e.negative, e.used = true, true
		e.obj = Object{ID: e.id}
		c.stampLocked(e, coll, listVer)
		return
	}
	e := &cacheEntry{id: id, obj: Object{ID: id}, negative: true}
	c.stampLocked(e, coll, listVer)
	c.insertLocked(e)
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
	c.mu.Lock()
	defer c.mu.Unlock()
	e, found := c.entries[id]
	if !found || atVer == 0 || e.seenUnder(coll) < atVer {
		return Object{}, false, false
	}
	e.used = true
	if e.negative {
		c.stats.NegativeHits++
		return Object{}, true, true
	}
	c.stats.Hits++
	c.stats.BytesSaved += int64(len(e.obj.Data))
	return e.obj, false, true
}

// Fresh reports whether ServeFresh would serve id for a run over coll
// governed by listing version atVer, without serving it: no hit is
// counted and the used bit is left alone. A fetch planner uses it to
// leave out what the run will be served at yield.
func (c *Cache) Fresh(coll string, atVer uint64, id ObjectID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, found := c.entries[id]
	return found && atVer != 0 && e.seenUnder(coll) >= atVer
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
	e.used = true
	return e.obj.Version, true
}

// MarkValidated applies a NotModified answer: the server confirmed the
// cached version is current under coll's listing version listVer, so the
// stamp advances and the cached copy serves. ok=false means the entry
// was evicted while the request was in flight and the caller must
// refetch. Like ServeFresh it serves the entry's own, read-only, object.
func (c *Cache) MarkValidated(coll string, listVer uint64, id ObjectID) (Object, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, found := c.entries[id]
	if !found || e.negative {
		return Object{}, false
	}
	c.stampLocked(e, coll, listVer)
	e.used = true
	c.stats.ValidatedHits++
	c.stats.BytesSaved += int64(len(e.obj.Data))
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
	e.used = true
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
	defer c.mu.Unlock()
	return c.stats
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
