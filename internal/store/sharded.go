package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Config sizes a sharded engine.
type Config struct {
	// Shards is the number of object shards, rounded up to a power of
	// two. Defaults to 16.
	Shards int
	// Partitions is the listing partition count new collections are
	// created with. Defaults to DefaultPartitions. More partitions mean
	// smaller streamed listing frames and an earlier first element on
	// huge sets, at a little fixed overhead per collection.
	Partitions int
}

// DefaultShards is the object-shard count used when Config.Shards is 0.
const DefaultShards = 16

// Sharded is the default storage engine. Objects are hash-partitioned
// across independently RW-locked shards, so reads and writes only
// contend within one shard. Each collection carries its own RWMutex for
// mutation and soft state (pins, tokens), and publishes its listing as
// an immutable copy-on-write snapshot behind an atomic.Pointer: List
// never takes a lock at all, and a reader always observes one
// consistent membership image no matter how writers race — the same
// snapshot/mutation separation the paper's Fig. 4 semantics make at the
// iterator level.
type Sharded struct {
	ins   instruments
	watch notifier

	shards     []*objShard
	mask       uint32
	partitions int

	collMu sync.RWMutex
	colls  map[string]*shardedColl
}

// OnListingChange implements Store.
func (s *Sharded) OnListingChange(fn func(ChangeEvent)) { s.watch.subscribe(fn) }

type objShard struct {
	mu      sync.RWMutex
	objects map[ObjectID]Object
	// floors remembers the last version an id held when its object was
	// deleted, so a re-put resumes above it instead of restarting at 1.
	// Per-id version monotonicity is what makes conditional GetBatch's
	// equality check sound: without it a delete/re-put cycle could land
	// back on a version a client already cached (ABA) and validate a
	// stale copy.
	floors map[ObjectID]uint64
}

// listing is one immutable published membership image. Its members
// slice is never mutated after publication; List hands out copies.
type listing struct {
	members []Ref
	version uint64
}

type shardedColl struct {
	mu sync.RWMutex // guards st (writes) and soft state reads
	st *collState

	// ver mirrors st.version and pver[i] mirrors st.parts[i].version;
	// both are updated under c.mu's write lock, so readers can detect a
	// stale cached snapshot without touching the mutex. Snapshots are
	// recomputed lazily on read — a writer never pays to rebuild a
	// listing nobody is reading, which is what keeps Add O(1) while the
	// collection grows to millions of members.
	ver  atomic.Uint64
	pver []atomic.Uint64

	full  atomic.Pointer[listing]   // cached full listed snapshot
	psnap []atomic.Pointer[listing] // cached per-partition snapshots
}

func newShardedColl(st *collState) *shardedColl {
	n := st.partitions()
	c := &shardedColl{
		st:    st,
		pver:  make([]atomic.Uint64, n),
		psnap: make([]atomic.Pointer[listing], n),
	}
	c.syncVersions()
	return c
}

// syncVersions refreshes the lock-free version mirrors from st; callers
// hold c.mu for writing (or own the collection exclusively).
func (c *shardedColl) syncVersions() {
	for i := range c.pver {
		c.pver[i].Store(c.st.parts[i].version)
	}
	c.ver.Store(c.st.version)
}

// snapshot returns the current full listed snapshot, rebuilding it under
// the read lock only when a mutation has moved the version mirror since
// the cached one was taken. Concurrent rebuilds are harmless: each is
// internally consistent, and a stale store just means one more rebuild.
func (c *shardedColl) snapshot() *listing {
	if l := c.full.Load(); l != nil && l.version == c.ver.Load() {
		return l
	}
	c.mu.RLock()
	l := &listing{members: c.st.listedMembers(), version: c.st.version}
	c.mu.RUnlock()
	c.full.Store(l)
	return l
}

// partSnapshot is snapshot for one listing partition.
func (c *shardedColl) partSnapshot(part int) *listing {
	if l := c.psnap[part].Load(); l != nil && l.version == c.pver[part].Load() {
		return l
	}
	c.mu.RLock()
	members, version := c.st.partSorted(part, true), c.st.parts[part].version
	c.mu.RUnlock()
	l := &listing{members: members, version: version}
	c.psnap[part].Store(l)
	return l
}

// NewSharded creates an empty sharded engine.
func NewSharded(cfg Config) *Sharded {
	n := cfg.Shards
	if n <= 0 {
		n = DefaultShards
	}
	// Round up to a power of two so shard selection is a mask.
	size := 1
	for size < n {
		size <<= 1
	}
	partitions := cfg.Partitions
	if partitions <= 0 {
		partitions = DefaultPartitions
	}
	s := &Sharded{
		shards:     make([]*objShard, size),
		mask:       uint32(size - 1),
		partitions: partitions,
		colls:      make(map[string]*shardedColl),
	}
	for i := range s.shards {
		s.shards[i] = &objShard{
			objects: make(map[ObjectID]Object),
			floors:  make(map[ObjectID]uint64),
		}
	}
	return s
}

func (s *Sharded) shardFor(id ObjectID) *objShard {
	return s.shards[hashID(id)&s.mask]
}

func (s *Sharded) coll(name string) (*shardedColl, error) {
	s.collMu.RLock()
	c, ok := s.colls[name]
	s.collMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("collection %q: %w", name, ErrNoCollection)
	}
	return c, nil
}

// GetObject implements Store.
func (s *Sharded) GetObject(id ObjectID) (obj Object, err error) {
	defer s.ins.observe(OpGet, time.Now(), &err)
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	obj, found := sh.objects[id]
	if !found {
		return Object{}, fmt.Errorf("get %q: %w", id, ErrNotFound)
	}
	return obj.Clone(), nil
}

// GetBatch implements Store, taking each id's shard lock just for its
// lookup.
func (s *Sharded) GetBatch(ids []ObjectID, known map[ObjectID]uint64) (objs []Object, notModified []ObjectID, missing []ObjectID) {
	var err error
	defer s.ins.observe(OpGetBatch, time.Now(), &err)
	return getBatch(&s.ins, ids, known, func(id ObjectID, h uint32) (Object, bool) {
		sh := s.shards[h&s.mask]
		sh.mu.RLock()
		obj, ok := sh.objects[id]
		sh.mu.RUnlock()
		return obj, ok
	})
}

// PutObject implements Store.
func (s *Sharded) PutObject(obj Object) (version uint64, err error) {
	defer s.ins.observe(OpPut, time.Now(), &err)
	sh := s.shardFor(obj.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	stored := obj.Clone()
	base := sh.objects[obj.ID].Version
	// Resume above the version the id held at its last delete, keeping
	// per-id versions monotonic across delete/re-put (the property the
	// conditional-fetch protocol relies on).
	if f, ok := sh.floors[obj.ID]; ok {
		if f > base {
			base = f
		}
		delete(sh.floors, obj.ID)
	}
	stored.Version = base + 1
	stored.Tombstone = false
	sh.objects[obj.ID] = stored
	return stored.Version, nil
}

// InstallObject implements Store.
func (s *Sharded) InstallObject(obj Object) (applied bool) {
	var err error
	defer s.ins.observe(OpInstall, time.Now(), &err)
	sh := s.shardFor(obj.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if obj.Version <= sh.objects[obj.ID].Version || obj.Version <= sh.floors[obj.ID] {
		return false
	}
	sh.objects[obj.ID] = obj.Clone()
	return true
}

// DeleteObject implements Store.
func (s *Sharded) DeleteObject(id ObjectID) (err error) {
	defer s.ins.observe(OpDelete, time.Now(), &err)
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	obj, found := sh.objects[id]
	if !found {
		return fmt.Errorf("delete %q: %w", id, ErrNotFound)
	}
	sh.floors[id] = obj.Version
	delete(sh.objects, id)
	return nil
}

// ObjectCount implements Store.
func (s *Sharded) ObjectCount() int {
	total := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		total += len(sh.objects)
		sh.mu.RUnlock()
	}
	return total
}

// CreateCollection implements Store.
func (s *Sharded) CreateCollection(name string) error {
	s.collMu.Lock()
	defer s.collMu.Unlock()
	if _, exists := s.colls[name]; exists {
		return fmt.Errorf("create %q: %w", name, ErrCollectionExists)
	}
	s.colls[name] = newShardedColl(newCollState(name, s.partitions))
	return nil
}

// List implements Store. When the cached snapshot is current it is
// lock-free: the snapshot is immutable, so the only cost is copying the
// member slice out; after a mutation the first reader rebuilds it under
// the read lock.
func (s *Sharded) List(name string) (members []Ref, version uint64, err error) {
	defer s.ins.observe(OpList, time.Now(), &err)
	c, err := s.coll(name)
	if err != nil {
		return nil, 0, err
	}
	l := c.snapshot()
	return append([]Ref(nil), l.members...), l.version, nil
}

// ListVersion implements Store. It is lock-free: the version rides an
// atomic mirror maintained by writers.
func (s *Sharded) ListVersion(name string) (version uint64, err error) {
	c, err := s.coll(name)
	if err != nil {
		return 0, err
	}
	return c.ver.Load(), nil
}

// Partitions implements Store.
func (s *Sharded) Partitions(name string) (int, error) {
	c, err := s.coll(name)
	if err != nil {
		return 0, err
	}
	return len(c.pver), nil
}

// ListPart implements Store. The NotModified fast path is two atomic
// loads; a served partition comes from its own copy-on-write snapshot,
// so readers of one partition never pay for writes to another.
func (s *Sharded) ListPart(name string, part int, ifVersion uint64) (members []Ref, version uint64, notModified bool, err error) {
	defer s.ins.observe(OpListPart, time.Now(), &err)
	c, err := s.coll(name)
	if err != nil {
		return nil, 0, false, err
	}
	if part < 0 || part >= len(c.pver) {
		return nil, 0, false, fmt.Errorf("list %q partition %d of %d: %w", name, part, len(c.pver), ErrBadPartition)
	}
	if pv := c.pver[part].Load(); ifVersion != 0 && pv <= ifVersion {
		return nil, pv, true, nil
	}
	l := c.partSnapshot(part)
	return append([]Ref(nil), l.members...), l.version, false, nil
}

// ListPinned implements Store.
func (s *Sharded) ListPinned(name string, pin int64) (parts [][]Ref, vers []uint64, err error) {
	defer s.ins.observe(OpListPinned, time.Now(), &err)
	c, err := s.coll(name)
	if err != nil {
		return nil, nil, err
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.st.listPinned(pin)
}

// Add implements Store.
func (s *Sharded) Add(name string, ref Ref) (version uint64, err error) {
	defer s.ins.observe(OpAdd, time.Now(), &err)
	c, err := s.coll(name)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	part := c.st.partOf(ref.ID)
	v := c.st.add(ref)
	c.syncVersions()
	c.mu.Unlock()
	s.watch.fire(ChangeEvent{Coll: name, Part: part, Version: v})
	return v, nil
}

// Remove implements Store.
func (s *Sharded) Remove(name string, id ObjectID) (ref Ref, deferred bool, version uint64, err error) {
	defer s.ins.observe(OpRemove, time.Now(), &err)
	c, err := s.coll(name)
	if err != nil {
		return Ref{}, false, 0, err
	}
	c.mu.Lock()
	part := c.st.partOf(id)
	ref, deferred, version, err = c.st.remove(id)
	if err != nil {
		c.mu.Unlock()
		return Ref{}, false, 0, err
	}
	c.syncVersions()
	c.mu.Unlock()
	s.watch.fire(ChangeEvent{Coll: name, Part: part, Version: version})
	return ref, deferred, version, nil
}

// Pin implements Store. A partition's pin is its live members sorted by
// ID, and while its published snapshot is current and lists no ghost
// that is exactly the image ListPart hands out — immutable already — so
// the pin shares it: O(partitions) under the write lock, where sorting
// the members would hold every writer off for O(n log n).
func (s *Sharded) Pin(name string) (pin int64, vers []uint64, err error) {
	defer s.ins.observe(OpPin, time.Now(), &err)
	c, err := s.coll(name)
	if err != nil {
		return 0, nil, err
	}
	for p := range c.psnap {
		c.partSnapshot(p) // before the write lock: a rebuild takes the read lock
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	pin, vers = c.st.pin(c.psnap)
	return pin, vers, nil
}

// Unpin implements Store.
func (s *Sharded) Unpin(name string, pin int64) (err error) {
	defer s.ins.observe(OpUnpin, time.Now(), &err)
	c, err := s.coll(name)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.unpin(pin)
}

// BeginGrow implements Store.
func (s *Sharded) BeginGrow(name string) (token int64, err error) {
	defer s.ins.observe(OpBeginGrow, time.Now(), &err)
	c, err := s.coll(name)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.beginGrow(), nil
}

// EndGrow implements Store.
func (s *Sharded) EndGrow(name string, token int64) (reclaim []Ref, err error) {
	defer s.ins.observe(OpEndGrow, time.Now(), &err)
	c, err := s.coll(name)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	before := c.st.version
	reclaim, err = c.st.endGrow(token)
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	// Draining the last token clears the ghosts out of the listing.
	c.syncVersions()
	after := c.st.version
	c.mu.Unlock()
	if after != before {
		// Ghost GC may touch several partitions at once.
		s.watch.fire(ChangeEvent{Coll: name, Part: PartAll, Version: after})
	}
	return reclaim, nil
}

// CollStats implements Store.
func (s *Sharded) CollStats(name string) (CollStats, error) {
	c, err := s.coll(name)
	if err != nil {
		return CollStats{}, err
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.st.stats(), nil
}

// PartVersions implements Store. It is lock-free: the vector rides the
// atomic per-partition mirrors maintained by writers.
func (s *Sharded) PartVersions(name string) ([]uint64, error) {
	c, err := s.coll(name)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, len(c.pver))
	for i := range c.pver {
		out[i] = c.pver[i].Load()
	}
	return out, nil
}

// ApplySyncPart implements Store. A collection in another layout is
// replaced rather than re-laid out in place: readers size their
// partition reads by the lock-free version mirrors, so the count of a
// published shardedColl never changes.
func (s *Sharded) ApplySyncPart(name string, partitions, part int, members []Ref, version uint64) bool {
	var err error
	defer s.ins.observe(OpSyncPart, time.Now(), &err)
	if !syncLayoutOK(partitions, part) {
		return false
	}
	s.collMu.Lock()
	c, found := s.colls[name]
	if !found || len(c.pver) != partitions {
		c = newShardedColl(newCollState(name, partitions))
		s.colls[name] = c
	}
	s.collMu.Unlock()
	c.mu.Lock()
	applied := c.st.applySyncPart(part, members, version)
	if applied {
		c.syncVersions()
	}
	c.mu.Unlock()
	if applied {
		s.watch.fire(ChangeEvent{Coll: name, Part: part, Version: version})
	}
	return applied
}

// Stats implements Store.
func (s *Sharded) Stats() EngineStats {
	s.collMu.RLock()
	colls := len(s.colls)
	s.collMu.RUnlock()
	return EngineStats{
		Engine:      "sharded",
		Shards:      len(s.shards),
		Objects:     s.ObjectCount(),
		Collections: colls,
		Batch:       s.ins.batchStats(),
		Ops:         s.ins.opStats(),
	}
}

var _ Store = (*Sharded)(nil)
