package store

import (
	"fmt"
	"sync"
	"time"
)

// Locked is the original storage engine: one mutex in front of the
// object table and every collection. It is kept as the contention
// baseline — BenchmarkStoreContention and cmd/weakbench -store compare
// the sharded engine against it — and as the simplest correct
// implementation of the Store contract.
type Locked struct {
	ins   instruments
	watch notifier

	partitions int

	mu      sync.Mutex
	objects map[ObjectID]Object
	// floors keeps per-id versions monotonic across delete/re-put; see
	// objShard.floors for the rationale.
	floors map[ObjectID]uint64
	colls  map[string]*collState
}

// NewLocked creates an empty single-mutex engine.
func NewLocked() *Locked {
	return &Locked{
		partitions: DefaultPartitions,
		objects:    make(map[ObjectID]Object),
		floors:     make(map[ObjectID]uint64),
		colls:      make(map[string]*collState),
	}
}

// OnListingChange implements Store.
func (s *Locked) OnListingChange(fn func(ChangeEvent)) { s.watch.subscribe(fn) }

func (s *Locked) coll(name string) (*collState, error) {
	c, ok := s.colls[name]
	if !ok {
		return nil, fmt.Errorf("collection %q: %w", name, ErrNoCollection)
	}
	return c, nil
}

// GetObject implements Store.
func (s *Locked) GetObject(id ObjectID) (obj Object, err error) {
	defer s.ins.observe(OpGet, time.Now(), &err)
	s.mu.Lock()
	defer s.mu.Unlock()
	obj, found := s.objects[id]
	if !found {
		return Object{}, fmt.Errorf("get %q: %w", id, ErrNotFound)
	}
	return obj.Clone(), nil
}

// GetBatch implements Store: one lock trip for the whole batch.
func (s *Locked) GetBatch(ids []ObjectID, known map[ObjectID]uint64) (objs []Object, notModified []ObjectID, missing []ObjectID) {
	var err error
	defer s.ins.observe(OpGetBatch, time.Now(), &err)
	s.mu.Lock()
	defer s.mu.Unlock()
	return getBatch(&s.ins, ids, known, func(id ObjectID, _ uint32) (Object, bool) {
		obj, ok := s.objects[id]
		return obj, ok
	})
}

// PutObject implements Store.
func (s *Locked) PutObject(obj Object) (version uint64, err error) {
	defer s.ins.observe(OpPut, time.Now(), &err)
	s.mu.Lock()
	defer s.mu.Unlock()
	stored := obj.Clone()
	base := s.objects[obj.ID].Version
	if f, ok := s.floors[obj.ID]; ok {
		if f > base {
			base = f
		}
		delete(s.floors, obj.ID)
	}
	stored.Version = base + 1
	stored.Tombstone = false
	s.objects[obj.ID] = stored
	return stored.Version, nil
}

// InstallObject implements Store.
func (s *Locked) InstallObject(obj Object) (applied bool) {
	var err error
	defer s.ins.observe(OpInstall, time.Now(), &err)
	s.mu.Lock()
	defer s.mu.Unlock()
	if obj.Version <= s.objects[obj.ID].Version || obj.Version <= s.floors[obj.ID] {
		return false
	}
	s.objects[obj.ID] = obj.Clone()
	return true
}

// DeleteObject implements Store.
func (s *Locked) DeleteObject(id ObjectID) (err error) {
	defer s.ins.observe(OpDelete, time.Now(), &err)
	s.mu.Lock()
	defer s.mu.Unlock()
	obj, found := s.objects[id]
	if !found {
		return fmt.Errorf("delete %q: %w", id, ErrNotFound)
	}
	s.floors[id] = obj.Version
	delete(s.objects, id)
	return nil
}

// ObjectCount implements Store.
func (s *Locked) ObjectCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.objects)
}

// CreateCollection implements Store.
func (s *Locked) CreateCollection(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.colls[name]; exists {
		return fmt.Errorf("create %q: %w", name, ErrCollectionExists)
	}
	s.colls[name] = newCollState(name, s.partitions)
	return nil
}

// List implements Store.
func (s *Locked) List(name string) (members []Ref, version uint64, err error) {
	defer s.ins.observe(OpList, time.Now(), &err)
	s.mu.Lock()
	defer s.mu.Unlock()
	c, err := s.coll(name)
	if err != nil {
		return nil, 0, err
	}
	return c.listedMembers(), c.version, nil
}

// Partitions implements Store.
func (s *Locked) Partitions(name string) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, err := s.coll(name)
	if err != nil {
		return 0, err
	}
	return c.partitions(), nil
}

// ListPart implements Store.
func (s *Locked) ListPart(name string, part int, ifVersion uint64) (members []Ref, version uint64, notModified bool, err error) {
	defer s.ins.observe(OpListPart, time.Now(), &err)
	s.mu.Lock()
	defer s.mu.Unlock()
	c, err := s.coll(name)
	if err != nil {
		return nil, 0, false, err
	}
	if part < 0 || part >= c.partitions() {
		return nil, 0, false, fmt.Errorf("list %q partition %d of %d: %w", name, part, c.partitions(), ErrBadPartition)
	}
	version = c.parts[part].version
	if ifVersion != 0 && version <= ifVersion {
		return nil, version, true, nil
	}
	return c.partSorted(part, true), version, false, nil
}

// ListVersion implements Store.
func (s *Locked) ListVersion(name string) (version uint64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, err := s.coll(name)
	if err != nil {
		return 0, err
	}
	return c.version, nil
}

// ListPinned implements Store.
func (s *Locked) ListPinned(name string, pin int64) (parts [][]Ref, vers []uint64, err error) {
	defer s.ins.observe(OpListPinned, time.Now(), &err)
	s.mu.Lock()
	defer s.mu.Unlock()
	c, err := s.coll(name)
	if err != nil {
		return nil, nil, err
	}
	return c.listPinned(pin)
}

// Add implements Store.
func (s *Locked) Add(name string, ref Ref) (version uint64, err error) {
	defer s.ins.observe(OpAdd, time.Now(), &err)
	var ev ChangeEvent
	// Registered before the lock's defer so it fires after the unlock:
	// subscribers never run under the engine mutex.
	defer func() {
		if err == nil {
			s.watch.fire(ev)
		}
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	c, err := s.coll(name)
	if err != nil {
		return 0, err
	}
	part := c.partOf(ref.ID)
	v := c.add(ref)
	ev = ChangeEvent{Coll: name, Part: part, Version: v}
	return v, nil
}

// Remove implements Store.
func (s *Locked) Remove(name string, id ObjectID) (ref Ref, deferred bool, version uint64, err error) {
	defer s.ins.observe(OpRemove, time.Now(), &err)
	var ev ChangeEvent
	defer func() {
		if err == nil {
			s.watch.fire(ev)
		}
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	c, err := s.coll(name)
	if err != nil {
		return Ref{}, false, 0, err
	}
	part := c.partOf(id)
	ref, deferred, version, err = c.remove(id)
	if err == nil {
		ev = ChangeEvent{Coll: name, Part: part, Version: version}
	}
	return ref, deferred, version, err
}

// Pin implements Store.
func (s *Locked) Pin(name string) (pin int64, vers []uint64, err error) {
	defer s.ins.observe(OpPin, time.Now(), &err)
	s.mu.Lock()
	defer s.mu.Unlock()
	c, err := s.coll(name)
	if err != nil {
		return 0, nil, err
	}
	pin, vers = c.pin(nil)
	return pin, vers, nil
}

// Unpin implements Store.
func (s *Locked) Unpin(name string, pin int64) (err error) {
	defer s.ins.observe(OpUnpin, time.Now(), &err)
	s.mu.Lock()
	defer s.mu.Unlock()
	c, err := s.coll(name)
	if err != nil {
		return err
	}
	return c.unpin(pin)
}

// BeginGrow implements Store.
func (s *Locked) BeginGrow(name string) (token int64, err error) {
	defer s.ins.observe(OpBeginGrow, time.Now(), &err)
	s.mu.Lock()
	defer s.mu.Unlock()
	c, err := s.coll(name)
	if err != nil {
		return 0, err
	}
	return c.beginGrow(), nil
}

// EndGrow implements Store.
func (s *Locked) EndGrow(name string, token int64) (reclaim []Ref, err error) {
	defer s.ins.observe(OpEndGrow, time.Now(), &err)
	var (
		ev      ChangeEvent
		changed bool
	)
	defer func() {
		if changed {
			s.watch.fire(ev)
		}
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	c, err := s.coll(name)
	if err != nil {
		return nil, err
	}
	before := c.version
	reclaim, err = c.endGrow(token)
	if err == nil && c.version != before {
		// Ghost GC may touch several partitions at once.
		ev = ChangeEvent{Coll: name, Part: PartAll, Version: c.version}
		changed = true
	}
	return reclaim, err
}

// CollStats implements Store.
func (s *Locked) CollStats(name string) (CollStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, err := s.coll(name)
	if err != nil {
		return CollStats{}, err
	}
	return c.stats(), nil
}

// PartVersions implements Store.
func (s *Locked) PartVersions(name string) ([]uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, err := s.coll(name)
	if err != nil {
		return nil, err
	}
	return c.partVersions(), nil
}

// ApplySyncPart implements Store.
func (s *Locked) ApplySyncPart(name string, partitions, part int, members []Ref, version uint64) bool {
	var err error
	defer s.ins.observe(OpSyncPart, time.Now(), &err)
	if !syncLayoutOK(partitions, part) {
		return false
	}
	var applied bool
	defer func() {
		if applied {
			s.watch.fire(ChangeEvent{Coll: name, Part: part, Version: version})
		}
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	c, found := s.colls[name]
	if !found || c.partitions() != partitions {
		c = newCollState(name, partitions)
		s.colls[name] = c
	}
	applied = c.applySyncPart(part, members, version)
	return applied
}

// Stats implements Store.
func (s *Locked) Stats() EngineStats {
	s.mu.Lock()
	objects, colls := len(s.objects), len(s.colls)
	s.mu.Unlock()
	return EngineStats{
		Engine:      "locked",
		Shards:      1,
		Objects:     objects,
		Collections: colls,
		Batch:       s.ins.batchStats(),
		Ops:         s.ins.opStats(),
	}
}

var _ Store = (*Locked)(nil)
