package store

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// DefaultPartitions is the listing partition count used when an engine's
// configuration leaves it 0. Partition membership is by FNV-1a hash of
// the object ID, so two nodes holding a collection in the same count
// agree on its layout (a replica adopts its home's count).
const DefaultPartitions = 16

// collPart is one listing partition: an independent slice of the
// membership with its own version. Partition versions are drawn from the
// collection's global change counter, so they are mutually comparable
// and max(partition versions) == the collection version.
type collPart struct {
	version uint64
	members map[ObjectID]Ref
	// ghosts holds members removed while a grow-only window was open;
	// they are still listed so that, during the window, the set only
	// grows (§3.3: "create copies of any deleted objects and then
	// garbage collect these 'ghost' copies upon termination").
	ghosts map[ObjectID]Ref
}

// collState is the unsynchronised bookkeeping for one collection,
// shared by the engines: Locked serialises access with its global
// mutex, Sharded with a per-collection RWMutex. None of these methods
// lock.
//
// Membership is hash-partitioned into len(parts) independent slices so
// engines can snapshot, version-gate, and stream each partition on its
// own; every mutation bumps the global version counter and stamps it
// onto the partition it touched, so a partition's version is "the
// global counter the last time this partition changed".
type collState struct {
	name    string
	version uint64
	parts   []collPart
	// pendingDelete are object refs whose data must be deleted once the
	// last grow token drains (unless the member was re-added meanwhile).
	pendingDelete map[ObjectID]Ref
	pins          map[int64]pinned
	nextPin       int64
	tokens        map[int64]bool
	nextToken     int64
}

func newCollState(name string, partitions int) *collState {
	if partitions <= 0 {
		partitions = DefaultPartitions
	}
	c := &collState{
		name:          name,
		parts:         make([]collPart, partitions),
		pendingDelete: make(map[ObjectID]Ref),
		pins:          make(map[int64]pinned),
		tokens:        make(map[int64]bool),
	}
	for i := range c.parts {
		c.parts[i].members = make(map[ObjectID]Ref)
		c.parts[i].ghosts = make(map[ObjectID]Ref)
	}
	return c
}

// partOf maps an object ID to its listing partition (PartOf).
func (c *collState) partOf(id ObjectID) int { return PartOf(id, len(c.parts)) }

// partitions reports the listing partition count.
func (c *collState) partitions() int { return len(c.parts) }

// memberCount is the live membership size across all partitions.
func (c *collState) memberCount() int {
	n := 0
	for i := range c.parts {
		n += len(c.parts[i].members)
	}
	return n
}

func (c *collState) ghostCount() int {
	n := 0
	for i := range c.parts {
		n += len(c.parts[i].ghosts)
	}
	return n
}

// appendListed appends partition pi's members to out: its live members
// and, with ghosts, its ghosts not re-added live — its listed membership.
func (c *collState) appendListed(out []Ref, pi int, ghosts bool) []Ref {
	p := &c.parts[pi]
	for _, r := range p.members {
		out = append(out, r)
	}
	for id, r := range p.ghosts {
		if _, live := p.members[id]; ghosts && !live {
			out = append(out, r)
		}
	}
	return out
}

// listedMembers is the collection as observed by List: live members
// plus ghosts, sorted by ID.
func (c *collState) listedMembers() []Ref {
	out := make([]Ref, 0, c.memberCount()+c.ghostCount())
	for pi := range c.parts {
		out = c.appendListed(out, pi, true)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// partSorted is one partition's members sorted by ID: its listed
// membership, or without ghosts its live members only — what a pin
// captures of it.
func (c *collState) partSorted(pi int, ghosts bool) []Ref {
	out := c.appendListed(make([]Ref, 0, len(c.parts[pi].members)), pi, ghosts)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (c *collState) add(ref Ref) uint64 {
	p := &c.parts[c.partOf(ref.ID)]
	p.members[ref.ID] = ref
	// Re-adding a ghosted member revives it: the deferred delete must
	// not fire.
	delete(p.ghosts, ref.ID)
	delete(c.pendingDelete, ref.ID)
	c.version++
	p.version = c.version
	return c.version
}

func (c *collState) remove(id ObjectID) (Ref, bool, uint64, error) {
	p := &c.parts[c.partOf(id)]
	ref, member := p.members[id]
	if !member {
		return Ref{}, false, 0, fmt.Errorf("remove %q from %q: %w", id, c.name, ErrNotFound)
	}
	deferred := len(c.tokens) > 0
	if deferred {
		// Grow-only window open: keep a ghost so the set, as listed,
		// only grows for the duration of the window.
		p.ghosts[id] = ref
		c.pendingDelete[id] = ref
	}
	delete(p.members, id)
	c.version++
	p.version = c.version
	return ref, deferred, c.version, nil
}

// pinned is one pin in the collection's own layout: each partition's
// live members, sorted by ID, and the partition's version when the pin
// was taken. Neither is written again, so every reader shares them.
type pinned struct {
	parts [][]Ref
	vers  []uint64
}

// pin captures the live membership, partition by partition, under a new
// handle, and returns the handle and the pin's version vector. published
// (nil for none) may hold each partition's published listed snapshot: at
// the partition's version and with no ghost in the partition it is
// exactly the live members, sorted and never written, so the pin shares
// it rather than sort a copy.
func (c *collState) pin(published []atomic.Pointer[listing]) (int64, []uint64) {
	pn := pinned{parts: make([][]Ref, len(c.parts)), vers: c.partVersions()}
	for pi := range c.parts {
		var l *listing
		if pi < len(published) {
			l = published[pi].Load()
		}
		if l != nil && l.version == c.parts[pi].version && len(c.parts[pi].ghosts) == 0 {
			pn.parts[pi] = l.members
		} else {
			pn.parts[pi] = c.partSorted(pi, false)
		}
	}
	c.nextPin++
	c.pins[c.nextPin] = pn
	return c.nextPin, pn.vers
}

// listPinned hands out the pin itself: it is never written, so every
// reader shares it (Store.ListPinned).
func (c *collState) listPinned(pin int64) ([][]Ref, []uint64, error) {
	pn, found := c.pins[pin]
	if !found {
		return nil, nil, fmt.Errorf("list %q pin %d: %w", c.name, pin, ErrBadPin)
	}
	return pn.parts, pn.vers, nil
}

func (c *collState) unpin(pin int64) error {
	if _, found := c.pins[pin]; !found {
		return fmt.Errorf("unpin %q pin %d: %w", c.name, pin, ErrBadPin)
	}
	delete(c.pins, pin)
	return nil
}

func (c *collState) beginGrow() int64 {
	c.nextToken++
	c.tokens[c.nextToken] = true
	return c.nextToken
}

func (c *collState) endGrow(token int64) ([]Ref, error) {
	if !c.tokens[token] {
		return nil, fmt.Errorf("end grow %q token %d: %w", c.name, token, ErrBadToken)
	}
	delete(c.tokens, token)
	var reclaim []Ref
	if len(c.tokens) == 0 {
		// Last token drained: garbage collect the ghosts (§3.3). Only
		// the partitions that actually listed a ghost change, so only
		// their versions move — a version-gated reader of an untouched
		// partition keeps getting NotModified.
		for id, ref := range c.pendingDelete {
			if _, live := c.parts[c.partOf(id)].members[id]; !live {
				reclaim = append(reclaim, ref)
			}
		}
		for pi := range c.parts {
			p := &c.parts[pi]
			if len(p.ghosts) == 0 {
				continue
			}
			listedGhost := false
			for id := range p.ghosts {
				if _, live := p.members[id]; !live {
					listedGhost = true
					break
				}
			}
			p.ghosts = make(map[ObjectID]Ref)
			if listedGhost {
				// Reclaiming listed ghosts changes the listing; bump the
				// version so version-gated reads cannot miss it.
				c.version++
				p.version = c.version
			}
		}
		c.pendingDelete = make(map[ObjectID]Ref)
	}
	return reclaim, nil
}

func (c *collState) stats() CollStats {
	return CollStats{
		Members:    c.memberCount(),
		Ghosts:     c.ghostCount(),
		Pins:       len(c.pins),
		Tokens:     len(c.tokens),
		Version:    c.version,
		Partitions: len(c.parts),
	}
}

// partVersions copies the per-partition version vector.
func (c *collState) partVersions() []uint64 {
	out := make([]uint64, len(c.parts))
	for pi := range c.parts {
		out[pi] = c.parts[pi].version
	}
	return out
}

// maxSyncPartitions bounds the partition count a replication push may lay
// a replica's collection out in: the count arrives off the wire, and the
// replica sizes its partition table by it.
const maxSyncPartitions = 1 << 12

// syncLayoutOK reports whether a push's partition count and index are in
// range — checked before an engine creates or re-lays out a collection
// for it.
func syncLayoutOK(partitions, part int) bool {
	return partitions > 0 && partitions <= maxSyncPartitions && part >= 0 && part < partitions
}

// applySyncPart applies a per-partition replication push to a collection
// the engine has already laid out in the sender's partition count, and
// reports whether it was accepted: a push at or below the partition's own
// version is stale and declined. Accepted pushes replace only that
// partition's listed membership and move the collection version, as
// every listing change must: to the pushed version when that is ahead,
// one step otherwise — a push landing after a newer one for another
// partition still changes the listing, and a listing cached at the old
// version must not outlive it.
func (c *collState) applySyncPart(part int, members []Ref, version uint64) bool {
	p := &c.parts[part]
	if version <= p.version {
		return false
	}
	p.members = make(map[ObjectID]Ref, len(members))
	p.ghosts = make(map[ObjectID]Ref)
	for _, ref := range members {
		p.members[ref.ID] = ref
	}
	p.version = version
	if version > c.version {
		c.version = version
	} else {
		c.version++
	}
	return true
}
