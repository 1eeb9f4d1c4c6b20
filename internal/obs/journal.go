package obs

import (
	"sync"
	"time"
)

// Event types recorded in the journal. The set is deliberately small:
// each names a coordination-plane transition worth explaining after the
// fact (why did this run revalidate? why did throughput dip at 12:04?),
// not a per-element data-plane step.
const (
	EvLeaseGrant    = "lease.grant"
	EvLeaseBreak    = "lease.break"
	EvListingSkew   = "skew.listing"
	EvPartitionSkew = "skew.partition"
	EvReconnect     = "rpc.reconnect"
	EvGhostGC       = "ghost.gc"
	EvHandoff       = "replica.handoff"
	EvRepair        = "replica.repair"
)

// Event is one structured journal entry. Seq and Time are assigned by
// the journal at record time; everything else is the emitter's.
type Event struct {
	Seq        int64            `json:"seq"`
	Time       time.Time        `json:"time"`
	Type       string           `json:"type"`
	Process    string           `json:"process,omitempty"`
	Node       string           `json:"node,omitempty"`
	Collection string           `json:"collection,omitempty"`
	Trace      TraceID          `json:"trace,omitempty"`
	Detail     string           `json:"detail,omitempty"`
	Attrs      map[string]int64 `json:"attrs,omitempty"`
}

// Journal is a bounded structured event log: a ring buffer of the most
// recent events plus exact counters (total recorded, dropped, per type)
// that survive ring wrap. It is safe for concurrent use; a nil *Journal
// ignores records, which is how journaling stays optional on every
// emission site.
type Journal struct {
	mu       sync.Mutex
	capacity int
	now      func() time.Time
	ring     []Event
	next     int
	full     bool
	seq      int64
	dropped  int64
	byType   map[string]int64
}

// DefaultJournalCapacity bounds a journal created with capacity <= 0.
const DefaultJournalCapacity = 1024

// NewJournal creates a journal retaining at most `capacity` events
// (values <= 0 select DefaultJournalCapacity).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCapacity
	}
	return &Journal{
		capacity: capacity,
		now:      time.Now,
		byType:   make(map[string]int64),
	}
}

// SetClock replaces the journal's clock (tests).
func (j *Journal) SetClock(now func() time.Time) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.now = now
	j.mu.Unlock()
}

// Record appends one event, assigning its sequence number and timestamp.
// When the ring is full the oldest event is overwritten and the dropped
// counter advances — memory is bounded no matter the event rate. No-op
// on a nil journal.
func (j *Journal) Record(ev Event) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.seq++
	ev.Seq = j.seq
	if ev.Time.IsZero() {
		ev.Time = j.now()
	}
	j.byType[ev.Type]++
	if len(j.ring) < j.capacity {
		j.ring = append(j.ring, ev)
	} else {
		j.ring[j.next] = ev
		j.full = true
		j.dropped++
	}
	j.next = (j.next + 1) % j.capacity
	j.mu.Unlock()
}

// EventFilter selects events from the journal. Zero values match
// everything.
type EventFilter struct {
	// Type keeps only events of this type.
	Type string
	// Collection keeps only events about this collection.
	Collection string
	// SinceSeq keeps only events with Seq > SinceSeq — the resume cursor
	// for a poller.
	SinceSeq int64
	// Limit caps the result to the most recent N matches (0 = all
	// retained).
	Limit int
}

// Events returns retained events matching the filter, oldest first.
func (j *Journal) Events(f EventFilter) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	ordered := make([]Event, 0, len(j.ring))
	if j.full {
		ordered = append(ordered, j.ring[j.next:]...)
		ordered = append(ordered, j.ring[:j.next]...)
	} else {
		ordered = append(ordered, j.ring...)
	}
	j.mu.Unlock()

	out := ordered[:0]
	for _, ev := range ordered {
		if f.Type != "" && ev.Type != f.Type {
			continue
		}
		if f.Collection != "" && ev.Collection != f.Collection {
			continue
		}
		if ev.Seq <= f.SinceSeq {
			continue
		}
		out = append(out, ev)
	}
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[len(out)-f.Limit:]
	}
	return out
}

// JournalStats is the journal's own accounting, for /metrics and /stats.
type JournalStats struct {
	Recorded int64            `json:"recorded"`
	Dropped  int64            `json:"dropped"`
	Retained int              `json:"retained"`
	Capacity int              `json:"capacity"`
	ByType   map[string]int64 `json:"byType"`
}

// Stats snapshots the journal counters.
func (j *Journal) Stats() JournalStats {
	if j == nil {
		return JournalStats{}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	byType := make(map[string]int64, len(j.byType))
	for k, v := range j.byType {
		byType[k] = v
	}
	return JournalStats{
		Recorded: j.seq,
		Dropped:  j.dropped,
		Retained: len(j.ring),
		Capacity: j.capacity,
		ByType:   byType,
	}
}
