// Package workload generates the concurrent activity the paper's design
// space is about: writers mutating a collection while readers iterate
// ("user A may be updating the information repository concurrently with
// user B who is reading from it", §1), and failure schedules that isolate
// and heal nodes ("disconnecting a mobile client from the network while
// traveling is an induced failure", §1.1).
package workload

import (
	"context"
	"fmt"
	"sync"
	"time"

	"weaksets/internal/netsim"
	"weaksets/internal/repo"
	"weaksets/internal/sim"
)

// Event is one recorded mutation, stamped with the virtual time since the
// mutator started at which it had taken effect (its RPCs had returned) —
// later than its scheduled time whenever the mutator runs behind.
type Event struct {
	Ref repo.Ref
	At  time.Duration
}

// MutatorConfig configures a background writer.
type MutatorConfig struct {
	Client *repo.Client
	Dir    netsim.NodeID
	Coll   string
	// AddEvery is the virtual period between additions; zero disables
	// additions.
	AddEvery time.Duration
	// RemoveEvery is the virtual period between removals; zero disables
	// removals.
	RemoveEvery time.Duration
	// ObjectNodes are the nodes new objects are placed on, round-robin.
	ObjectNodes []netsim.NodeID
	// ObjectSize is the payload size of created objects.
	ObjectSize int
	// IDPrefix namespaces the IDs this mutator mints.
	IDPrefix string
	// Initial seeds the removable pool with pre-existing members.
	Initial []repo.Ref
	// Rand drives placement and victim selection. Required.
	Rand *sim.Rand
}

// Mutator is a background writer with a bounded lifetime: Start launches
// it, Stop signals it and waits for it to exit.
type Mutator struct {
	cfg    MutatorConfig
	scale  sim.TimeScale
	cancel context.CancelFunc
	done   chan struct{}

	// elapsed is the virtual time since Start: the clock events are
	// stamped on (Elapsed).
	elapsed func() time.Duration

	mu      sync.Mutex
	pool    []repo.Ref
	added   []Event
	removed []Event
	seq     int
}

// NewMutator builds a mutator; call Start to run it.
func NewMutator(cfg MutatorConfig) *Mutator {
	return &Mutator{
		cfg:   cfg,
		scale: cfg.Client.Bus().Network().Scale(),
		pool:  append([]repo.Ref(nil), cfg.Initial...),
		done:  make(chan struct{}),
	}
}

// Start launches the mutation loop and starts the clock its events are
// stamped on.
func (m *Mutator) Start(ctx context.Context) {
	ictx, cancel := context.WithCancel(ctx)
	m.cancel = cancel
	m.elapsed = m.scale.Stopwatch()
	go m.run(ictx)
}

// Elapsed reads the clock Event.At is stamped on — the virtual time since
// Start — so a caller can time its own activity against the mutator's
// events. Call it only after Start.
func (m *Mutator) Elapsed() time.Duration { return m.elapsed() }

// Stop halts the mutator and waits for it to exit.
func (m *Mutator) Stop() {
	if m.cancel != nil {
		m.cancel()
	}
	<-m.done
}

func (m *Mutator) run(ctx context.Context) {
	defer close(m.done)
	if m.cfg.AddEvery <= 0 && m.cfg.RemoveEvery <= 0 {
		return
	}
	// Schedule against absolute virtual time so the mutator's own RPC
	// latency does not stretch its period (a slow op makes the next one
	// fire immediately rather than drifting the schedule).
	elapsed := m.elapsed
	var nextAdd, nextRemove time.Duration
	if m.cfg.AddEvery > 0 {
		nextAdd = m.cfg.AddEvery
	}
	if m.cfg.RemoveEvery > 0 {
		nextRemove = m.cfg.RemoveEvery
	}
	for {
		var (
			at    time.Duration
			isAdd bool
		)
		switch {
		case nextAdd > 0 && (nextRemove == 0 || nextAdd <= nextRemove):
			at, isAdd = nextAdd, true
		case nextRemove > 0:
			at = nextRemove
		default:
			return
		}
		if wait := at - elapsed(); wait > 0 {
			if !sleepCtx(ctx, m.scale, wait) {
				return
			}
		} else if ctx.Err() != nil {
			return
		}
		// Mutations run under a fresh context so a Stop between RPCs cannot
		// leave a half-applied, unrecorded mutation behind.
		if isAdd {
			m.addOne(context.Background(), elapsed)
			nextAdd = at + m.cfg.AddEvery
		} else {
			m.removeOne(context.Background(), elapsed)
			nextRemove = at + m.cfg.RemoveEvery
		}
	}
}

func (m *Mutator) addOne(ctx context.Context, elapsed func() time.Duration) {
	m.mu.Lock()
	m.seq++
	id := repo.ObjectID(fmt.Sprintf("%s-m%04d", m.cfg.IDPrefix, m.seq))
	m.mu.Unlock()

	node := m.cfg.ObjectNodes[m.cfg.Rand.Intn(len(m.cfg.ObjectNodes))]
	obj := repo.Object{ID: id, Data: make([]byte, m.cfg.ObjectSize)}
	ref, err := m.cfg.Client.Put(ctx, node, obj)
	if err != nil {
		return
	}
	if err := m.cfg.Client.Add(ctx, m.cfg.Dir, m.cfg.Coll, ref); err != nil {
		return
	}
	m.mu.Lock()
	m.pool = append(m.pool, ref)
	m.added = append(m.added, Event{Ref: ref, At: elapsed()})
	m.mu.Unlock()
}

func (m *Mutator) removeOne(ctx context.Context, elapsed func() time.Duration) {
	m.mu.Lock()
	if len(m.pool) == 0 {
		m.mu.Unlock()
		return
	}
	i := m.cfg.Rand.Intn(len(m.pool))
	victim := m.pool[i]
	m.pool = append(m.pool[:i], m.pool[i+1:]...)
	m.mu.Unlock()

	if err := m.cfg.Client.DeleteMember(ctx, m.cfg.Dir, m.cfg.Coll, victim); err != nil {
		return
	}
	m.mu.Lock()
	m.removed = append(m.removed, Event{Ref: victim, At: elapsed()})
	m.mu.Unlock()
}

// Added returns the successful additions so far.
func (m *Mutator) Added() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Event(nil), m.added...)
}

// Removed returns the successful removals so far.
func (m *Mutator) Removed() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Event(nil), m.removed...)
}

// FlakyConfig configures a failure injector.
type FlakyConfig struct {
	Net *netsim.Network
	// Victims are the nodes eligible for isolation.
	Victims []netsim.NodeID
	// Every is the virtual period between outage decisions.
	Every time.Duration
	// OutageFor is how long an isolated node stays isolated.
	OutageFor time.Duration
	// POutage is the probability an outage starts at each decision point.
	POutage float64
	// Rand drives victim selection. Required.
	Rand *sim.Rand
}

// Flaky periodically isolates random victim nodes and heals them after a
// fixed outage, modelling transient disconnection.
type Flaky struct {
	cfg    FlakyConfig
	scale  sim.TimeScale
	cancel context.CancelFunc
	done   chan struct{}

	mu      sync.Mutex
	outages int
}

// NewFlaky builds a failure injector; call Start to run it.
func NewFlaky(cfg FlakyConfig) *Flaky {
	return &Flaky{cfg: cfg, scale: cfg.Net.Scale(), done: make(chan struct{})}
}

// Start launches the injection loop.
func (f *Flaky) Start(ctx context.Context) {
	ictx, cancel := context.WithCancel(ctx)
	f.cancel = cancel
	go f.run(ictx)
}

// Stop halts injection, heals all victims, and waits for exit.
func (f *Flaky) Stop() {
	if f.cancel != nil {
		f.cancel()
	}
	<-f.done
	for _, v := range f.cfg.Victims {
		f.cfg.Net.Rejoin(v)
	}
}

// Outages reports how many outages were injected.
func (f *Flaky) Outages() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.outages
}

func (f *Flaky) run(ctx context.Context) {
	defer close(f.done)
	for {
		if !sleepCtx(ctx, f.scale, f.cfg.Every) {
			return
		}
		if f.cfg.Rand.Float64() >= f.cfg.POutage {
			continue
		}
		victim := f.cfg.Victims[f.cfg.Rand.Intn(len(f.cfg.Victims))]
		f.cfg.Net.Isolate(victim)
		f.mu.Lock()
		f.outages++
		f.mu.Unlock()
		if !sleepCtx(ctx, f.scale, f.cfg.OutageFor) {
			f.cfg.Net.Rejoin(victim)
			return
		}
		f.cfg.Net.Rejoin(victim)
	}
}

// sleepCtx sleeps a scaled virtual duration, returning false if the
// context ended first.
func sleepCtx(ctx context.Context, scale sim.TimeScale, virtual time.Duration) bool {
	return scale.SleepCtxFloor(ctx, virtual, 50*time.Microsecond)
}
