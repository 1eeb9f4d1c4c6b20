// Package netsim simulates the wide-area distributed system the paper
// assumes: "a set of connected nodes, not necessarily strongly connected"
// where "nodes may crash and communication links may fail", and where
// failures are detectable. It provides nodes, per-link latency
// distributions, network partitions, node crashes, and probabilistic
// message loss, all derived deterministically from a seed.
//
// The simulator runs in (scaled) real time: a message delay of 50 virtual
// milliseconds is an actual sleep of 50ms x TimeScale, so goroutine-level
// parallelism — the thing dynamic sets exploit — is real, while experiments
// finish quickly.
package netsim

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"weaksets/internal/sim"
)

// NodeID names a node in the simulated system.
type NodeID string

// Errors reported by the network. These model the paper's single "failure"
// exception: "any kind of failure, e.g., a timeout, node crash, or link
// down, due to the distributed nature of the system" (§2.1).
var (
	// ErrUnreachable is the detectable failure exception of the paper: the
	// destination exists but cannot currently be reached.
	ErrUnreachable = errors.New("netsim: destination unreachable")
	// ErrNoSuchNode reports a destination that was never added.
	ErrNoSuchNode = errors.New("netsim: no such node")
	// ErrDropped reports a message lost in transit (also surfaced as the
	// failure exception after a timeout).
	ErrDropped = errors.New("netsim: message dropped")
)

type linkKey struct {
	a, b NodeID
}

func normLink(a, b NodeID) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a: a, b: b}
}

// Config parameterizes a Network.
type Config struct {
	// Seed drives every random choice in the network. Equal seeds with an
	// equal call sequence give equal behaviour.
	Seed int64
	// DefaultLatency is the one-way delay distribution used for links with
	// no per-link override. Defaults to a fixed 10ms.
	DefaultLatency sim.Dist
	// DropProb is the probability that any single message is silently lost.
	DropProb float64
	// Scale maps virtual durations to wall-clock sleeps. The zero value
	// sleeps nothing — latencies are recorded but never waited out, which
	// is right for logical-only tests. Experiments that want wall-clock
	// effects (queueing, timeouts, capacity) must set it explicitly, e.g.
	// to sim.DefaultScale (1000x compression).
	Scale sim.TimeScale
	// DetectTimeout is how long (virtual) a sender waits before declaring a
	// peer unreachable. Defaults to 200ms.
	DetectTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.DefaultLatency == nil {
		c.DefaultLatency = sim.Fixed(10 * time.Millisecond)
	}
	if c.DetectTimeout == 0 {
		c.DetectTimeout = 200 * time.Millisecond
	}
	return c
}

// Network is the simulated wide-area network. All methods are safe for
// concurrent use.
type Network struct {
	cfg Config
	rng *sim.Rand

	mu        sync.RWMutex
	nodes     map[NodeID]bool
	crashed   map[NodeID]bool
	partition map[NodeID]int // partition group; absent => group 0
	links     map[linkKey]sim.Dist
	severed   map[linkKey]bool

	// gen counts topology mutations; every mutator of what Reachable
	// reads bumps it while holding mu.
	gen atomic.Uint64
}

// New builds an empty network.
func New(cfg Config) *Network {
	cfg = cfg.withDefaults()
	return &Network{
		cfg:       cfg,
		rng:       sim.NewRand(cfg.Seed),
		nodes:     make(map[NodeID]bool),
		crashed:   make(map[NodeID]bool),
		partition: make(map[NodeID]int),
		links:     make(map[linkKey]sim.Dist),
		severed:   make(map[linkKey]bool),
	}
}

// Generation counts the topology mutations so far — node additions,
// crashes, restarts, partitions, severed and repaired links. While it has
// not moved, every Reachable answer is the one it was: a caller may keep
// an answer together with the generation read before asking, and ask
// again only once the generation differs.
func (n *Network) Generation() uint64 { return n.gen.Load() }

// Scale reports the network's virtual-to-real time scale.
func (n *Network) Scale() sim.TimeScale { return n.cfg.Scale }

// Rand exposes the network's seeded random source so substrates can derive
// deterministic sub-streams.
func (n *Network) Rand() *sim.Rand { return n.rng }

// AddNode registers a node. Adding an existing node is a no-op.
func (n *Network) AddNode(id NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.gen.Add(1)
	n.nodes[id] = true
}

// AddNodes registers several nodes at once and returns their IDs.
func (n *Network) AddNodes(prefix string, count int) []NodeID {
	ids := make([]NodeID, 0, count)
	n.mu.Lock()
	defer n.mu.Unlock()
	n.gen.Add(1)
	for i := 0; i < count; i++ {
		id := NodeID(fmt.Sprintf("%s%d", prefix, i))
		n.nodes[id] = true
		ids = append(ids, id)
	}
	return ids
}

// Nodes lists all registered nodes in sorted order.
func (n *Network) Nodes() []NodeID {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]NodeID, 0, len(n.nodes))
	for id := range n.nodes {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HasNode reports whether id is registered.
func (n *Network) HasNode(id NodeID) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.nodes[id]
}

// Crash takes a node down. Messages to or from it fail until Restart.
func (n *Network) Crash(id NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.gen.Add(1)
	n.crashed[id] = true
}

// Restart brings a crashed node back up.
func (n *Network) Restart(id NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.gen.Add(1)
	delete(n.crashed, id)
}

// Crashed reports whether the node is currently down.
func (n *Network) Crashed(id NodeID) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.crashed[id]
}

// Partition splits the network into the given groups. Nodes not mentioned
// in any group remain in group 0 (together with the first group's nodes
// only if the first group is the implicit one). Passing no groups is
// equivalent to Heal.
func (n *Network) Partition(groups ...[]NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.gen.Add(1)
	n.partition = make(map[NodeID]int)
	for gi, group := range groups {
		for _, id := range group {
			n.partition[id] = gi + 1
		}
	}
}

// Isolate places a single node in its own partition, leaving every other
// node's group unchanged.
func (n *Network) Isolate(id NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.gen.Add(1)
	max := 0
	for _, g := range n.partition {
		if g > max {
			max = g
		}
	}
	n.partition[id] = max + 1
}

// Rejoin returns a node isolated with Isolate to the default group.
func (n *Network) Rejoin(id NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.gen.Add(1)
	delete(n.partition, id)
}

// Heal removes all partitions and severed links (crashed nodes stay down).
func (n *Network) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.gen.Add(1)
	n.partition = make(map[NodeID]int)
	n.severed = make(map[linkKey]bool)
}

// SeverLink breaks the direct link between a and b without partitioning
// either node from the rest of the network.
func (n *Network) SeverLink(a, b NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.gen.Add(1)
	n.severed[normLink(a, b)] = true
}

// RepairLink restores a severed link.
func (n *Network) RepairLink(a, b NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.gen.Add(1)
	delete(n.severed, normLink(a, b))
}

// SetLinkLatency overrides the one-way latency distribution between a and b
// (symmetric).
func (n *Network) SetLinkLatency(a, b NodeID, d sim.Dist) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[normLink(a, b)] = d
}

// Reachable reports whether a message from src would currently be delivered
// to dst: both nodes exist and are up, they are in the same partition
// group, and the link between them is not severed. This is the failure
// detector the paper assumes ("we assume we can detect failures").
func (n *Network) Reachable(src, dst NodeID) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.reachableLocked(src, dst)
}

func (n *Network) reachableLocked(src, dst NodeID) bool {
	if !n.nodes[src] || !n.nodes[dst] {
		return false
	}
	if n.crashed[src] || n.crashed[dst] {
		return false
	}
	if src == dst {
		return true
	}
	if n.partition[src] != n.partition[dst] {
		return false
	}
	return !n.severed[normLink(src, dst)]
}

// EstimateRTT reports the expected round-trip time between two nodes based
// on the configured latency distributions. It does not consult
// reachability; it is the "distance" estimate used for closest-first
// fetching.
func (n *Network) EstimateRTT(src, dst NodeID) time.Duration {
	if src == dst {
		return 0
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	d := n.cfg.DefaultLatency
	if ld, ok := n.links[normLink(src, dst)]; ok {
		d = ld
	}
	return 2 * d.Mean()
}

// Transmit models a one-way message: it checks reachability, samples the
// link latency, sleeps the scaled delay, re-checks reachability (a
// partition can form mid-flight), and applies the drop probability. On
// success it returns the virtual latency incurred; on failure it returns
// the virtual time the sender lost before detecting the failure, and the
// error.
func (n *Network) Transmit(src, dst NodeID) (time.Duration, error) {
	n.mu.RLock()
	exists := n.nodes[dst]
	reachable := n.reachableLocked(src, dst)
	dist := n.cfg.DefaultLatency
	if ld, ok := n.links[normLink(src, dst)]; ok {
		dist = ld
	}
	drop := n.cfg.DropProb
	timeout := n.cfg.DetectTimeout
	n.mu.RUnlock()

	if !exists {
		return 0, ErrNoSuchNode
	}
	if !reachable {
		// Failure detection costs the detection timeout.
		n.cfg.Scale.Sleep(timeout)
		return timeout, ErrUnreachable
	}
	if src != dst && drop > 0 && n.rng.Float64() < drop {
		n.cfg.Scale.Sleep(timeout)
		return timeout, ErrDropped
	}
	var lat time.Duration
	if src != dst {
		lat = dist.Sample(n.rng)
		n.cfg.Scale.Sleep(lat)
	}
	if !n.Reachable(src, dst) {
		// The partition formed while the message was in flight.
		rem := timeout - lat
		if rem > 0 {
			n.cfg.Scale.Sleep(rem)
			lat = timeout
		}
		return lat, ErrUnreachable
	}
	return lat, nil
}

// IsFailure reports whether err is one of the network's detectable failure
// exceptions (the paper's "fails" outcome).
func IsFailure(err error) bool {
	return errors.Is(err, ErrUnreachable) || errors.Is(err, ErrDropped) || errors.Is(err, ErrNoSuchNode)
}
