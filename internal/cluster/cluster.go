// Package cluster assembles the full substrate stack — simulated network,
// RPC bus, repository servers on every node, and a lock service — into one
// handle. Tests, benchmarks, examples and commands all build their worlds
// through it.
package cluster

import (
	"fmt"
	"time"

	"weaksets/internal/locksvc"
	"weaksets/internal/netsim"
	"weaksets/internal/obs"
	"weaksets/internal/repo"
	"weaksets/internal/rpc"
	"weaksets/internal/sim"
	"weaksets/internal/store"
)

// Well-known node names.
const (
	// HomeNode is the client's workstation.
	HomeNode netsim.NodeID = "home"
	// DirNode is the directory node holding collections and the lock
	// service.
	DirNode netsim.NodeID = "dir"
)

// Config sizes and seeds a cluster.
type Config struct {
	// StorageNodes is the number of object-storage nodes (named s0, s1,
	// ...). Defaults to 4.
	StorageNodes int
	// Seed drives all randomness.
	Seed int64
	// Latency is the default one-way link latency. Defaults to fixed 10ms.
	Latency sim.Dist
	// Scale is the virtual-to-real time scale. The zero value sleeps
	// nothing (logical-only latencies); experiments that want wall-clock
	// queueing and timeouts set it, e.g. to sim.DefaultScale.
	Scale sim.TimeScale
	// DropProb is the per-message loss probability.
	DropProb float64
	// DetectTimeout is the failure-detection timeout. Defaults to 200ms
	// virtual.
	DetectTimeout time.Duration
}

// Cluster is a running substrate: network, bus, one repository server per
// node, a lock server on the directory node, and a client homed at
// HomeNode.
type Cluster struct {
	Net      *netsim.Network
	Bus      *rpc.Bus
	Storage  []netsim.NodeID
	Servers  map[netsim.NodeID]*repo.Server
	LockSrv  *locksvc.Server
	LockNode netsim.NodeID
	Client   *repo.Client
	Rand     *sim.Rand
}

// New builds and starts a cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.StorageNodes <= 0 {
		cfg.StorageNodes = 4
	}
	if cfg.Latency == nil {
		cfg.Latency = sim.Fixed(10 * time.Millisecond)
	}
	net := netsim.New(netsim.Config{
		Seed:           cfg.Seed,
		DefaultLatency: cfg.Latency,
		DropProb:       cfg.DropProb,
		Scale:          cfg.Scale,
		DetectTimeout:  cfg.DetectTimeout,
	})
	net.AddNode(HomeNode)
	net.AddNode(DirNode)
	storage := net.AddNodes("s", cfg.StorageNodes)

	bus := rpc.NewBus(net)
	servers := make(map[netsim.NodeID]*repo.Server, cfg.StorageNodes+2)
	for _, node := range append([]netsim.NodeID{HomeNode, DirNode}, storage...) {
		srv, err := repo.NewServer(bus, node)
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		servers[node] = srv
	}
	lockSrv, err := locksvc.NewServer(bus, DirNode)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	return &Cluster{
		Net:      net,
		Bus:      bus,
		Storage:  storage,
		Servers:  servers,
		LockSrv:  lockSrv,
		LockNode: DirNode,
		Client:   repo.NewClient(bus, HomeNode),
		Rand:     net.Rand().Fork(),
	}, nil
}

// UseTracer attaches a tracer to the bus and to every repository server,
// so traced runs produce spans at the RPC and store layers. Call it before
// any traffic flows.
func (c *Cluster) UseTracer(t *obs.Tracer) {
	c.Bus.UseTracer(t)
	for _, srv := range c.Servers {
		srv.UseTracer(t)
	}
}

// UseJournal attaches an event journal to every repository server, so
// coordination-plane events (lease grants, ghost GC) land in one
// queryable ring. Call it before any traffic flows.
func (c *Cluster) UseJournal(j *obs.Journal) {
	for _, srv := range c.Servers {
		srv.UseJournal(j)
	}
}

// ClientAt creates an additional client homed at the given node.
func (c *Cluster) ClientAt(node netsim.NodeID) *repo.Client {
	return repo.NewClient(c.Bus, node)
}

// StorageFor deterministically assigns the i-th object to a storage node.
func (c *Cluster) StorageFor(i int) netsim.NodeID {
	return c.Storage[i%len(c.Storage)]
}

// ReplicaSet is the per-collection replica placement map: the home
// (directory) node first, then n-1 storage nodes picked by the listing
// partitioner's function over the collection name (store.PartOf) — so
// different collections land on different replica sets and their
// partitions scatter *across* the cluster, not all behind one node. n is clamped to the nodes available;
// n <= 1 means unreplicated (home only).
func (c *Cluster) ReplicaSet(name string, n int) []netsim.NodeID {
	out := []netsim.NodeID{DirNode}
	if n > len(c.Storage)+1 {
		n = len(c.Storage) + 1
	}
	if n <= 1 || len(c.Storage) == 0 {
		return out
	}
	start := store.PartOf(store.ObjectID(name), len(c.Storage))
	for i := 0; len(out) < n; i++ {
		out = append(out, c.Storage[(start+i)%len(c.Storage)])
	}
	return out
}

// Replicate places a collection on n replicas (ReplicaSet placement) and
// starts the home's anti-entropy toward them. It returns the replica set
// for the client side (core.ReplicaConfig.Nodes wants exactly this,
// home first).
func (c *Cluster) Replicate(name string, n int) ([]netsim.NodeID, error) {
	nodes := c.ReplicaSet(name, n)
	if err := c.Servers[DirNode].ReplicateCollection(name, nodes[1:]); err != nil {
		return nil, fmt.Errorf("cluster: replicate %q: %w", name, err)
	}
	return nodes, nil
}

// Close shuts down every server's background work.
func (c *Cluster) Close() {
	for _, srv := range c.Servers {
		srv.Close()
	}
}
