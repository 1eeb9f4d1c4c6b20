package experiments

import (
	"context"
	"fmt"
	"time"

	"weaksets/internal/cluster"
	"weaksets/internal/core"
	"weaksets/internal/metrics"
	"weaksets/internal/netsim"
	"weaksets/internal/repo"
	"weaksets/internal/sim"
)

// E9ReplicatedDirectory evaluates directory replication, the repo's
// answer to the paper's §3.3 remark that "one could easily specify the
// iterator to use a quorum or token-based scheme": membership kept on
// three replicas and read from the closest live one (Options.Replicas,
// staleness accounted in the WeaknessReport), versus the single-directory
// baseline. Elements live on nodes disjoint from the membership replicas
// so the experiment isolates *directory* availability.
//
// Expected shape: with the primary deterministically down the single
// directory completes 0% and the replicated one 100%; under independent
// replica crashes with probability p a replicated read needs any one of
// three up, completing at 1-p^3 > 1-p.
func E9ReplicatedDirectory(cfg Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	ps := []float64{0.1, 0.2, 0.3}
	trials := 40
	if cfg.Quick {
		ps = []float64{0.2}
		trials = 12
	}
	const elements = 12

	table := metrics.NewTable(
		"E9: directory availability — single node vs 3-replica directory, closest-live reads",
		"scenario", "single-dir completed", "replicated completed",
	)
	ctx := context.Background()

	build := func() (*cluster.Cluster, []netsim.NodeID, error) {
		c, err := cluster.New(cluster.Config{
			StorageNodes: 6,
			Seed:         cfg.Seed,
			Scale:        cfg.Scale,
			Latency:      sim.Fixed(10 * time.Millisecond),
		})
		if err != nil {
			return nil, nil, err
		}
		if err := c.Client.CreateCollection(ctx, cluster.DirNode, "e9"); err != nil {
			c.Close()
			return nil, nil, err
		}
		// Elements on s2..s5 only; membership replicas on dir, s0, s1.
		for i := 0; i < elements; i++ {
			node := c.Storage[2+i%4]
			obj := repo.Object{ID: repo.ObjectID(fmt.Sprintf("e%03d", i)), Data: make([]byte, 64)}
			ref, err := c.Client.Put(ctx, node, obj)
			if err != nil {
				c.Close()
				return nil, nil, err
			}
			if err := c.Client.Add(ctx, cluster.DirNode, "e9", ref); err != nil {
				c.Close()
				return nil, nil, err
			}
		}
		replicas := []netsim.NodeID{c.Storage[0], c.Storage[1]}
		if err := c.Servers[cluster.DirNode].ReplicateCollection("e9", replicas); err != nil {
			c.Close()
			return nil, nil, err
		}
		// Wait for the replicas to absorb the initial push.
		for _, r := range replicas {
			for {
				members, _, err := c.Client.List(ctx, r, "e9")
				if err == nil && len(members) == elements {
					break
				}
				cfg.Scale.Sleep(10 * time.Millisecond)
			}
		}
		return c, append([]netsim.NodeID{cluster.DirNode}, replicas...), nil
	}

	c, members, err := build()
	if err != nil {
		return nil, err
	}
	defer c.Close()

	runOnce := func(replicated bool) bool {
		opts := core.Options{Semantics: core.GrowOnly}
		if replicated {
			opts.Replicas = core.ReplicaConfig{Nodes: members}
		}
		s, err := core.NewSet(c.Client, cluster.DirNode, "e9", opts)
		if err != nil {
			return false
		}
		elems, err := s.Collect(ctx)
		return err == nil && len(elems) == elements
	}

	// Deterministic scenario: the primary directory is down.
	c.Net.Crash(cluster.DirNode)
	singleOK, replicatedOK := runOnce(false), runOnce(true)
	c.Net.Restart(cluster.DirNode)
	table.AddRow("primary down", metrics.FmtPct(b2f(singleOK)), metrics.FmtPct(b2f(replicatedOK)))

	// Probabilistic scenario: each membership replica crashes with p.
	rng := sim.NewRand(cfg.Seed + 9)
	for _, p := range ps {
		singleDone, replicatedDone := 0, 0
		for trial := 0; trial < trials; trial++ {
			for _, node := range members {
				if rng.Float64() < p {
					c.Net.Crash(node)
				}
			}
			if runOnce(false) {
				singleDone++
			}
			if runOnce(true) {
				replicatedDone++
			}
			for _, node := range members {
				c.Net.Restart(node)
			}
		}
		table.AddRow(fmt.Sprintf("replica crash p=%.1f", p),
			metrics.FmtPct(float64(singleDone)/float64(trials)),
			metrics.FmtPct(float64(replicatedDone)/float64(trials)))
	}
	return table, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
