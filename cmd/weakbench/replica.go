package main

// The replica sweep: what replica-parallel reads buy and what they
// cost in staleness. Each level replicates one collection across R
// nodes, caps every server's concurrent handler slots (so "one hot
// node" versus "R replicas" is a capacity fight, not a free lunch), and
// hammers it with concurrent grow-only readers under a churn writer:
// opening listings scatter partition streams across the live replicas
// and element batches round-robin the near-closest ones. Throughput and
// time-to-first-element go up; the replicas' staleness — ReplicaSkew
// version steps, GhostAge since the last anti-entropy push — is read
// back from the weakness registry and reported next to the win, never
// hidden. A final kill-one-replica phase crashes a replica mid-sweep
// and shows reads completing from the survivors.

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"weaksets/internal/cluster"
	"weaksets/internal/core"
	"weaksets/internal/netsim"
	"weaksets/internal/obs"
	"weaksets/internal/repo"
	"weaksets/internal/sim"
)

// Each node is a small server with period-appropriate cost per
// operation: two handler slots, tens of virtual milliseconds of service
// time per call (a disk-bound storage node of the paper's era, against
// 10ms one-way links). At R=1 every listing partition and element batch
// queues on the home's two slots; replication's win is the extra slots
// it buys.
const (
	replicaServiceLimit = 2
	replicaServiceTime  = 200 * time.Millisecond // virtual, scaled like link latency
)

// replicaSweep drives the sweep: one fresh cluster per replication
// level, the kill phase piggybacking on the highest level's cluster.
func replicaSweep(b *bench) error {
	elements, readers, runsPerReader := 64, 16, 24
	if b.quick {
		elements, readers, runsPerReader = 48, 8, 4
	}
	b.params["elements"] = float64(elements)
	b.params["readers"] = float64(readers)
	b.params["runs_per_reader"] = float64(runsPerReader)
	b.params["service_limit"] = replicaServiceLimit
	b.params["service_time_ms"] = ms(replicaServiceTime)

	for t := 0; t < b.trials; t++ {
		var base float64
		for _, r := range []int{1, 2, 3} {
			perSec, err := runReplicaLevel(b, r, elements, readers, runsPerReader, r == 3)
			if err != nil {
				return fmt.Errorf("replicas=%d: %w", r, err)
			}
			if r == 1 {
				base = perSec
			} else {
				b.add(fmt.Sprintf("replicas=%d", r), "replica_speedup", "x", perSec/base)
			}
		}
	}
	return nil
}

// runReplicaLevel builds a fresh cluster, replicates the collection
// across r nodes, waits for the replicas to converge, times the reader
// pool under churn, and records the level's rows; it returns the level's
// elements/sec. With doKill it then crashes one non-home replica and
// runs a second read phase against the survivors, which must complete
// every run.
func runReplicaLevel(b *bench, r, elements, readers, runs int, doKill bool) (float64, error) {
	ctx := context.Background()
	// The scale must be explicit: a zero scale records latencies without
	// sleeping them, so neither the 10ms links nor the per-call service
	// cost would occupy anything and the capacity fight would be fiction.
	c, err := cluster.New(cluster.Config{StorageNodes: 4, Seed: b.seed, Scale: sim.DefaultScale})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	journal := obs.NewJournal(obs.DefaultJournalCapacity)
	c.UseJournal(journal)

	const coll = "replicated"
	if err := c.Client.CreateCollection(ctx, cluster.DirNode, coll); err != nil {
		return 0, err
	}
	// Objects live on the home node so anti-entropy ships their data to
	// the replicas (member refs pointing elsewhere travel by reference).
	for i := 0; i < elements; i++ {
		ref, err := c.Client.Put(ctx, cluster.DirNode, repo.Object{
			ID:   repo.ObjectID(fmt.Sprintf("e%03d", i)),
			Data: make([]byte, 256),
		})
		if err == nil {
			err = c.Client.Add(ctx, cluster.DirNode, coll, ref)
		}
		if err != nil {
			return 0, fmt.Errorf("populate: %w", err)
		}
	}

	nodes, err := c.Replicate(coll, r)
	if err != nil {
		return 0, err
	}
	c.Servers[cluster.DirNode].SetAntiEntropy(100 * time.Millisecond)
	if err := waitReplicaConvergence(ctx, c, coll, nodes); err != nil {
		return 0, err
	}

	// Every server gets the same slot budget and the same per-call
	// service cost: at R=1 all reads queue on the home's slots; at R=3
	// the same workload spreads across three nodes' slots. This is the
	// contention replication relieves.
	for _, node := range append([]netsim.NodeID{cluster.DirNode}, c.Storage...) {
		c.Bus.SetServiceLimit(node, replicaServiceLimit)
		c.Bus.SetServiceTime(node, replicaServiceTime)
	}

	// The churn writer: a steady stream of adds through the home, each
	// commit kicking an anti-entropy round, so the listing version never
	// stops moving and the replicas are perpetually a little behind —
	// the staleness the sweep is pricing. Adds only: grow-only readers
	// must reach every member they listed, so removing mid-run would
	// measure ghost semantics, not replica routing.
	var (
		writes    atomic.Int64
		churnStop = make(chan struct{})
		churnDone = make(chan struct{})
	)
	// The writer is its own process in the model, so it gets its own
	// client: a shared client would couple its mutation epoch to the
	// readers' read-your-writes accounting, and every write would
	// invalidate every in-flight prefetch batch in every reader.
	churnClient := c.ClientAt(cluster.HomeNode)
	go func() {
		defer close(churnDone)
		for i := 0; ; i++ {
			select {
			case <-churnStop:
				return
			default:
			}
			ref, err := churnClient.Put(ctx, cluster.DirNode, repo.Object{
				ID:   repo.ObjectID(fmt.Sprintf("churn%06d", i)),
				Data: make([]byte, 256),
			})
			if err == nil {
				err = churnClient.Add(ctx, cluster.DirNode, coll, ref)
			}
			if err != nil {
				return
			}
			writes.Add(1)
			time.Sleep(20 * time.Millisecond)
		}
	}()
	stopChurn := func() {
		select {
		case <-churnDone:
		default:
			close(churnStop)
			<-churnDone
		}
	}
	defer stopChurn()

	weakness := obs.NewRegistry()
	phase, err := runReplicaPhase(ctx, c, coll, nodes, readers, runs, weakness)
	if err != nil {
		return 0, err
	}

	w := fmt.Sprintf("replicas=%d", r)
	perSec := phase.record(b, w, weakness, coll)
	b.add(w, "writes", "count", float64(writes.Load()))
	if !doKill {
		return perSec, nil
	}

	// Kill phase: crash the farthest replica and read again. The routers
	// time out on it once, mark it dead, and the survivors (home
	// included) carry every remaining partition — runs complete, the
	// staleness they served is reported.
	victim := nodes[len(nodes)-1]
	c.Net.Crash(victim)
	killWeakness := obs.NewRegistry()
	killRuns := max(runs/2, 3)
	killPhase, err := runReplicaPhase(ctx, c, coll, nodes, readers, killRuns, killWeakness)
	stopChurn()
	want := int64(readers * killRuns)
	if err != nil || killPhase.runs != want {
		return 0, fmt.Errorf("kill phase: crashed %s; %d of %d runs completed — survivors did not carry the read load: %v",
			victim, killPhase.runs, want, err)
	}
	killPhase.record(b, "kill", killWeakness, coll)
	b.add("kill", "runs_completed", "count", float64(killPhase.runs))
	b.add("kill", "handoff_events", "count", float64(len(journal.Events(obs.EventFilter{Type: obs.EvHandoff}))))
	return perSec, nil
}

// replicaPhaseResult is one timed read phase's raw counters.
type replicaPhaseResult struct {
	runs    int64
	yielded int64
	elapsed time.Duration
	ttfeP50 time.Duration
	ttfeP99 time.Duration
}

// runReplicaPhase times `readers` concurrent grow-only reader loops of
// `runs` Collects each, recording per-run time-to-first-element. Every
// reader builds its own Set (its own router, probes and hedges) — the
// level's weakness lands in reg.
func runReplicaPhase(ctx context.Context, c *cluster.Cluster, coll string, nodes []netsim.NodeID, readers, runs int, reg *obs.Registry) (replicaPhaseResult, error) {
	var (
		wg      sync.WaitGroup
		yielded atomic.Int64
		done    atomic.Int64
		mu      sync.Mutex
		ttfes   []time.Duration
		readErr error
	)
	start := time.Now()
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// GrowOnly (Fig. 5) matches the add-only churn exactly: every
			// invocation consults current membership, so each yield is one
			// gated ListParts against the closest live replica plus its share of
			// routed element batches — the per-read load replication spreads.
			set, err := core.NewSet(c.ClientAt(cluster.HomeNode), cluster.DirNode, coll, core.Options{
				Semantics: core.GrowOnly,
				Weakness:  reg,
				Replicas:  core.ReplicaConfig{Nodes: nodes},
				// Small batches (the sweep's clients carry no cache) keep
				// element fetches — the part of the read that genuinely
				// spreads across replicas — the dominant load.
				Fetch: core.FetchOptions{Batch: 16},
			})
			for r := 0; err == nil && r < runs; r++ {
				var n int
				var ttfe time.Duration
				n, ttfe, err = collectTimed(ctx, set)
				if err != nil {
					break
				}
				yielded.Add(int64(n))
				done.Add(1)
				mu.Lock()
				ttfes = append(ttfes, ttfe)
				mu.Unlock()
			}
			if err != nil {
				mu.Lock()
				if readErr == nil {
					readErr = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res := replicaPhaseResult{
		runs:    done.Load(),
		yielded: yielded.Load(),
		elapsed: time.Since(start),
	}
	res.ttfeP50, res.ttfeP99 = durQuantiles(ttfes)
	return res, readErr
}

// collectTimed is one full Elements run, returning the yield count and
// the wall time to the first element.
func collectTimed(ctx context.Context, set *core.Set) (int, time.Duration, error) {
	start := time.Now()
	it, err := set.Elements(ctx)
	if err != nil {
		return 0, 0, err
	}
	defer func() { _ = it.Close(context.Background()) }()
	n := 0
	var ttfe time.Duration
	for it.Next(ctx) {
		if n == 0 {
			ttfe = time.Since(start)
		}
		n++
	}
	return n, ttfe, it.Err()
}

// waitReplicaConvergence polls each replica's anti-entropy digest until
// its version vector matches the home's — the populated membership (and
// its object data) has landed everywhere before the clock starts.
func waitReplicaConvergence(ctx context.Context, c *cluster.Cluster, coll string, nodes []netsim.NodeID) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		home, err := c.Client.Digest(ctx, nodes[0], coll)
		if err != nil {
			return fmt.Errorf("convergence: home digest: %w", err)
		}
		settled := true
		for _, node := range nodes[1:] {
			d, err := c.Client.Digest(ctx, node, coll)
			if err != nil || d.Partitions != home.Partitions {
				settled = false
				break
			}
			for i, v := range home.Versions {
				if i >= len(d.Versions) || d.Versions[i] < v {
					settled = false
					break
				}
			}
			if !settled {
				break
			}
		}
		if settled {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("convergence: replicas still behind the home after 15s")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// record adds the phase's throughput, time-to-first-element and — read
// back from reg — the replica staleness it served as rows of workload
// w, and returns its elements/sec.
func (p replicaPhaseResult) record(b *bench, w string, reg *obs.Registry, coll string) float64 {
	perSec := float64(p.yielded) / p.elapsed.Seconds()
	b.add(w, "runs_per_s", "1/s", float64(p.runs)/p.elapsed.Seconds())
	b.add(w, "elems_per_s", "1/s", perSec)
	b.add(w, "ttfe_p50_ms", "ms", ms(p.ttfeP50))
	b.add(w, "ttfe_p99_ms", "ms", ms(p.ttfeP99))
	for _, cw := range reg.Snapshot() {
		if cw.Collection == coll {
			b.add(w, "replica_served", "count", float64(cw.ReplicaServed))
			b.add(w, "replica_skew", "count", float64(cw.ReplicaSkew))
			b.add(w, "max_ghost_age_ms", "ms", ms(cw.MaxGhostAge))
		}
	}
	return perSec
}

// durQuantiles returns the p50 and p99 of a sample set.
func durQuantiles(ds []time.Duration) (p50, p99 time.Duration) {
	if len(ds) == 0 {
		return 0, 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	at := func(q float64) time.Duration {
		i := int(q * float64(len(ds)-1))
		return ds[i]
	}
	return at(0.50), at(0.99)
}
