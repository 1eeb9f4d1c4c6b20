package main

// The -replica sweep: what replica-parallel reads buy and what they
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
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"weaksets/internal/cluster"
	"weaksets/internal/core"
	"weaksets/internal/metrics"
	"weaksets/internal/netsim"
	"weaksets/internal/obs"
	"weaksets/internal/repo"
	"weaksets/internal/sim"
)

// replicaPoint is one replication level of the -replica sweep.
type replicaPoint struct {
	Replicas int           `json:"replicas"`
	Runs     int64         `json:"runs"`
	Yielded  int64         `json:"yielded"`
	Elapsed  time.Duration `json:"elapsedNs"`
	// Throughput axis.
	RunsPerSec  float64 `json:"runsPerSec"`
	ElemsPerSec float64 `json:"elemsPerSec"`
	// Time-to-first-element quantiles across every run at this level.
	TTFEP50 time.Duration `json:"ttfeP50Ns"`
	TTFEP99 time.Duration `json:"ttfeP99Ns"`
	// Weakness axis: what serving from replicas cost in staleness.
	ReplicaServed int64         `json:"replicaServed"`
	ReplicaSkew   int64         `json:"replicaSkew"`
	MaxGhostAge   time.Duration `json:"maxGhostAgeNs"`
	Writes        int64         `json:"writes"`
}

// replicaKill is the kill-one-replica phase: reads must keep completing
// from the survivors, with the staleness they serve reported.
type replicaKill struct {
	Killed        string        `json:"killed"`
	Runs          int64         `json:"runs"`
	Completed     int64         `json:"completed"`
	Failed        int64         `json:"failed"`
	Yielded       int64         `json:"yielded"`
	Elapsed       time.Duration `json:"elapsedNs"`
	RunsPerSec    float64       `json:"runsPerSec"`
	ElemsPerSec   float64       `json:"elemsPerSec"`
	ReplicaServed int64         `json:"replicaServed"`
	ReplicaSkew   int64         `json:"replicaSkew"`
	MaxGhostAge   time.Duration `json:"maxGhostAgeNs"`
	// HandoffEvents counts the home's EvHandoff journal records: the
	// hinted-handoff bookkeeping noticing the dead replica.
	HandoffEvents int64 `json:"handoffEvents"`
}

// replicaReport is the BENCH_replica.json document. Speedup maps
// "replicas=N" to this level's elements/sec over the single-home
// baseline.
type replicaReport struct {
	Meta          benchMeta          `json:"meta"`
	GOMAXPROCS    int                `json:"gomaxprocs"`
	Elements      int                `json:"elements"`
	Readers       int                `json:"readers"`
	RunsPerReader int                `json:"runsPerReader"`
	ServiceLimit  int                `json:"serviceLimit"`
	ServiceTime   time.Duration      `json:"serviceTimeNs"`
	ReplicaCounts []int              `json:"replicaCounts"`
	Seed          int64              `json:"seed"`
	Results       []replicaPoint     `json:"results"`
	Speedup       map[string]float64 `json:"speedup"`
	Kill          *replicaKill       `json:"kill,omitempty"`
}

// runReplicaSweep drives the sweep: one fresh cluster per replication
// level, the kill phase piggybacking on the highest level's cluster.
func runReplicaSweep(jsonPath string, quick bool, seed int64) error {
	elements, readers, runsPerReader := 64, 16, 24
	// Each node is a small server with period-appropriate cost per
	// operation: two handler slots, tens of virtual milliseconds of
	// service time per call (a disk-bound storage node of the paper's
	// era, against 10ms one-way links). At R=1 every listing partition
	// and element batch queues on the home's two slots; replication's win
	// is the extra slots it buys.
	const (
		serviceLimit = 2
		serviceTime  = 200 * time.Millisecond // virtual, scaled like link latency
	)
	counts := []int{1, 2, 3}
	if quick {
		elements, readers, runsPerReader = 48, 8, 4
	}

	report := replicaReport{
		Meta:          inprocMeta(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Elements:      elements,
		Readers:       readers,
		RunsPerReader: runsPerReader,
		ServiceLimit:  serviceLimit,
		ServiceTime:   serviceTime,
		ReplicaCounts: counts,
		Seed:          seed,
		Speedup:       map[string]float64{},
	}
	table := metrics.NewTable(
		fmt.Sprintf("Replica-parallel reads: %d-element grow-only Collect under churn, %d readers, %d handler slots/node",
			elements, readers, serviceLimit),
		"replicas", "runs/sec", "elems/sec", "ttfe p50", "ttfe p99", "replica-served", "skew", "ghost-age", "speedup")

	base := 0.0
	for _, r := range counts {
		point, kill, err := runReplicaLevel(r, elements, readers, runsPerReader, serviceLimit, serviceTime, seed, r == counts[len(counts)-1])
		if err != nil {
			return fmt.Errorf("replica sweep: replicas=%d: %w", r, err)
		}
		report.Results = append(report.Results, point)
		report.Kill = kill

		speedup := "-"
		if r == 1 {
			base = point.ElemsPerSec
		} else if base > 0 {
			ratio := point.ElemsPerSec / base
			report.Speedup[fmt.Sprintf("replicas=%d", r)] = ratio
			speedup = fmt.Sprintf("%.1fx", ratio)
		}
		table.AddRow(
			fmt.Sprintf("%d", r),
			fmt.Sprintf("%.1f", point.RunsPerSec),
			fmt.Sprintf("%.0f", point.ElemsPerSec),
			metrics.FmtDur(point.TTFEP50),
			metrics.FmtDur(point.TTFEP99),
			fmt.Sprintf("%d", point.ReplicaServed),
			fmt.Sprintf("%d", point.ReplicaSkew),
			metrics.FmtDur(point.MaxGhostAge),
			speedup,
		)
	}
	table.Render(os.Stdout)

	if k := report.Kill; k != nil {
		fmt.Printf("kill phase: crashed %s; %d/%d runs completed from survivors (%.0f elems/sec, skew %d, ghost-age %s, %d handoff events)\n",
			k.Killed, k.Completed, k.Runs, k.ElemsPerSec, k.ReplicaSkew, metrics.FmtDur(k.MaxGhostAge), k.HandoffEvents)
		if k.Failed > 0 {
			return fmt.Errorf("replica sweep: kill phase: %d of %d runs failed — survivors did not carry the read load", k.Failed, k.Runs)
		}
	}

	f, err := os.Create(jsonPath)
	if err != nil {
		return fmt.Errorf("replica sweep: %w", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return fmt.Errorf("replica sweep: encode: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("replica sweep: %w", err)
	}
	fmt.Printf("wrote %s (%d levels)\n", jsonPath, len(report.Results))
	return nil
}

// runReplicaLevel builds a fresh cluster, replicates the collection
// across r nodes, waits for the replicas to converge, and times the
// reader pool under churn. With doKill it then crashes one non-home
// replica and runs a second read phase against the survivors.
func runReplicaLevel(r, elements, readers, runs, serviceLimit int, serviceTime time.Duration, seed int64, doKill bool) (replicaPoint, *replicaKill, error) {
	ctx := context.Background()
	// The scale must be explicit: a zero scale records latencies without
	// sleeping them, so neither the 10ms links nor the per-call service
	// cost would occupy anything and the capacity fight would be fiction.
	c, err := cluster.New(cluster.Config{StorageNodes: 4, Seed: seed, Scale: sim.DefaultScale})
	if err != nil {
		return replicaPoint{}, nil, err
	}
	defer c.Close()
	journal := obs.NewJournal(obs.DefaultJournalCapacity)
	c.UseJournal(journal)

	const coll = "replicated"
	if err := c.Client.CreateCollection(ctx, cluster.DirNode, coll); err != nil {
		return replicaPoint{}, nil, err
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
			return replicaPoint{}, nil, fmt.Errorf("populate: %w", err)
		}
	}

	nodes, err := c.Replicate(coll, r)
	if err != nil {
		return replicaPoint{}, nil, err
	}
	c.Servers[cluster.DirNode].SetAntiEntropy(100 * time.Millisecond)
	if err := waitReplicaConvergence(ctx, c, coll, nodes); err != nil {
		return replicaPoint{}, nil, err
	}

	// Every server gets the same slot budget and the same per-call
	// service cost: at R=1 all reads queue on the home's slots; at R=3
	// the same workload spreads across three nodes' slots. This is the
	// contention replication relieves.
	for _, node := range append([]netsim.NodeID{cluster.DirNode}, c.Storage...) {
		c.Bus.SetServiceLimit(node, serviceLimit)
		c.Bus.SetServiceTime(node, serviceTime)
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
		return replicaPoint{}, nil, err
	}

	point := replicaPoint{
		Replicas: r,
		Runs:     phase.runs,
		Yielded:  phase.yielded,
		Elapsed:  phase.elapsed,
		TTFEP50:  phase.ttfeP50,
		TTFEP99:  phase.ttfeP99,
		Writes:   writes.Load(),
	}
	if s := phase.elapsed.Seconds(); s > 0 {
		point.RunsPerSec = float64(phase.runs) / s
		point.ElemsPerSec = float64(phase.yielded) / s
	}
	point.ReplicaServed, point.ReplicaSkew, point.MaxGhostAge = weaknessReplicaFigures(weakness, coll)

	if !doKill || r < 2 {
		return point, nil, nil
	}

	// Kill phase: crash the farthest replica and read again. The routers
	// time out on it once, mark it dead, and the survivors (home
	// included) carry every remaining partition — runs complete, the
	// staleness they served is reported.
	victim := nodes[len(nodes)-1]
	c.Net.Crash(victim)
	killWeakness := obs.NewRegistry()
	killRuns := runs / 2
	if killRuns < 3 {
		killRuns = 3
	}
	killPhase, err := runReplicaPhase(ctx, c, coll, nodes, readers, killRuns, killWeakness)
	if err != nil {
		// Reads failing outright is exactly what this phase exists to
		// catch; report it as data, not as a sweep crash.
		killPhase.failed++
	}
	stopChurn()

	kill := &replicaKill{
		Killed:    string(victim),
		Runs:      killPhase.runs + killPhase.failed,
		Completed: killPhase.runs,
		Failed:    killPhase.failed,
		Yielded:   killPhase.yielded,
		Elapsed:   killPhase.elapsed,
	}
	if s := killPhase.elapsed.Seconds(); s > 0 {
		kill.RunsPerSec = float64(killPhase.runs) / s
		kill.ElemsPerSec = float64(killPhase.yielded) / s
	}
	kill.ReplicaServed, kill.ReplicaSkew, kill.MaxGhostAge = weaknessReplicaFigures(killWeakness, coll)
	kill.HandoffEvents = int64(len(journal.Events(obs.EventFilter{Type: obs.EvHandoff})))
	return point, kill, nil
}

// replicaPhaseResult is one timed read phase's raw counters.
type replicaPhaseResult struct {
	runs    int64
	failed  int64
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
			// listIfNew against the closest live replica plus its share of
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

// weaknessReplicaFigures folds one registry's replica staleness
// accounting for coll.
func weaknessReplicaFigures(reg *obs.Registry, coll string) (served, skew int64, ghostAge time.Duration) {
	for _, cw := range reg.Snapshot() {
		if cw.Collection == coll {
			return cw.ReplicaServed, cw.ReplicaSkew, cw.MaxGhostAge
		}
	}
	return 0, 0, 0
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
