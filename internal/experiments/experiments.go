// Package experiments implements the evaluation the paper promises but
// does not include (§5: "We hope to prove the performance benefits
// resulting from the use of a weak consistency semantics by evaluation of
// our system"). Each experiment E1–E9 is anchored to an explicit claim in
// the paper (see DESIGN.md §4) and produces a table; cmd/weakbench prints
// them and bench_test.go wraps them as testing.B benchmarks.
//
// Experiments run on the simulated wide-area substrate with a scaled
// clock: durations reported in the tables are virtual (model) durations.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"time"

	"weaksets/internal/cluster"
	"weaksets/internal/core"
	"weaksets/internal/metrics"
	"weaksets/internal/sim"
	"weaksets/internal/wais"
)

// Config sizes the experiment sweeps.
type Config struct {
	// Seed drives all randomness. Experiments are deterministic up to
	// goroutine scheduling.
	Seed int64
	// Scale is the virtual-to-real time compression. Defaults to 0.01
	// (100x), which keeps the smallest scaled sleeps above the OS timer
	// resolution so shapes are preserved.
	Scale sim.TimeScale
	// Quick trims the sweeps for use in tests and benchmarks.
	Quick bool
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 0.01
	}
	return c
}

// Experiment couples an ID to its runner.
type Experiment struct {
	ID    string
	Claim string
	Run   func(Config) (*metrics.Table, error)
}

// All lists every experiment in order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Claim: "partial results arrive quickly; parallel fetch shortens completion (§1.1)", Run: E1FirstYield},
		{ID: "E2", Claim: "optimistic semantics stay available under partitions; pessimistic fail (§3, §3.4)", Run: E2Availability},
		{ID: "E3", Claim: "locking makes writers wait for readers; weak semantics do not (§3.1)", Run: E3LockCost},
		{ID: "E4", Claim: "snapshots lose mutations; optimistic misses no additions but may yield deleted elements (§3.2, §3.4)", Run: E4Staleness},
		{ID: "E5", Claim: "dynamic-set ls: parallel, closest-first fetching beats sequential stat (§1.1)", Run: E5Prefetch},
		{ID: "E6", Claim: "the semantics form a strictness lattice (§3)", Run: E6Conformance},
		{ID: "E7", Claim: "a grow-only set that grows faster than it is consumed never terminates (§3.3)", Run: E7GrowRace},
		{ID: "E8", Claim: "ghost copies accumulate during a run and are reclaimed at termination (§3.3)", Run: E8Ghosts},
		{ID: "E9", Claim: "a replicated directory tolerates replica failures the single directory cannot (§3.3)", Run: E9ReplicatedDirectory},
	}
}

// Find returns the experiment (or ablation) with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range append(All(), Ablations()...) {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// world is a populated cluster shared by experiment trials.
type world struct {
	c      *cluster.Cluster
	corpus wais.Corpus
	scale  sim.TimeScale
}

type worldSpec struct {
	seed     int64
	scale    sim.TimeScale
	latency  sim.Dist
	storage  int
	elements int
	size     int
}

func buildWorld(sp worldSpec) (*world, error) {
	if sp.storage == 0 {
		sp.storage = 8
	}
	if sp.size == 0 {
		sp.size = 256
	}
	c, err := cluster.New(cluster.Config{
		StorageNodes: sp.storage,
		Seed:         sp.seed,
		Latency:      sp.latency,
		Scale:        sp.scale,
	})
	if err != nil {
		return nil, err
	}
	corpus, err := wais.Build(context.Background(), c, wais.Spec{
		Coll: "exp",
		N:    sp.elements,
		Size: sp.size,
	})
	if err != nil {
		c.Close()
		return nil, err
	}
	return &world{c: c, corpus: corpus, scale: sp.scale}, nil
}

func (w *world) close() { w.c.Close() }

func (w *world) set(sem core.Semantics, opts core.Options) (*core.Set, error) {
	opts.Semantics = sem
	if sem == core.ImmutablePerRun {
		opts.LockServer = w.c.LockNode
	}
	return core.NewSet(w.c.Client, w.corpus.Dir, w.corpus.Coll, opts)
}

// queryResult is one timed iterator run.
type queryResult struct {
	first   time.Duration // virtual time to first element
	total   time.Duration // virtual time to termination
	yielded int
	stale   int
	err     error
}

// runSet times a full run of a weak-set iterator.
func (w *world) runSet(ctx context.Context, sem core.Semantics, opts core.Options) queryResult {
	s, err := w.set(sem, opts)
	if err != nil {
		return queryResult{err: err}
	}
	return w.timed(ctx, s.Elements)
}

// runDyn times a full drain of a dynamic set.
func (w *world) runDyn(ctx context.Context, opts core.DynOptions) queryResult {
	return w.timed(ctx, func(ctx context.Context) (*core.Iterator, error) {
		return core.OpenDyn(ctx, w.c.Client, w.corpus.Dir, w.corpus.Coll, opts)
	})
}

// timed opens a run and drains it, timing from the open.
func (w *world) timed(ctx context.Context, open func(context.Context) (*core.Iterator, error)) queryResult {
	elapsed := w.scale.Stopwatch()
	it, err := open(ctx)
	if err != nil {
		return queryResult{err: err, total: elapsed()}
	}
	defer func() { _ = it.Close(context.Background()) }()
	var res queryResult
	for it.Next(ctx) {
		if res.yielded++; res.yielded == 1 {
			res.first = elapsed()
		}
		if it.Element().Stale {
			res.stale++
		}
	}
	res.total = elapsed()
	res.err = it.Err()
	return res
}

func fmtErr(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, core.ErrFailure):
		return "fails"
	case errors.Is(err, core.ErrBlocked):
		return "blocked"
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return "timeout"
	default:
		return "error"
	}
}

func itoa(v int) string { return fmt.Sprintf("%d", v) }
