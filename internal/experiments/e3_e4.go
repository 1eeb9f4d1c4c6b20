package experiments

import (
	"context"
	"fmt"
	"time"

	"weaksets/internal/core"
	"weaksets/internal/locksvc"
	"weaksets/internal/metrics"
	"weaksets/internal/repo"
	"weaksets/internal/sim"
	"weaksets/internal/spec"
	"weaksets/internal/workload"
)

// E3LockCost measures how long a writer stalls while a reader holds an
// iterator open, for the locking semantics versus the lock-free ones.
// Paper claim (§3.1): "typical implementations would use locks to
// synchronize access to the set and its elements. Iterating over a large,
// geographically dispersed set of objects is time consuming, especially if
// a human is responsible for flow control" — i.e. writer stall grows with
// reader hold time under immutable-per-run, and stays flat for the ghost
// and optimistic designs.
func E3LockCost(cfg Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	holds := []time.Duration{10 * time.Millisecond, 100 * time.Millisecond, time.Second}
	if cfg.Quick {
		holds = []time.Duration{10 * time.Millisecond, 100 * time.Millisecond}
	}
	const elements = 8

	table := metrics.NewTable(
		"E3: writer stall vs reader hold time",
		"reader hold", "reader semantics", "writer stall", "writer outcome",
	)
	ctx := context.Background()
	sems := []core.Semantics{core.ImmutablePerRun, core.GrowOnlyPerRun, core.Optimistic}
	for _, hold := range holds {
		for _, sem := range sems {
			w, err := buildWorld(worldSpec{
				seed:     cfg.Seed,
				scale:    cfg.Scale,
				latency:  sim.Fixed(5 * time.Millisecond),
				elements: elements,
			})
			if err != nil {
				return nil, err
			}
			stall, outcome, err := measureWriterStall(ctx, w, sem, hold)
			if err != nil {
				w.close()
				return nil, err
			}
			table.AddRow(metrics.FmtDur(hold), sem.String(), metrics.FmtDur(stall), outcome)
			w.close()
		}
	}
	return table, nil
}

// measureWriterStall opens a reader run, keeps it open for hold (virtual),
// and measures how long a concurrent writer waits before its mutation is
// applied, relative to an uncontended baseline measured first on the same
// world (the baseline subtraction cancels RPC latency and scheduler
// overhead, isolating the lock wait). Writers follow the discipline the
// semantics demands: under immutable-per-run they take the write lock
// first; under the weak semantics they mutate directly.
func measureWriterStall(ctx context.Context, w *world, sem core.Semantics, hold time.Duration) (time.Duration, string, error) {
	baseline, err := timedWrite(ctx, w, sem, "baseline-elem")
	if err != nil {
		return 0, "", err
	}

	s, err := w.set(sem, core.Options{LockTTL: hold + 10*time.Second})
	if err != nil {
		return 0, "", err
	}
	it, err := s.Elements(ctx)
	if err != nil {
		return 0, "", err
	}
	for it.Next(ctx) {
	}
	if err := it.Err(); err != nil {
		return 0, "", err
	}
	// The reader now "thinks" (human flow control) while the run stays
	// open, then closes it.
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		w.scale.Sleep(hold)
		_ = it.Close(context.Background())
	}()

	contended, err := timedWrite(ctx, w, sem, "writer-elem")
	<-readerDone
	if err != nil {
		return 0, "", err
	}
	stall := contended - baseline
	if stall < 0 {
		stall = 0
	}
	return stall, "applied", nil
}

// timedWrite performs one discipline-respecting write and returns its
// virtual duration.
func timedWrite(ctx context.Context, w *world, sem core.Semantics, id repo.ObjectID) (time.Duration, error) {
	obj := repo.Object{ID: id, Data: []byte("w")}
	ref, err := w.c.Client.Put(ctx, w.c.Storage[0], obj)
	if err != nil {
		return 0, err
	}
	elapsed := w.scale.Stopwatch()
	if sem == core.ImmutablePerRun {
		lock := locksvc.NewClient(w.c.Bus, w.c.Client.Node(), "e3-writer-"+string(id))
		lock.RetryEvery = 5 * time.Millisecond
		if _, err := lock.Acquire(ctx, w.c.LockNode, "coll/"+w.corpus.Coll, locksvc.Write, 10*time.Second); err != nil {
			return 0, err
		}
		defer func() { _ = lock.Release(context.Background(), w.c.LockNode, "coll/"+w.corpus.Coll) }()
	}
	if err := w.c.Client.Add(ctx, w.corpus.Dir, w.corpus.Coll, ref); err != nil {
		return 0, err
	}
	return elapsed(), nil
}

// E4Staleness measures the anomalies each semantics exhibits under
// concurrent mutation: additions the run misses and elements yielded
// although already deleted. Paper claims: Fig. 4 "may miss elements added
// to s after the first invocation and/or have yielded elements that have
// been removed" (§3.2); Fig. 6 "we will not miss any additions ... we may
// still miss deletions, which means we may yield elements that are
// subsequently deleted" (§3.4).
//
// Expected shape: snapshot misses ~all additions made during its run;
// optimistic misses ~none; both weak semantics may show stale yields,
// the grow-only ghosts by design.
func E4Staleness(cfg Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	periods := []time.Duration{25 * time.Millisecond, 100 * time.Millisecond}
	if cfg.Quick {
		periods = []time.Duration{50 * time.Millisecond}
	}
	const elements = 32

	table := metrics.NewTable(
		"E4: anomalies under concurrent mutation",
		"mutation period", "semantics", "yielded", "adds during run", "missed adds", "deletes during run", "stale yields", "outcome",
	)
	ctx := context.Background()
	sems := []core.Semantics{core.Snapshot, core.GrowOnlyPerRun, core.Optimistic}
	for _, period := range periods {
		for _, sem := range sems {
			w, err := buildWorld(worldSpec{
				seed:     cfg.Seed,
				scale:    cfg.Scale,
				latency:  sim.Fixed(10 * time.Millisecond),
				elements: elements,
			})
			if err != nil {
				return nil, err
			}
			row, err := stalenessTrial(ctx, w, sem, period)
			if err != nil {
				w.close()
				return nil, err
			}
			table.AddRow(append([]string{metrics.FmtDur(period), sem.String()}, row...)...)
			w.close()
		}
	}
	return table, nil
}

func stalenessTrial(ctx context.Context, w *world, sem core.Semantics, period time.Duration) ([]string, error) {
	mut := workload.NewMutator(workload.MutatorConfig{
		Client:      w.c.ClientAt(w.c.Storage[0]),
		Dir:         w.corpus.Dir,
		Coll:        w.corpus.Coll,
		AddEvery:    period,
		RemoveEvery: period,
		ObjectNodes: w.c.Storage,
		ObjectSize:  64,
		IDPrefix:    fmt.Sprintf("mut-%s", sem),
		Initial:     w.corpus.Refs,
		Rand:        sim.NewRand(97),
	})
	s, err := w.set(sem, core.Options{BlockRetry: 10 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	// Bound the mutation burst so an optimistic run cannot be outpaced
	// forever (that effect is measured separately in E7).
	mctx, cancelMut := context.WithTimeout(ctx, w.scale.Real(16*period))
	defer cancelMut()
	mut.Start(mctx)

	it, err := s.Elements(ctx)
	if err != nil {
		mut.Stop()
		return nil, err
	}
	// Elements has taken the snapshot pin by now: an add that took effect
	// before this instant may be in the snapshot, and the run yields it.
	// The run is timed on the mutator's clock, the one its events carry.
	runStart := mut.Elapsed()
	type yieldAt struct {
		id repo.ObjectID
		at time.Duration
		st bool
	}
	var yields []yieldAt
	for it.Next(ctx) {
		e := it.Element()
		yields = append(yields, yieldAt{id: e.Ref.ID, at: mut.Elapsed(), st: e.Stale})
	}
	runEnd := mut.Elapsed()
	iterErr := it.Err()
	_ = it.Close(context.Background())
	mut.Stop()

	added, removed := mut.Added(), mut.Removed()
	yieldedSet := make(map[repo.ObjectID]spec.Outcome, len(yields))
	for _, y := range yields {
		yieldedSet[y.id] = spec.Suspended
	}

	// Additions made during the run — taking effect once the run had
	// opened and before it ended — that were never yielded.
	addsDuring, missedAdds := 0, 0
	for _, ev := range added {
		if ev.At < runStart || ev.At >= runEnd {
			continue
		}
		addsDuring++
		if _, ok := yieldedSet[ev.Ref.ID]; !ok {
			missedAdds++
		}
	}

	// Yields of elements that had already been removed when yielded,
	// plus tombstone yields.
	removedAt := make(map[repo.ObjectID]time.Duration, len(removed))
	deletesDuring := 0
	for _, ev := range removed {
		removedAt[ev.Ref.ID] = ev.At
		if ev.At < runEnd {
			deletesDuring++
		}
	}
	staleYields := 0
	for _, y := range yields {
		if y.st {
			staleYields++
			continue
		}
		if at, ok := removedAt[y.id]; ok && at < y.at {
			staleYields++
		}
	}

	return []string{
		itoa(len(yields)),
		itoa(addsDuring),
		itoa(missedAdds),
		itoa(deletesDuring),
		itoa(staleYields),
		fmtErr(iterErr),
	}, nil
}
