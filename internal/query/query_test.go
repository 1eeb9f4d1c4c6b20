package query

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"weaksets/internal/cluster"
	"weaksets/internal/core"
	"weaksets/internal/repo"
	"weaksets/internal/wais"
)

func buildQueryWorld(t *testing.T) (*cluster.Cluster, wais.Corpus) {
	t.Helper()
	c, err := cluster.New(cluster.Config{StorageNodes: 4, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	corpus, err := wais.BuildRestaurants(context.Background(), c, 20)
	if err != nil {
		t.Fatal(err)
	}
	return c, corpus
}

func TestQueryCollectPerSemantics(t *testing.T) {
	c, corpus := buildQueryWorld(t)
	q, err := New(c.Client, corpus.Dir, corpus.Coll, `cuisine == "chinese"`)
	if err != nil {
		t.Fatal(err)
	}
	for _, sem := range core.AllSemantics() {
		sem := sem
		t.Run(sem.String(), func(t *testing.T) {
			opts := Options{Semantics: sem}
			if sem == core.ImmutablePerRun {
				opts.SetOptions.LockServer = c.LockNode
			}
			results, err := q.Collect(context.Background(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != 4 {
				t.Fatalf("matches = %d, want 4 of 20", len(results))
			}
			for _, r := range results {
				if r.Element.Attrs["cuisine"] != "chinese" {
					t.Fatalf("bad match: %v", r.Element.Attrs)
				}
			}
		})
	}
}

func TestQueryDynamic(t *testing.T) {
	c, corpus := buildQueryWorld(t)
	q, err := New(c.Client, corpus.Dir, corpus.Coll, `cuisine == "thai" || cuisine == "indian"`)
	if err != nil {
		t.Fatal(err)
	}
	n, err := q.Count(context.Background(), Options{Dynamic: true, DynOptions: core.DynOptions{Width: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Fatalf("count = %d, want 8", n)
	}
}

func TestQueryFirstStopsEarly(t *testing.T) {
	c, corpus := buildQueryWorld(t)
	q, err := New(c.Client, corpus.Dir, corpus.Coll, `cuisine != ""`)
	if err != nil {
		t.Fatal(err)
	}
	res, found, err := q.First(context.Background(), Options{Semantics: core.Optimistic})
	if err != nil {
		t.Fatal(err)
	}
	if !found || res.Element.Attrs["cuisine"] == "" {
		t.Fatalf("first = %+v found=%v", res, found)
	}
}

// TestDynamicQueryReturnsGoroutines stops dynamic queries early and runs
// one to the end: each run's opening listing stream and fetch pipeline
// stop when the query returns, so the process is back at its goroutine
// baseline.
func TestDynamicQueryReturnsGoroutines(t *testing.T) {
	c, corpus := buildQueryWorld(t)
	q, err := New(c.Client, corpus.Dir, corpus.Coll, `cuisine != ""`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := Options{Dynamic: true, DynOptions: core.DynOptions{Width: 2, Batch: 1}}
	baseline := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		if _, found, err := q.First(ctx, opts); err != nil || !found {
			t.Fatalf("first: found %v, err %v", found, err)
		}
	}
	if n, err := q.Count(ctx, opts); err != nil || n != 20 {
		t.Fatalf("count = %d, err %v; want 20", n, err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the queries\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
	}
}

func TestQueryStreamExaminedCount(t *testing.T) {
	c, corpus := buildQueryWorld(t)
	q, err := New(c.Client, corpus.Dir, corpus.Coll, `cuisine == "diner"`)
	if err != nil {
		t.Fatal(err)
	}
	examined, err := q.Stream(context.Background(), Options{Semantics: core.Snapshot}, func(Result) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if examined != 20 {
		t.Fatalf("examined = %d, want 20", examined)
	}
}

func TestQueryInheritsIteratorFailure(t *testing.T) {
	c, corpus := buildQueryWorld(t)
	c.Net.Isolate(c.Storage[0])
	q, err := New(c.Client, corpus.Dir, corpus.Coll, `cuisine == "chinese"`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = q.Collect(context.Background(), Options{Semantics: core.GrowOnly})
	if !errors.Is(err, core.ErrFailure) {
		t.Fatalf("err = %v, want ErrFailure", err)
	}
	// The same query on a dynamic set degrades instead of failing.
	results, err := q.Collect(context.Background(), Options{Dynamic: true, DynOptions: core.DynOptions{Width: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 || len(results) > 4 {
		t.Fatalf("dynamic matches = %d", len(results))
	}
}

func TestQueryBadPredicate(t *testing.T) {
	c, corpus := buildQueryWorld(t)
	if _, err := New(c.Client, corpus.Dir, corpus.Coll, `cuisine ==`); !errors.Is(err, ErrParse) {
		t.Fatalf("err = %v, want parse error", err)
	}
}

func TestQueryInvalidOptions(t *testing.T) {
	c, corpus := buildQueryWorld(t)
	q, err := New(c.Client, corpus.Dir, corpus.Coll, `a == 1`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Collect(context.Background(), Options{}); err == nil {
		t.Fatal("zero options accepted")
	}
}

func TestQuerySeesLiveAdditionsUnderOptimistic(t *testing.T) {
	c, corpus := buildQueryWorld(t)
	ctx := context.Background()
	q, err := New(c.Client, corpus.Dir, corpus.Coll, `cuisine == "fusion"`)
	if err != nil {
		t.Fatal(err)
	}

	// Add a matching element after the first yield, mid-iteration.
	added := false
	var matches int
	_, err = q.Stream(ctx, Options{Semantics: core.Optimistic, SetOptions: core.Options{BlockRetry: time.Millisecond}}, func(r Result) bool {
		matches++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if matches != 0 {
		t.Fatalf("pre-existing fusion restaurants: %d", matches)
	}

	// Now interleave: stream while adding.
	set, err := core.NewSet(c.Client, corpus.Dir, corpus.Coll, core.Options{Semantics: core.Optimistic})
	if err != nil {
		t.Fatal(err)
	}
	it, err := set.Elements(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close(ctx)
	pred := q.Predicate()
	matches = 0
	count := 0
	for it.Next(ctx) {
		count++
		if pred.Eval(it.Element().Attrs) {
			matches++
		}
		if !added {
			added = true
			obj := repo.Object{
				ID:    "fusion-1",
				Data:  []byte("menu"),
				Attrs: map[string]string{"cuisine": "fusion"},
			}
			ref, err := c.Client.Put(ctx, c.Storage[1], obj)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Client.Add(ctx, corpus.Dir, corpus.Coll, ref); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if matches != 1 {
		t.Fatalf("live addition matches = %d, want 1", matches)
	}
	if count < 21 {
		t.Fatalf("examined %d, want the original 20 plus the addition", count)
	}
}
