// Library: the paper's library-information-system query — "through the
// on-line library information system you want to get a list of papers by a
// particular author" (§1). The catalog is Zipf-placed over archive servers
// (popular archives hold more) and one archive is flaky. The example
// contrasts the strict, all-or-nothing query with the weak-set query that
// returns the accessible papers, and demonstrates stale replica reads.
//
// Run with:
//
//	go run ./examples/library
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"weaksets/internal/cluster"
	"weaksets/internal/core"
	"weaksets/internal/netsim"
	"weaksets/internal/repo"
	"weaksets/internal/sim"
	"weaksets/internal/wais"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	c, err := cluster.New(cluster.Config{
		StorageNodes: 5,
		Seed:         1995,
		Scale:        0.01,
		Latency:      sim.Fixed(20 * time.Millisecond),
	})
	if err != nil {
		return err
	}
	defer c.Close()
	ctx := context.Background()

	authors := []string{"wing", "steere", "liskov", "satyanarayanan"}
	corpus, err := wais.BuildLibrary(ctx, c, authors, 8)
	if err != nil {
		return err
	}
	fmt.Printf("catalog: %d papers by %d authors, Zipf-placed over %d archives\n\n",
		len(corpus.Refs), len(authors), len(c.Storage))

	// One archive goes down — the common case the paper designs for.
	c.Net.Isolate(c.Storage[1])
	fmt.Printf("archive %s is unreachable\n\n", c.Storage[1])

	// The strict query (grow-only pessimistic): all papers or a failure.
	strict, err := core.NewSet(c.Client, corpus.Dir, corpus.Coll, core.Options{
		Semantics: core.GrowOnly,
	})
	if err != nil {
		return err
	}
	got, err := strict.Collect(ctx)
	if errors.Is(err, core.ErrFailure) {
		fmt.Printf("strict query:   FAILED after %d papers (an archive is down)\n", len(got))
	} else if err != nil {
		return err
	}

	// The weak query (dynamic set): every accessible paper, fast.
	elapsed := sim.TimeScale(0.01).Stopwatch()
	ds, err := core.OpenDyn(ctx, c.Client, corpus.Dir, corpus.Coll, core.DynOptions{Width: 8})
	if err != nil {
		return err
	}
	defer func() { _ = ds.Close(ctx) }()
	byWing := 0
	total := 0
	for ds.Next(ctx) {
		total++
		if ds.Element().Attrs["author"] == "wing" {
			byWing++
		}
	}
	fmt.Printf("weak query:     %d papers in %v virtual (%d unreachable skipped)\n",
		total, elapsed().Round(time.Millisecond), len(ds.Skipped()))
	fmt.Printf("papers by wing: %d\n\n", byWing)

	// Stale replicas: the catalog is lazily replicated to a nearby mirror;
	// reads against the mirror can miss the newest paper for a while —
	// "one node may have more up-to-date information than another; cached
	// data may be stale" (§3).
	c.Net.Heal()
	mirror := c.Storage[0]
	if err := c.Servers[cluster.DirNode].ReplicateCollection(corpus.Coll, []netsim.NodeID{mirror}); err != nil {
		return err
	}
	time.Sleep(10 * time.Millisecond) // let the initial push land

	c.Net.Isolate(mirror) // the mirror misses the next update
	newPaper := repo.Object{
		ID:    "lis-new-wing-paper",
		Data:  []byte("Specifying Weak Sets"),
		Attrs: map[string]string{"author": "wing", "year": "1995"},
	}
	ref, err := c.Client.Put(ctx, c.Storage[2], newPaper)
	if err != nil {
		return err
	}
	if err := c.Client.Add(ctx, corpus.Dir, corpus.Coll, ref); err != nil {
		return err
	}
	c.Net.Rejoin(mirror)

	primary, _, err := c.Client.List(ctx, corpus.Dir, corpus.Coll)
	if err != nil {
		return err
	}
	mirrored, _, err := c.Client.List(ctx, mirror, corpus.Coll)
	if err != nil {
		return err
	}
	fmt.Printf("after adding a new paper: primary lists %d, stale mirror lists %d\n",
		len(primary), len(mirrored))
	fmt.Println("two people running the same query at the same time may obtain")
	fmt.Println("different sets of elements — as §1 of the paper says they may.")
	return nil
}
