// Webfaces: the paper's opening scenario — "suppose you are browsing the
// World Wide Web and want to display the .face files of all people listed
// on Carnegie Mellon's home page" (§1). The faces live on many servers at
// very different distances, and one server is down. A dynamic set streams
// the faces to the renderer as they arrive, closest first, at every
// prefetch width — next to the sequential fetch a naive browser would do.
//
// Run with:
//
//	go run ./examples/webfaces
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"weaksets/internal/cluster"
	"weaksets/internal/core"
	"weaksets/internal/metrics"
	"weaksets/internal/sim"
	"weaksets/internal/wais"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const scale = sim.TimeScale(0.01)
	c, err := cluster.New(cluster.Config{
		StorageNodes: 8,
		Seed:         31,
		Scale:        scale,
		Latency:      sim.Fixed(10 * time.Millisecond),
	})
	if err != nil {
		return err
	}
	defer c.Close()
	ctx := context.Background()

	// Servers sit 5..40ms away, one-way.
	for i, node := range c.Storage {
		c.Net.SetLinkLatency(cluster.HomeNode, node, sim.Fixed(time.Duration(i+1)*5*time.Millisecond))
	}
	corpus, err := wais.BuildFaces(ctx, c, 40)
	if err != nil {
		return err
	}
	// One department's server is down today.
	c.Net.Isolate(c.Storage[7])
	fmt.Printf("home page lists %d people; server %s is down\n\n", len(corpus.Refs), c.Storage[7])

	for _, width := range []int{1, 4, 16} {
		elapsed := scale.Stopwatch()
		ds, err := core.OpenDyn(ctx, c.Client, corpus.Dir, corpus.Coll, core.DynOptions{Width: width})
		if err != nil {
			return err
		}
		var first, tenth time.Duration
		n := 0
		for ds.Next(ctx) {
			n++
			switch n {
			case 1:
				first = elapsed()
			case 10:
				tenth = elapsed()
			}
		}
		total := elapsed()
		skipped := len(ds.Skipped())
		_ = ds.Close(ctx)
		fmt.Printf("width %2d: first face %7s, tenth %7s, all %d rendered in %7s (%d unreachable)\n",
			width, metrics.FmtDur(first), metrics.FmtDur(tenth), n, metrics.FmtDur(total), skipped)
	}

	fmt.Println("\nthe page \"fills in\" as faces arrive — the paper's partial-information")
	fmt.Println("property (§1.1) — and the width-16 page completes an order of magnitude")
	fmt.Println("sooner than a sequential fetch, never blocking on the dead server.")
	return nil
}
