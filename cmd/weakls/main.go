// Command weakls demonstrates dynamic sets in their original habitat
// (§1.1 of the paper): listing a directory of a simulated wide-area file
// system. It builds a distributed directory whose files are scattered over
// storage nodes at different distances, optionally partitions some nodes
// away, and then runs both the traditional strict ls and the dynamic-set
// ls side by side.
//
// Usage:
//
//	weakls [-files 32] [-cut 2] [-width 8] [-scale 0.01]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"weaksets/internal/cluster"
	"weaksets/internal/core"
	"weaksets/internal/dynapi"
	"weaksets/internal/fsim"
	"weaksets/internal/metrics"
	"weaksets/internal/obs"
	"weaksets/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "weakls:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("weakls", flag.ContinueOnError)
	var (
		files   = fs.Int("files", 32, "files in the directory")
		cut     = fs.Int("cut", 2, "storage nodes to partition away")
		width   = fs.Int("width", 8, "dynamic-set prefetch width")
		scale   = fs.Float64("scale", 0.01, "virtual-to-real time scale")
		pattern = fs.String("pattern", "/pub/doc00*.txt", "glob pattern for the dynamic-sets API demo (empty to skip)")
		trace   = fs.Bool("trace", false, "print the dynamic-set run's span trace and weakness report")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	c, err := cluster.New(cluster.Config{
		StorageNodes: 8,
		Seed:         7,
		Scale:        sim.TimeScale(*scale),
		Latency:      sim.Fixed(10 * time.Millisecond),
	})
	if err != nil {
		return err
	}
	defer c.Close()
	var (
		tracer   *obs.Tracer
		weakness *obs.Registry
	)
	if *trace {
		tracer = obs.NewTracer("weakls", obs.Config{})
		weakness = obs.NewRegistry()
		c.UseTracer(tracer)
	}
	for i, node := range c.Storage {
		c.Net.SetLinkLatency(cluster.HomeNode, node, sim.Fixed(time.Duration(i+1)*5*time.Millisecond))
	}

	ctx := context.Background()
	dfs := fsim.New(c.Client)
	if err := dfs.Mkdir(ctx, "", cluster.DirNode, "/"); err != nil {
		return err
	}
	if err := dfs.Mkdir(ctx, cluster.DirNode, cluster.DirNode, "/pub"); err != nil {
		return err
	}
	for i := 0; i < *files; i++ {
		p := fmt.Sprintf("/pub/doc%03d.txt", i)
		body := fmt.Sprintf("document %d, stored on %s", i, c.StorageFor(i))
		if _, err := dfs.WriteFile(ctx, cluster.DirNode, c.StorageFor(i), p, []byte(body)); err != nil {
			return err
		}
	}
	fmt.Printf("built /pub with %d files over %d storage nodes (5–40ms away)\n", *files, len(c.Storage))

	if *cut > len(c.Storage) {
		*cut = len(c.Storage)
	}
	for i := 0; i < *cut; i++ {
		c.Net.Isolate(c.Storage[len(c.Storage)-1-i])
	}
	if *cut > 0 {
		fmt.Printf("partitioned away %d storage node(s)\n\n", *cut)
	}

	ts := sim.TimeScale(*scale)

	// Traditional ls: ordered, all-or-nothing.
	fmt.Println("$ ls -l /pub            # strict: fetch everything, in order")
	elapsed := ts.Stopwatch()
	entries, err := dfs.LsStrict(ctx, cluster.DirNode, "/pub")
	if err != nil {
		fmt.Printf("  ls: error after %d entries, %s: %v\n\n",
			len(entries), metrics.FmtDur(elapsed()), err)
	} else {
		fmt.Printf("  %d entries in %s\n\n", len(entries), metrics.FmtDur(elapsed()))
	}

	// Dynamic-set ls: parallel, closest first, partial results.
	fmt.Printf("$ weakls /pub           # dynamic set: width %d, closest first\n", *width)
	elapsed = ts.Stopwatch()
	ds, err := dfs.LsDyn(ctx, cluster.DirNode, "/pub", core.DynOptions{Width: *width, Tracer: tracer, Weakness: weakness})
	if err != nil {
		return err
	}
	defer func() { _ = ds.Close(ctx) }()
	n := 0
	for ds.Next(ctx) {
		e := fsim.EntryFromElement(ds.Element())
		n++
		if n <= 5 {
			fmt.Printf("  %-14s %4d bytes  (%s after open)\n", e.Name, len(e.Data), metrics.FmtDur(elapsed()))
		} else if n == 6 {
			fmt.Println("  ...")
		}
	}
	total := elapsed()
	fmt.Printf("  %d entries in %s", n, metrics.FmtDur(total))
	if skipped := ds.Skipped(); len(skipped) > 0 {
		fmt.Printf("; %d unreachable entries skipped", len(skipped))
	}
	fmt.Println()

	if *trace {
		_ = ds.Close(ctx)
		fmt.Println()
		obs.RenderWeakness(os.Stdout, ds.Weakness())
		fmt.Println()
		obs.RenderTrace(os.Stdout, tracer.Trace(ds.TraceID()))
	}

	if *pattern != "" {
		// The Unix-flavoured dynamic-sets API (setOpen / setIterate /
		// setClose) with a glob pattern.
		fmt.Printf("\n$ setOpen(%q)       # dynamic-sets API, width %d\n", *pattern, *width)
		api := dynapi.New(c.Client)
		api.Mount("/", cluster.DirNode)
		defer api.CloseAll()
		elapsed = ts.Stopwatch()
		sd, err := api.SetOpen(ctx, *pattern, core.DynOptions{Width: *width})
		if err != nil {
			return err
		}
		matched := 0
		for {
			entry, ok, err := api.SetIterate(ctx, sd)
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			matched++
			if matched <= 5 {
				fmt.Printf("  %-14s %4d bytes  (%s after open)\n", entry.Name, len(entry.Data), metrics.FmtDur(elapsed()))
			} else if matched == 6 {
				fmt.Println("  ...")
			}
		}
		fmt.Printf("  %d matching entries in %s\n", matched, metrics.FmtDur(elapsed()))
		if err := api.SetClose(sd); err != nil {
			return err
		}
	}
	return nil
}
