package core_test

import (
	"context"
	"fmt"
	"log"

	"weaksets/internal/cluster"
	"weaksets/internal/core"
	"weaksets/internal/repo"
	"weaksets/internal/sim"
	"weaksets/internal/spec"
)

// ExampleStep shows the pure semantic kernel deciding one invocation: the
// set holds a and b, b's node is unreachable, nothing is yielded yet.
func ExampleStep() {
	pre := spec.NewState(
		[]spec.ElemID{"a", "b"}, // members
		[]spec.ElemID{"a"},      // reachable
	)
	yielded := map[spec.ElemID]bool{}

	pessimistic := core.Step(core.GrowOnly, spec.State{}, pre, yielded)
	optimistic := core.Step(core.Optimistic, spec.State{}, pre, yielded)
	fmt.Println("grow-only decides:", pessimistic.Kind, pessimistic.Elem)
	fmt.Println("optimistic decides:", optimistic.Kind, optimistic.Elem)

	// After yielding a, only the unreachable b remains.
	yielded["a"] = true
	fmt.Println("grow-only decides:", core.Step(core.GrowOnly, spec.State{}, pre, yielded).Kind)
	fmt.Println("optimistic decides:", core.Step(core.Optimistic, spec.State{}, pre, yielded).Kind)

	// Output:
	// grow-only decides: yield a
	// optimistic decides: yield a
	// grow-only decides: fail
	// optimistic decides: block
}

// ExampleNewSet iterates a small distributed collection under the
// optimistic (Fig. 6) semantics.
func ExampleNewSet() {
	c, err := cluster.New(cluster.Config{StorageNodes: 2, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	if err := c.Client.CreateCollection(ctx, cluster.DirNode, "demo"); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		obj := repo.Object{ID: repo.ObjectID(fmt.Sprintf("elem-%d", i)), Data: []byte("v")}
		ref, err := c.Client.Put(ctx, c.StorageFor(i), obj)
		if err != nil {
			log.Fatal(err)
		}
		if err := c.Client.Add(ctx, cluster.DirNode, "demo", ref); err != nil {
			log.Fatal(err)
		}
	}

	set, err := core.NewSet(c.Client, cluster.DirNode, "demo", core.Options{
		Semantics: core.Optimistic,
	})
	if err != nil {
		log.Fatal(err)
	}
	it, err := set.Elements(ctx)
	if err != nil {
		log.Fatal(err)
	}
	defer it.Close(ctx)
	for it.Next(ctx) {
		fmt.Println(it.Element().Ref.ID)
	}
	fmt.Println("err:", it.Err())

	// Elements arrive in completion order.

	// Unordered output:
	// elem-0
	// elem-1
	// elem-2
	// err: <nil>
}

// ExampleOpenDyn drains a dynamic set — elements arrive in completion
// order, so this example counts rather than lists them.
func ExampleOpenDyn() {
	c, err := cluster.New(cluster.Config{StorageNodes: 2, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	if err := c.Client.CreateCollection(ctx, cluster.DirNode, "demo"); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		obj := repo.Object{ID: repo.ObjectID(fmt.Sprintf("elem-%d", i)), Data: []byte("v")}
		ref, err := c.Client.Put(ctx, c.StorageFor(i), obj)
		if err != nil {
			log.Fatal(err)
		}
		if err := c.Client.Add(ctx, cluster.DirNode, "demo", ref); err != nil {
			log.Fatal(err)
		}
	}

	ds, err := core.OpenDyn(ctx, c.Client, cluster.DirNode, "demo", core.DynOptions{Width: 3})
	if err != nil {
		log.Fatal(err)
	}
	defer ds.Close(ctx)
	n := 0
	for ds.Next(ctx) {
		n++
	}
	fmt.Printf("fetched %d elements, %d skipped\n", n, len(ds.Skipped()))

	// Output:
	// fetched 5 elements, 0 skipped
}

// ExampleRunModel drives a kernel against a model environment and checks
// the recorded run against its specification figure.
func ExampleRunModel() {
	env := spec.NewEnv(newExampleRand(), 6, spec.ConstraintTrue)
	run, terminated := core.RunModel(core.Optimistic, env, core.ModelConfig{
		MaxSteps:        100,
		HealAfterBlocks: 2,
		FreezeAfter:     40,
	})
	fmt.Println("terminated:", terminated)
	fmt.Println("conforms to Fig6:", spec.CheckRun(spec.Fig6, run) == nil)

	// Output:
	// terminated: true
	// conforms to Fig6: true
}

// ExampleExhaustiveConformance proves the stepper every run ships — its run
// table's decision — conformant, and equal to the kernel Step's, over
// every world of three elements.
func ExampleExhaustiveConformance() {
	res, err := core.ExhaustiveConformance(core.Optimistic, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("proved over %d configurations\n", res.States)

	// Output:
	// proved over 512 configurations
}

// newExampleRand gives examples a fixed random stream.
func newExampleRand() *sim.Rand { return sim.NewRand(42) }
