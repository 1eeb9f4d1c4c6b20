package weaksets

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// TestFacadeEndToEnd exercises the whole public surface through the root
// package, the way an application would.
func TestFacadeEndToEnd(t *testing.T) {
	c, err := NewCluster(ClusterConfig{StorageNodes: 3, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	if err := c.Client.CreateCollection(ctx, DirNode, "menus"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		cuisine := "thai"
		if i%2 == 0 {
			cuisine = "chinese"
		}
		obj := Object{
			ID:    ObjectID(fmt.Sprintf("menu-%d", i)),
			Data:  []byte("menu body"),
			Attrs: map[string]string{"cuisine": cuisine},
		}
		ref, err := c.Client.Put(ctx, c.StorageFor(i), obj)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Client.Add(ctx, DirNode, "menus", ref); err != nil {
			t.Fatal(err)
		}
	}

	set, err := NewSet(c.Client, DirNode, "menus", Options{Semantics: Optimistic})
	if err != nil {
		t.Fatal(err)
	}
	elems, err := set.Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(elems) != 6 {
		t.Fatalf("collected %d", len(elems))
	}

	ds, err := OpenDyn(ctx, c.Client, DirNode, "menus", DynOptions{Width: 3})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for ds.Next(ctx) {
		n++
	}
	_ = ds.Close(ctx)
	if n != 6 {
		t.Fatalf("dynamic yielded %d", n)
	}

	q, err := NewQuery(c.Client, DirNode, "menus", `cuisine == "chinese"`)
	if err != nil {
		t.Fatal(err)
	}
	matches, err := q.Count(ctx, QueryOptions{Semantics: Snapshot})
	if err != nil {
		t.Fatal(err)
	}
	if matches != 3 {
		t.Fatalf("matches = %d, want 3", matches)
	}

	// Failure surface.
	c.Net.Isolate(c.Storage[0])
	pess, err := NewSet(c.Client, DirNode, "menus", Options{Semantics: GrowOnly})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pess.Collect(ctx); !errors.Is(err, ErrFailure) {
		t.Fatalf("err = %v, want ErrFailure", err)
	}

	if len(AllSemantics()) != 6 {
		t.Fatal("AllSemantics wrong")
	}
}
