package fsim

import (
	"context"
	"fmt"
	"testing"
	"time"

	"weaksets/internal/cluster"
	"weaksets/internal/core"
	"weaksets/internal/netsim"
	"weaksets/internal/repo"
)

type fsWorld struct {
	c  *cluster.Cluster
	fs *FS
}

func newFSWorld(t *testing.T) *fsWorld {
	t.Helper()
	c, err := cluster.New(cluster.Config{StorageNodes: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return &fsWorld{c: c, fs: New(c.Client)}
}

func (w *fsWorld) mustMkdirRoot(t *testing.T) {
	t.Helper()
	if err := w.fs.Mkdir(context.Background(), "", cluster.DirNode, "/"); err != nil {
		t.Fatal(err)
	}
}

func (w *fsWorld) populate(t *testing.T, n int) {
	t.Helper()
	w.mustMkdirRoot(t)
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("/f%02d", i)
		if _, err := w.fs.WriteFile(context.Background(), cluster.DirNode, w.c.StorageFor(i), p, []byte("content")); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMkdirAndWrite(t *testing.T) {
	w := newFSWorld(t)
	w.populate(t, 3)
	entries, err := w.fs.LsStrict(context.Background(), cluster.DirNode, "/")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("entries = %d", len(entries))
	}
	for i, e := range entries {
		if e.Type != TypeFile {
			t.Fatalf("entry %d type = %s", i, e.Type)
		}
		if string(e.Data) != "content" {
			t.Fatalf("entry %d data = %q", i, e.Data)
		}
		if e.Name != fmt.Sprintf("f%02d", i) {
			t.Fatalf("entry %d name = %q (order)", i, e.Name)
		}
	}
}

func TestSubdirectories(t *testing.T) {
	w := newFSWorld(t)
	w.mustMkdirRoot(t)
	ctx := context.Background()
	subNode := w.c.Storage[1]
	if err := w.fs.Mkdir(ctx, cluster.DirNode, subNode, "/papers"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.fs.WriteFile(ctx, subNode, w.c.Storage[2], "/papers/weak-sets.ps", []byte("ps")); err != nil {
		t.Fatal(err)
	}
	root, err := w.fs.LsStrict(ctx, cluster.DirNode, "/")
	if err != nil {
		t.Fatal(err)
	}
	if len(root) != 1 || root[0].Type != TypeDir || root[0].Name != "papers" {
		t.Fatalf("root = %+v", root)
	}
	if root[0].DirNode != subNode {
		t.Fatalf("dir node = %s, want %s", root[0].DirNode, subNode)
	}
	sub, err := w.fs.LsStrict(ctx, netsim.NodeID(root[0].DirNode), "/papers")
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 1 || sub[0].Name != "weak-sets.ps" {
		t.Fatalf("sub = %+v", sub)
	}
}

func TestLsStrictFailsOnPartition(t *testing.T) {
	w := newFSWorld(t)
	w.populate(t, 8)
	w.c.Net.Isolate(w.c.Storage[2])
	_, err := w.fs.LsStrict(context.Background(), cluster.DirNode, "/")
	if err == nil {
		t.Fatal("strict ls succeeded across partition")
	}
}

func TestLsDynSkipsPartitioned(t *testing.T) {
	w := newFSWorld(t)
	w.populate(t, 8)
	w.c.Net.Isolate(w.c.Storage[2])
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ds, err := w.fs.LsDyn(ctx, cluster.DirNode, "/", core.DynOptions{Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close(ctx)
	var names []string
	for ds.Next(ctx) {
		e := EntryFromElement(ds.Element())
		if e.Type != TypeFile {
			t.Fatalf("entry = %+v", e)
		}
		names = append(names, e.Name)
	}
	if len(names) != 6 {
		t.Fatalf("dynamic ls yielded %d, want 6 (2 unreachable)", len(names))
	}
	if len(ds.Skipped()) != 2 {
		t.Fatalf("skipped = %v", ds.Skipped())
	}
}

func TestRemove(t *testing.T) {
	w := newFSWorld(t)
	w.mustMkdirRoot(t)
	ctx := context.Background()
	ref, err := w.fs.WriteFile(ctx, cluster.DirNode, w.c.Storage[0], "/x", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.fs.Remove(ctx, cluster.DirNode, "/x", ref); err != nil {
		t.Fatal(err)
	}
	entries, err := w.fs.LsStrict(ctx, cluster.DirNode, "/")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("entries after remove = %v", entries)
	}
}

func TestDirectoryAsWeakSet(t *testing.T) {
	w := newFSWorld(t)
	w.populate(t, 5)
	s, err := w.fs.Set(cluster.DirNode, "/", core.Options{Semantics: core.Optimistic})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("weak-set ls yielded %d, want 5", len(got))
	}
}

func TestMkdirWithoutParentFails(t *testing.T) {
	w := newFSWorld(t)
	// No root created: linking /a into / must fail.
	err := w.fs.Mkdir(context.Background(), cluster.DirNode, cluster.DirNode, "/a")
	if err == nil {
		t.Fatal("mkdir without parent succeeded")
	}
}

func TestNamesMetadataOnly(t *testing.T) {
	w := newFSWorld(t)
	w.populate(t, 5)
	// Cut off every storage node: names must still resolve from the
	// directory alone.
	for _, node := range w.c.Storage {
		w.c.Net.Isolate(node)
	}
	names, err := w.fs.Names(context.Background(), cluster.DirNode, "/")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 5 || names[0] != "f00" || names[4] != "f04" {
		t.Fatalf("names = %v", names)
	}
}

func TestNamesUnreachableDirectory(t *testing.T) {
	w := newFSWorld(t)
	w.populate(t, 2)
	w.c.Net.Isolate(cluster.DirNode)
	if _, err := w.fs.Names(context.Background(), cluster.DirNode, "/"); err == nil {
		t.Fatal("names across partition succeeded")
	}
}

func TestWriteFileErrors(t *testing.T) {
	w := newFSWorld(t)
	w.mustMkdirRoot(t)
	ctx := context.Background()
	// Unreachable storage node.
	w.c.Net.Isolate(w.c.Storage[0])
	if _, err := w.fs.WriteFile(ctx, cluster.DirNode, w.c.Storage[0], "/x", []byte("d")); err == nil {
		t.Fatal("write to unreachable node succeeded")
	}
	w.c.Net.Rejoin(w.c.Storage[0])
	// Missing parent directory.
	if _, err := w.fs.WriteFile(ctx, cluster.DirNode, w.c.Storage[0], "/nodir/x", []byte("d")); err == nil {
		t.Fatal("write into missing directory succeeded")
	}
}

func TestRemoveErrors(t *testing.T) {
	w := newFSWorld(t)
	w.mustMkdirRoot(t)
	ctx := context.Background()
	ghost := repo.Ref{ID: "fsobj:/ghost", Node: w.c.Storage[0]}
	if err := w.fs.Remove(ctx, cluster.DirNode, "/ghost", ghost); err == nil {
		t.Fatal("removing a non-member succeeded")
	}
}

func TestLsDynUnreachableDirectory(t *testing.T) {
	w := newFSWorld(t)
	w.populate(t, 2)
	w.c.Net.Isolate(cluster.DirNode)
	if _, err := w.fs.LsDyn(context.Background(), cluster.DirNode, "/", core.DynOptions{}); err == nil {
		t.Fatal("dynamic ls across partition succeeded")
	}
}
