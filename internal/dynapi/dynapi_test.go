package dynapi

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"weaksets/internal/cluster"
	"weaksets/internal/core"
	"weaksets/internal/fsim"
)

type apiWorld struct {
	c   *cluster.Cluster
	api *API
}

func newAPIWorld(t *testing.T) *apiWorld {
	t.Helper()
	c, err := cluster.New(cluster.Config{StorageNodes: 4, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	api := New(c.Client)
	api.Mount("/", cluster.DirNode)
	t.Cleanup(api.CloseAll)

	ctx := context.Background()
	fs := api.FS()
	if err := fs.Mkdir(ctx, "", cluster.DirNode, "/"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir(ctx, cluster.DirNode, cluster.DirNode, "/pub"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("/pub/paper%02d.ps", i)
		if i%2 == 1 {
			name = fmt.Sprintf("/pub/note%02d.txt", i)
		}
		if _, err := fs.WriteFile(ctx, cluster.DirNode, c.StorageFor(i), name, []byte("body")); err != nil {
			t.Fatal(err)
		}
	}
	return &apiWorld{c: c, api: api}
}

func drain(t *testing.T, api *API, sd SD) []fsim.Entry {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var out []fsim.Entry
	for {
		entry, ok, err := api.SetIterate(ctx, sd)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, entry)
	}
}

func TestSetOpenIterateClose(t *testing.T) {
	w := newAPIWorld(t)
	sd, err := w.api.SetOpen(context.Background(), "/pub/*.ps", core.DynOptions{Width: 3})
	if err != nil {
		t.Fatal(err)
	}
	entries := drain(t, w.api, sd)
	if len(entries) != 3 {
		t.Fatalf("matched %d, want 3 .ps files", len(entries))
	}
	for _, e := range entries {
		if e.Type != fsim.TypeFile || len(e.Data) == 0 {
			t.Fatalf("entry %+v", e)
		}
	}
	if err := w.api.SetClose(sd); err != nil {
		t.Fatal(err)
	}
	if w.api.OpenCount() != 0 {
		t.Fatalf("descriptors leaked: %d", w.api.OpenCount())
	}
}

func TestSetOpenMatchAll(t *testing.T) {
	w := newAPIWorld(t)
	sd, err := w.api.SetOpen(context.Background(), "/pub/*", core.DynOptions{Width: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = w.api.SetClose(sd) }()
	if got := drain(t, w.api, sd); len(got) != 6 {
		t.Fatalf("matched %d, want 6", len(got))
	}
}

func TestSetOpenQuestionMarkAndClass(t *testing.T) {
	w := newAPIWorld(t)
	sd, err := w.api.SetOpen(context.Background(), "/pub/note0[13].txt", core.DynOptions{Width: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = w.api.SetClose(sd) }()
	if got := drain(t, w.api, sd); len(got) != 2 {
		t.Fatalf("matched %d, want 2", len(got))
	}
}

func TestSetDigestIsMetadataOnly(t *testing.T) {
	w := newAPIWorld(t)
	ctx := context.Background()
	sd, err := w.api.SetOpen(ctx, "/pub/*.ps", core.DynOptions{Width: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = w.api.SetClose(sd) }()
	names, err := w.api.SetDigest(ctx, sd)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"paper00.ps", "paper02.ps", "paper04.ps"}
	if len(names) != len(want) {
		t.Fatalf("digest = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("digest = %v, want %v", names, want)
		}
	}
	// A digest works even when every storage node is cut off: it only
	// touches the directory.
	for _, node := range w.c.Storage {
		w.c.Net.Isolate(node)
	}
	names2, err := w.api.SetDigest(ctx, sd)
	if err != nil {
		t.Fatalf("digest under partition: %v", err)
	}
	if len(names2) != 3 {
		t.Fatalf("digest under partition = %v", names2)
	}
}

func TestSetIterateSkipsUnreachable(t *testing.T) {
	w := newAPIWorld(t)
	// Entries live round-robin on storage nodes 0..3: paper00 and paper04
	// sit on s0, paper02 on s2. Cutting s0 leaves one reachable .ps.
	w.c.Net.Isolate(w.c.Storage[0])
	sd, err := w.api.SetOpen(context.Background(), "/pub/*.ps", core.DynOptions{Width: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = w.api.SetClose(sd) }()
	entries := drain(t, w.api, sd)
	if len(entries) != 1 || entries[0].Name != "paper02.ps" {
		t.Fatalf("matched %v, want just paper02.ps", entries)
	}
	skipped, err := w.api.Skipped(sd)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 2 {
		t.Fatalf("skipped = %v, want the two s0 entries", skipped)
	}
}

func TestBadDescriptor(t *testing.T) {
	w := newAPIWorld(t)
	if _, _, err := w.api.SetIterate(context.Background(), 99); !errors.Is(err, ErrBadDescriptor) {
		t.Fatalf("err = %v", err)
	}
	if err := w.api.SetClose(99); !errors.Is(err, ErrBadDescriptor) {
		t.Fatalf("err = %v", err)
	}
	if _, err := w.api.Skipped(99); !errors.Is(err, ErrBadDescriptor) {
		t.Fatalf("err = %v", err)
	}
}

func TestBadPatterns(t *testing.T) {
	w := newAPIWorld(t)
	ctx := context.Background()
	if _, err := w.api.SetOpen(ctx, "/p*b/x", core.DynOptions{}); !errors.Is(err, ErrBadPattern) {
		t.Fatalf("glob in dir accepted: %v", err)
	}
	if _, err := w.api.SetOpen(ctx, "/pub/[", core.DynOptions{}); !errors.Is(err, ErrBadPattern) {
		t.Fatalf("malformed class accepted: %v", err)
	}
}

func TestNotMounted(t *testing.T) {
	c, err := cluster.New(cluster.Config{StorageNodes: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	api := New(c.Client)
	if _, err := api.SetOpen(context.Background(), "/pub/*", core.DynOptions{}); !errors.Is(err, ErrNotMounted) {
		t.Fatalf("err = %v", err)
	}
}

func TestMountLongestPrefixWins(t *testing.T) {
	w := newAPIWorld(t)
	ctx := context.Background()
	// Create a subtree hosted on a different node and mount it.
	sub := w.c.Storage[1]
	if err := w.api.FS().Mkdir(ctx, cluster.DirNode, sub, "/pub/deep"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.api.FS().WriteFile(ctx, sub, w.c.Storage[2], "/pub/deep/x.ps", []byte("d")); err != nil {
		t.Fatal(err)
	}
	w.api.Mount("/pub/deep", sub)

	sd, err := w.api.SetOpen(ctx, "/pub/deep/*.ps", core.DynOptions{Width: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = w.api.SetClose(sd) }()
	if got := drain(t, w.api, sd); len(got) != 1 || got[0].Name != "x.ps" {
		t.Fatalf("deep listing = %v", got)
	}
}

// settlesAt polls until the process is back at no more than baseline
// goroutines: each descriptor's run owns an opening listing stream and a
// fetch pipeline, and closing the descriptor is what stops them.
func settlesAt(t *testing.T, baseline int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the descriptors opened\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestCloseAll opens three descriptors, iterates none to its end, and
// closes them all: no descriptor and no goroutine of theirs is left.
func TestCloseAll(t *testing.T) {
	w := newAPIWorld(t)
	ctx := context.Background()
	baseline := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		if _, err := w.api.SetOpen(ctx, "/pub/*", core.DynOptions{Width: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if w.api.OpenCount() != 3 {
		t.Fatalf("open = %d", w.api.OpenCount())
	}
	w.api.CloseAll()
	if w.api.OpenCount() != 0 {
		t.Fatalf("open after CloseAll = %d", w.api.OpenCount())
	}
	settlesAt(t, baseline)
}
