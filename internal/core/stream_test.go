package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"weaksets/internal/netsim"
	"weaksets/internal/repo"
	"weaksets/internal/rpc"
	"weaksets/internal/spec"
)

// TestStreamedListingMatchesMonolithic holds the streamed scatter-gather
// opening listing to the test world's ground truth (the refs the world
// added, i.e. what one monolithic listing of the quiescent collection
// holds): for every snapshot-governed semantics the run must yield
// exactly those members, each once, with its own data.
func TestStreamedListingMatchesMonolithic(t *testing.T) {
	w := newTestWorld(t, 60)
	want := make([]string, len(w.refs))
	for i, ref := range w.refs {
		want[i] = string(ref.ID)
	}
	sort.Strings(want)
	for _, sem := range []Semantics{Immutable, ImmutablePerRun, Snapshot} {
		t.Run(sem.String(), func(t *testing.T) {
			streamed, err := w.set(t, Options{Semantics: sem}).Collect(context.Background())
			if err != nil {
				t.Fatalf("streamed collect: %v", err)
			}
			got := elementIDs(streamed)
			if len(got) != len(want) {
				t.Fatalf("streamed yielded %d elements, world holds %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("element %d: streamed %s != world %s", i, got[i], want[i])
				}
			}
			for _, e := range streamed {
				var i int
				if _, err := fmt.Sscanf(string(e.Ref.ID), "e%03d", &i); err != nil {
					t.Fatalf("element id %q: %v", e.Ref.ID, err)
				}
				if string(e.Data) != fmt.Sprintf("data-%d", i) || e.Ref.Node != w.c.StorageFor(i) {
					t.Fatalf("element %s came back as %q from %s", e.Ref.ID, e.Data, e.Ref.Node)
				}
			}
		})
	}
}

// TestStreamedListingWithRecorder runs the streamed listing with a
// history attached: every invocation the run table decides must satisfy
// the executable specification.
func TestStreamedListingWithRecorder(t *testing.T) {
	w := newTestWorld(t, 40)
	for _, sem := range []Semantics{Immutable, Snapshot} {
		t.Run(sem.String(), func(t *testing.T) {
			run, err := collectRecorded(context.Background(), w.set(t, Options{Semantics: sem}))
			if err != nil {
				t.Fatal(err)
			}
			if got := len(run.Yielded(len(run.Invocations))); got != 40 {
				t.Fatalf("yielded %d, want 40", got)
			}
			if err := spec.CheckRun(sem.Figure(), run); err != nil {
				t.Fatalf("conformance: %v", err)
			}
		})
	}
}

// TestSnapshotRunDecidesWhileItsStreamFolds checks a snapshot-governed
// run (Fig. 3) that yields over the part of its opening listing that has
// arrived: the stream's second frame, behind a first that fills the
// run's prefetch window, is held back until the run has yielded the
// first's members, so those decisions are made while the stream is still
// folding, and the run's history holds them to the whole s_first the
// stream makes.
func TestSnapshotRunDecidesWhileItsStreamFolds(t *testing.T) {
	w := newTestWorld(t, 6)
	ctx := context.Background()
	dir, open := gatedDir(t, w, w.refs[:4], w.refs[4:])
	// One id per batch and one batch in flight: a window of 4 ids.
	s, err := NewSet(w.c.Client, dir, "set", Options{Semantics: Immutable, Fetch: FetchOptions{Batch: 1, Inflight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	it, err := s.Elements(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close(ctx)
	var hist []invocation
	it.hist = &hist
	for k := 0; k < 4; k++ {
		if !it.Next(ctx) {
			t.Fatalf("yield %d: %v", k, it.Err())
		}
		if !it.ingestActive() {
			t.Fatalf("the stream folded whole by yield %d", k)
		}
	}
	close(open)
	yielded := 4
	for it.Next(ctx) {
		yielded++
	}
	if it.Err() != nil || yielded != 6 {
		t.Fatalf("yielded %d, err %v; want 6", yielded, it.Err())
	}
	run := historyRun(Immutable, hist)
	if got := len(run.First().Members); got != 6 {
		t.Fatalf("s_first holds %d members, want 6", got)
	}
	if err := spec.CheckRun(Immutable.Figure(), run); err != nil {
		t.Fatalf("conformance: %v", err)
	}
}

// TestOpeningWaitsForAWindowOrTheStream: Elements returns once the
// cursor holds a prefetch window or the stream has completed, so a
// listing smaller than a window is planned whole — one GetBatch per node
// — and never over the prefix its first frame makes, whose short chunks
// the next plan would send to the same nodes again.
func TestOpeningWaitsForAWindowOrTheStream(t *testing.T) {
	w := newTestWorld(t, 8)
	ctx := context.Background()
	dir, open := gatedDir(t, w, w.refs[:2], w.refs[2:])
	s, err := NewSet(w.c.Client, dir, "set", Options{Semantics: Immutable})
	if err != nil {
		t.Fatal(err)
	}
	w.c.Bus.ResetStats()
	opened := make(chan *Iterator, 1)
	go func() {
		it, err := s.Elements(ctx)
		if err != nil {
			t.Error(err)
		}
		opened <- it
	}()
	select {
	case <-opened:
		t.Fatal("Elements returned over a first frame of 2 members, short of a window, with the stream still open")
	case <-time.After(20 * time.Millisecond):
	}
	close(open)
	it := <-opened
	if it == nil {
		return
	}
	defer it.Close(ctx)
	yielded := 0
	for it.Next(ctx) {
		yielded++
	}
	if it.Err() != nil || yielded != 8 {
		t.Fatalf("yielded %d, err %v; want 8", yielded, it.Err())
	}
	if got, want := w.c.Bus.MethodCalls(repo.MethodGetBatch), int64(len(w.c.Storage)); got != want {
		t.Fatalf("%d GetBatch calls, want one per node: %d", got, want)
	}
}

// gatedDir registers a scripted directory node whose listing stream
// serves first as partition 0 of 2 at once and rest as partition 1 once
// open is closed.
func gatedDir(t *testing.T, w *testWorld, first, rest []repo.Ref) (netsim.NodeID, chan struct{}) {
	t.Helper()
	dir := netsim.NodeID("scripted-gated")
	w.c.Net.AddNode(dir)
	open := make(chan struct{})
	srv := rpc.NewServer(dir)
	srv.Handle(repo.MethodListParts, func(context.Context, netsim.NodeID, any) (any, error) {
		return &gatedStream{frameStream: frameStream{frames: []repo.PartListing{
			{Part: 0, Partitions: 2, Version: 3, Members: first},
			{Part: 1, Partitions: 2, Version: 3, Members: rest},
		}}, open: open}, nil
	})
	if err := w.c.Bus.Register(srv); err != nil {
		t.Fatal(err)
	}
	return dir, open
}

// gatedStream serves its first frame at once and the rest once open is
// closed.
type gatedStream struct {
	frameStream
	open chan struct{}
	sent bool
}

func (gs *gatedStream) Next() (any, bool) {
	if gs.sent {
		<-gs.open
	}
	gs.sent = true
	return gs.frameStream.Next()
}

// TestFoldCountsPartitionSkew unit-tests the ingest fold: Skewed frames
// feed the weakness counter, members join the cursor partition-major —
// the later frame, for partition 0, ahead of the earlier one, each
// ascending by id, one that arrives unsorted included — and the sealed
// snapshot version is the max partition version.
func TestFoldCountsPartitionSkew(t *testing.T) {
	it := &Iterator{}
	for _, pl := range []repo.PartListing{
		{Part: 1, Partitions: 2, Version: 7, Members: []repo.Ref{{ID: "b", Node: "n1"}, {ID: "d", Node: "n2"}}},
		{Part: 0, Partitions: 2, Version: 9, Skewed: true, Members: []repo.Ref{{ID: "e", Node: "n1"}, {ID: "c", Node: "n1"}, {ID: "a", Node: "n1"}}},
	} {
		if err := it.fold(pl); err != nil {
			t.Fatal(err)
		}
	}
	if it.wk.PartitionSkew != 1 {
		t.Fatalf("PartitionSkew = %d, want 1", it.wk.PartitionSkew)
	}
	if it.maxPartVer != 9 {
		t.Fatalf("maxPartVer = %d, want 9", it.maxPartVer)
	}
	want := []repo.ObjectID{"a", "c", "e", "b", "d"}
	if got := cursorIDs(it); !slices.Equal(got, want) {
		t.Fatalf("cursor = %v, want %v", got, want)
	}
	if it.tab.members != 5 || !it.tab.nodes["n1"] || !it.tab.nodes["n2"] {
		t.Fatalf("members=%d nodes=%v", it.tab.members, it.tab.nodes)
	}
}

// frameStream replays scripted listing frames as a streamed response.
type frameStream struct{ frames []repo.PartListing }

func (fs *frameStream) Next() (any, bool) {
	if len(fs.frames) == 0 {
		return nil, false
	}
	pl := fs.frames[0]
	fs.frames = fs.frames[1:]
	return pl, true
}

func (fs *frameStream) Err() error { return nil }

// TestFoldValidatesFrames feeds a run opening listings no honest directory
// would send, from a scripted directory node on the in-process bus: the
// frames arrive from outside the program, and the fold no longer looks
// each id up, so it must hold them to the stream's shape itself. A
// partition served twice is folded once, an unsorted one is yielded in
// order, and an index the layout does not have, or a layout too large to
// size the run table by, fails the run — no duplicate yield, no panic.
func TestFoldValidatesFrames(t *testing.T) {
	w := newTestWorld(t, 6)
	ctx := context.Background()
	low, high := w.refs[:3], w.refs[3:]
	unsorted := []repo.Ref{w.refs[2], w.refs[0], w.refs[1], w.refs[0]}
	for _, tc := range []struct {
		name   string
		frames []repo.PartListing
		fails  bool
	}{
		{name: "partition served twice", frames: []repo.PartListing{
			{Part: 0, Partitions: 2, Version: 3, Members: low},
			{Part: 1, Partitions: 2, Version: 3, Members: high},
			{Part: 0, Partitions: 2, Version: 3, Members: low},
		}},
		{name: "members out of order", frames: []repo.PartListing{
			{Part: 1, Partitions: 2, Version: 3, Members: high},
			{Part: 0, Partitions: 2, Version: 3, Members: unsorted},
		}},
		{name: "partition index past the layout", fails: true, frames: []repo.PartListing{
			{Part: 0, Partitions: 2, Version: 3, Members: low},
			{Part: 2, Partitions: 2, Version: 3, Members: high},
		}},
		{name: "negative partition index", fails: true, frames: []repo.PartListing{
			{Part: -1, Partitions: 2, Version: 3, Members: low},
		}},
		{name: "no partitions", fails: true, frames: []repo.PartListing{
			{Part: 0, Partitions: 0, Version: 3, Members: low},
		}},
		{name: "a layout too large to hold", fails: true, frames: []repo.PartListing{
			{Part: 0, Partitions: 1 << 40, Version: 3, Members: low},
		}},
		{name: "layout changes mid-stream", fails: true, frames: []repo.PartListing{
			{Part: 0, Partitions: 2, Version: 3, Members: low},
			{Part: 1, Partitions: 1 << 40, Version: 3, Members: high},
		}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			dir := netsim.NodeID("scripted-" + tc.name)
			w.c.Net.AddNode(dir)
			srv := rpc.NewServer(dir)
			srv.Handle(repo.MethodListParts, func(context.Context, netsim.NodeID, any) (any, error) {
				return &frameStream{frames: slices.Clone(tc.frames)}, nil
			})
			if err := w.c.Bus.Register(srv); err != nil {
				t.Fatal(err)
			}
			// One id per batch, one batch at a time: batches land in the
			// order they were cut, so the run yields in its cursor's order.
			s, err := NewSet(w.c.Client, dir, "set", Options{Semantics: Immutable, Fetch: FetchOptions{Batch: 1, Inflight: 1}})
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Collect(ctx)
			if tc.fails {
				if !errors.Is(err, ErrFailure) {
					t.Fatalf("yielded %v, err %v; want ErrFailure", elementIDs(got), err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			ids := make([]string, len(got)) // in yield order: elementIDs would sort
			for i, e := range got {
				ids[i] = string(e.Ref.ID)
			}
			if want := []string{"e000", "e001", "e002", "e003", "e004", "e005"}; !slices.Equal(ids, want) {
				t.Fatalf("yielded %v, want %v, each once and in order", ids, want)
			}
			if !slices.Equal(unsorted, []repo.Ref{w.refs[2], w.refs[0], w.refs[1], w.refs[0]}) {
				t.Fatal("the frame's members were sorted in place: on this bus they are the sender's")
			}
		})
	}
}
