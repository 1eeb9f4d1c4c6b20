package tcprpc

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"weaksets/internal/repo"
)

// seedCollection puts n objects on the remote and adds them to
// collection c, returning the member ids.
func seedCollection(t *testing.T, client *Client, c string, n int) map[repo.ObjectID]bool {
	t.Helper()
	ctx := context.Background()
	if _, err := client.Call(ctx, repo.MethodCreate, repo.CreateReq{Name: c}); err != nil {
		t.Fatal(err)
	}
	ids := make(map[repo.ObjectID]bool, n)
	for i := 0; i < n; i++ {
		id := repo.ObjectID(fmt.Sprintf("m%03d", i))
		if _, err := client.Call(ctx, repo.MethodPut, repo.PutReq{Obj: repo.Object{ID: id, Data: []byte("x")}}); err != nil {
			t.Fatal(err)
		}
		if _, err := client.Call(ctx, repo.MethodAdd, repo.AddReq{Name: c, Ref: repo.Ref{ID: id, Node: "archive"}}); err != nil {
			t.Fatal(err)
		}
		ids[id] = true
	}
	return ids
}

// TestListPartsStreamsOverTCP drives the streamed partitioned listing
// over a real socket: each partition arrives as its own frame, the
// reassembled membership is exact, and the stream ends clean.
func TestListPartsStreamsOverTCP(t *testing.T) {
	remote := startRemote(t, "archive")
	client := Dial(remote.srv.Addr(), "tester")
	defer client.Close()
	want := seedCollection(t, client, "c", 60)

	st, err := client.CallStream(context.Background(), repo.MethodListParts,
		repo.ListPartsReq{Name: "c", Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	got := make(map[repo.ObjectID]bool)
	var total int
	for {
		chunk, ok := st.Next()
		if !ok {
			break
		}
		pl, ok := chunk.(repo.PartListing)
		if !ok {
			t.Fatalf("chunk type %T", chunk)
		}
		frames++
		total = pl.Partitions
		for _, m := range pl.Members {
			if got[m.ID] {
				t.Fatalf("member %s delivered twice", m.ID)
			}
			got[m.ID] = true
		}
	}
	if err := st.Err(); err != nil {
		t.Fatalf("stream err: %v", err)
	}
	if total <= 1 {
		t.Fatalf("partitions = %d, want a partitioned collection", total)
	}
	if frames != total {
		t.Fatalf("got %d frames, want one per partition (%d)", frames, total)
	}
	if len(got) != len(want) {
		t.Fatalf("reassembled %d members, want %d", len(got), len(want))
	}
	for id := range want {
		if !got[id] {
			t.Fatalf("member %s missing from streamed listing", id)
		}
	}
}

// TestStreamInterleavesWithCalls opens a stream and, before consuming
// it, runs ordinary calls on the same connection: stream frames and
// unary responses multiplex over one socket without blocking each other
// (the client buffers stream frames unboundedly precisely so the read
// loop never waits on a slow stream consumer).
func TestStreamInterleavesWithCalls(t *testing.T) {
	remote := startRemote(t, "archive")
	client := Dial(remote.srv.Addr(), "tester")
	defer client.Close()
	seedCollection(t, client, "c", 40)
	ctx := context.Background()

	st, err := client.CallStream(ctx, repo.MethodListParts, repo.ListPartsReq{Name: "c", Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	// Unary traffic while every stream frame sits buffered client-side.
	for i := 0; i < 5; i++ {
		out, err := client.Call(ctx, repo.MethodGet, repo.GetReq{ID: "m000"})
		if err != nil {
			t.Fatalf("interleaved call %d: %v", i, err)
		}
		if _, ok := out.(repo.Object); !ok {
			t.Fatalf("interleaved call returned %T", out)
		}
	}
	n := 0
	for {
		if _, ok := st.Next(); !ok {
			break
		}
		n++
	}
	if err := st.Err(); err != nil || n == 0 {
		t.Fatalf("stream after interleaving: %d frames, err %v", n, err)
	}
}

// TestStreamCancelMidway abandons a stream by context cancellation after
// one frame: Next must end with the context's error, and the connection
// must remain healthy for subsequent calls (the call slot is released).
func TestStreamCancelMidway(t *testing.T) {
	remote := startRemote(t, "archive")
	client := Dial(remote.srv.Addr(), "tester")
	defer client.Close()
	seedCollection(t, client, "c", 40)

	ctx, cancel := context.WithCancel(context.Background())
	st, err := client.CallStream(ctx, repo.MethodListParts, repo.ListPartsReq{Name: "c", Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Next(); !ok {
		t.Fatalf("first frame: stream ended early (%v)", st.Err())
	}
	cancel()
	// The stream must terminate: remaining buffered frames may still be
	// delivered, but the end must come promptly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := st.Next(); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cancelled stream kept producing")
		}
	}
	// The connection still serves calls afterwards.
	for i := 0; i < 3; i++ {
		if _, err := client.Call(context.Background(), repo.MethodGet, repo.GetReq{ID: "m000"}); err != nil {
			t.Fatalf("call after cancelled stream: %v", err)
		}
	}
}

// TestUnstreamedListPartsOverTCP sends the listing request without the
// Stream flag through a plain Call: the handler must answer the same
// listing materialized as one ListPartsResp.
func TestUnstreamedListPartsOverTCP(t *testing.T) {
	remote := startRemote(t, "archive")
	client := Dial(remote.srv.Addr(), "tester")
	defer client.Close()
	want := seedCollection(t, client, "c", 30)

	out, err := client.Call(context.Background(), repo.MethodListParts, repo.ListPartsReq{Name: "c"})
	if err != nil {
		t.Fatal(err)
	}
	resp, ok := out.(repo.ListPartsResp)
	if !ok {
		t.Fatalf("materialized response type %T", out)
	}
	got := 0
	for _, pl := range resp.Parts {
		got += len(pl.Members)
	}
	if got != len(want) {
		t.Fatalf("materialized listing has %d members, want %d", got, len(want))
	}
}

// TestStreamServerError surfaces a server-side stream failure through
// Err: listing a collection that does not exist fails the stream with
// the repo sentinel, not a silent empty listing.
func TestStreamServerError(t *testing.T) {
	remote := startRemote(t, "archive")
	client := Dial(remote.srv.Addr(), "tester")
	defer client.Close()

	st, err := client.CallStream(context.Background(), repo.MethodListParts,
		repo.ListPartsReq{Name: "missing", Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := st.Next(); !ok {
			break
		}
	}
	if err := st.Err(); !errors.Is(err, repo.ErrNoCollection) {
		t.Fatalf("stream err = %v, want ErrNoCollection", err)
	}
}
