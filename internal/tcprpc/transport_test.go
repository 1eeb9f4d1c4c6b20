package tcprpc

// Transport edge cases for the multiplexed client/server: out-of-order
// response dispatch, per-call deadlines and cancellation on a shared
// stream, connection drops with many calls in flight, slow-reader
// backpressure, and concurrent Calls on one client under -race.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"weaksets/internal/netsim"
	"weaksets/internal/repo"
	"weaksets/internal/rpc"
)

// echoDispatch serves "echo": it returns an Object whose ID copies the
// requested one. With a positive delay the handler sleeps first —
// standing in for a slow disk or WAN hop.
func echoDispatch(delay time.Duration) *rpc.Server {
	srv := rpc.NewServer("remote")
	srv.Handle("echo", func(_ context.Context, _ netsim.NodeID, req any) (any, error) {
		if delay > 0 {
			time.Sleep(delay)
		}
		in, ok := req.(repo.GetReq)
		if !ok {
			return nil, fmt.Errorf("echo: bad body %T", req)
		}
		return repo.Object{ID: in.ID}, nil
	})
	return srv
}

// acceptRaw accepts one connection and consumes its preamble, returning
// the server-side codec: the hand-driven peer for tests that need a
// server to misbehave in ways Server never would.
func acceptRaw(lis net.Listener) (net.Conn, *wirebinCodec, error) {
	conn, err := lis.Accept()
	if err != nil {
		return nil, nil, err
	}
	cdc := newWirebinCodec(conn, "", false, 0)
	if err := cdc.readPreamble(); err != nil {
		_ = conn.Close()
		return nil, nil, err
	}
	return conn, cdc, nil
}

// TestOutOfOrderResponses runs a raw protocol server that reads two
// requests and answers them in reverse order: each caller must still
// receive its own response via the seq-keyed pending map.
func TestOutOfOrderResponses(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		conn, cdc, err := acceptRaw(lis)
		if err != nil {
			return
		}
		defer conn.Close()
		var reqs [2]request
		for i := range reqs {
			if _, err := cdc.readRequest(&reqs[i]); err != nil {
				return
			}
		}
		for i := len(reqs) - 1; i >= 0; i-- { // deliberately reversed
			in := reqs[i].Body.(repo.GetReq)
			resp := response{Seq: reqs[i].Seq, Body: repo.Object{ID: in.ID}}
			if _, err := cdc.writeResponse(&resp); err != nil {
				return
			}
		}
	}()

	client := Dial(lis.Addr().String(), "tester")
	defer client.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for _, id := range []repo.ObjectID{"first", "second"} {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := client.Call(ctx, "echo", repo.GetReq{ID: id})
			if err != nil {
				errs <- err
				return
			}
			if got := out.(repo.Object).ID; got != id {
				errs <- fmt.Errorf("call %s got response for %s", id, got)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestCancelInFlightCall cancels a context with no deadline while its
// call is in flight against a server that never responds: the call must
// return promptly with context.Canceled (the old transport only checked
// ctx.Err() at entry and then hung in Decode).
func TestCancelInFlightCall(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		conn, cdc, err := acceptRaw(lis)
		if err != nil {
			return
		}
		defer conn.Close()
		var req request
		_, _ = cdc.readRequest(&req) // swallow; never answer
		time.Sleep(10 * time.Second)
	}()

	client := Dial(lis.Addr().String(), "tester")
	defer client.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := client.Call(ctx, "echo", repo.GetReq{ID: "x"})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the call get in flight
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled call still blocked after 2s")
	}
}

// TestDeadlineDoesNotClobberOtherCalls overlaps a short-deadline call
// with a long slow call on the same stream: the short call must time
// out alone, and the slow call must still succeed. (The old transport
// applied each call's deadline to the shared socket, so an expiring
// call killed its neighbours.)
func TestDeadlineDoesNotClobberOtherCalls(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", echoDispatch(200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := Dial(srv.Addr(), "tester")
	defer client.Close()

	slowDone := make(chan error, 1)
	go func() {
		_, err := client.Call(context.Background(), "echo", repo.GetReq{ID: "slow"})
		slowDone <- err
	}()
	time.Sleep(20 * time.Millisecond) // slow call is on the wire

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := client.Call(ctx, "echo", repo.GetReq{ID: "fast"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("short-deadline call: err = %v, want DeadlineExceeded", err)
	}
	if err := <-slowDone; err != nil {
		t.Fatalf("slow call on the same stream failed: %v", err)
	}
}

// TestConnDropFailsAllInFlight drops the connection server-side with
// many calls in flight: every caller must get a transport error (none
// may hang), and the next call must redial and succeed.
func TestConnDropFailsAllInFlight(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	const inflight = 16
	go func() {
		// First connection: read the calls, then slam the socket shut.
		conn, cdc, err := acceptRaw(lis)
		if err != nil {
			return
		}
		for i := 0; i < inflight; i++ {
			var req request
			if _, err := cdc.readRequest(&req); err != nil {
				break
			}
		}
		_ = conn.Close()
		// Second connection (the redial): behave properly.
		conn, cdc, err = acceptRaw(lis)
		if err != nil {
			return
		}
		defer conn.Close()
		var req request
		if _, err := cdc.readRequest(&req); err != nil {
			return
		}
		in := req.Body.(repo.GetReq)
		_, _ = cdc.writeResponse(&response{Seq: req.Seq, Body: repo.Object{ID: in.ID}})
	}()

	client := Dial(lis.Addr().String(), "tester")
	defer client.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	var failures atomic.Int64
	for i := 0; i < inflight; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := client.Call(ctx, "echo", repo.GetReq{ID: repo.ObjectID(fmt.Sprintf("c%d", i))}); err != nil {
				failures.Add(1)
			}
		}()
	}
	waited := make(chan struct{})
	go func() { wg.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight calls still blocked 5s after connection drop")
	}
	if got := failures.Load(); got != inflight {
		t.Fatalf("%d of %d in-flight calls failed, want all", got, inflight)
	}

	out, err := client.Call(ctx, "echo", repo.GetReq{ID: "after"})
	if err != nil {
		t.Fatalf("call after redial: %v", err)
	}
	if got := out.(repo.Object).ID; got != "after" {
		t.Fatalf("redialed call got %q", got)
	}
	if st := client.Stats(); st.Dials != 2 || st.Reconnects != 1 {
		t.Fatalf("stats = %+v, want 2 dials / 1 reconnect", st)
	}
}

// TestSlowReaderBackpressure floods a real server with requests from a
// raw client that refuses to read responses for a while: the bounded
// worker pool plus blocking writes must push backpressure onto the
// socket instead of buffering responses unboundedly, and every response
// must still arrive once the reader drains.
func TestSlowReaderBackpressure(t *testing.T) {
	payload := make([]byte, 64<<10)
	srv, err := ServeConfig("127.0.0.1:0", func() *rpc.Server {
		s := rpc.NewServer("remote")
		s.Handle("blob", func(_ context.Context, _ netsim.NodeID, req any) (any, error) {
			in := req.(repo.GetReq)
			return repo.Object{ID: in.ID, Data: payload}, nil
		})
		return s
	}(), ServerConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cdc := newWirebinCodec(conn, "flood", false, 0)
	if _, err := cdc.writePreamble(); err != nil {
		t.Fatal(err)
	}
	const calls = 128 // 128 × 64KiB of responses ≫ socket buffers
	writeDone := make(chan error, 1)
	go func() {
		for i := 0; i < calls; i++ {
			req := request{Seq: uint64(i + 1), Method: "blob",
				Body: repo.GetReq{ID: repo.ObjectID(fmt.Sprintf("b%03d", i))}}
			if _, err := cdc.writeRequest(&req); err != nil {
				writeDone <- err
				return
			}
		}
		writeDone <- nil
	}()

	time.Sleep(100 * time.Millisecond) // let the server jam against the unread socket

	seen := make(map[uint64]bool, calls)
	for len(seen) < calls {
		var resp response
		if _, err := cdc.readResponse(&resp); err != nil {
			t.Fatalf("after %d responses: %v", len(seen), err)
		}
		if resp.IsErr {
			t.Fatalf("seq %d: remote error %s", resp.Seq, resp.ErrText)
		}
		if seen[resp.Seq] {
			t.Fatalf("seq %d delivered twice", resp.Seq)
		}
		seen[resp.Seq] = true
	}
	if err := <-writeDone; err != nil {
		t.Fatalf("request writer: %v", err)
	}
}

// TestConcurrentCallsSharedClient hammers one client from many
// goroutines (the -race part of the suite): every call must get its own
// response back through the shared stream.
func TestConcurrentCallsSharedClient(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", echoDispatch(0))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := Dial(srv.Addr(), "tester")
	defer client.Close()
	ctx := context.Background()

	const workers, calls = 16, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < calls; j++ {
				id := repo.ObjectID(fmt.Sprintf("w%d-c%d", w, j))
				out, err := client.Call(ctx, "echo", repo.GetReq{ID: id})
				if err != nil {
					errs <- err
					return
				}
				if got := out.(repo.Object).ID; got != id {
					errs <- fmt.Errorf("call %s got response for %s", id, got)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := client.Stats()
	if st.Calls != workers*calls || st.Failures != 0 {
		t.Fatalf("stats = %+v, want %d clean calls", st, workers*calls)
	}
	if st.MaxInFlight < 2 {
		t.Fatalf("maxInFlight = %d; concurrent calls never overlapped", st.MaxInFlight)
	}
}
