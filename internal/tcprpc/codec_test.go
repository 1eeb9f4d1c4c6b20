package tcprpc

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"weaksets/internal/netsim"
	"weaksets/internal/repo"
	"weaksets/internal/rpc"
)

// codecEchoDispatch serves "echo": it returns an Object echoing the
// requested ID with a fixed payload.
func codecEchoDispatch(payload []byte) *rpc.Server {
	srv := rpc.NewServer("remote")
	srv.Handle("echo", rpc.Typed(func(_ context.Context, _ netsim.NodeID, in repo.GetReq) (any, error) {
		return repo.Object{ID: in.ID, Data: payload, Version: 7}, nil
	}))
	return srv
}

func callEcho(t *testing.T, client *Client, id repo.ObjectID, want []byte) {
	t.Helper()
	out, err := client.Call(context.Background(), "echo", repo.GetReq{ID: id})
	if err != nil {
		t.Fatalf("echo %s: %v", id, err)
	}
	obj, ok := out.(repo.Object)
	if !ok {
		t.Fatalf("echo %s returned %T", id, out)
	}
	if obj.ID != id || !bytes.Equal(obj.Data, want) || obj.Version != 7 {
		t.Fatalf("echo %s returned wrong object (id=%s, %d data bytes, v%d)",
			id, obj.ID, len(obj.Data), obj.Version)
	}
}

// TestNegotiatesWirebin pairs a client with a server: the connection must
// come up on wirebin, round-trip its bodies, and account wire bytes per
// method with the preamble in the totals only. (That every method's
// bodies cross is TestWholeSurfaceOverTCP's job.)
func TestNegotiatesWirebin(t *testing.T) {
	payload := bytes.Repeat([]byte("weak"), 64)
	srv, err := Serve("127.0.0.1:0", codecEchoDispatch(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := Dial(srv.Addr(), "tester")
	defer client.Close()

	callEcho(t, client, "a", payload)
	callEcho(t, client, "b", payload)

	st := client.Stats()
	if st.Codec != CodecWirebin {
		t.Fatalf("codec = %q, want %q", st.Codec, CodecWirebin)
	}
	if st.BytesSent == 0 || st.BytesReceived == 0 {
		t.Fatalf("byte totals not accounted: %+v", st)
	}
	var sawEcho bool
	var methodSent, methodRecv int64
	for _, m := range st.Methods {
		methodSent += m.BytesSent
		methodRecv += m.BytesReceived
		if m.Method == "echo" {
			sawEcho = true
			if m.BytesSent == 0 || m.BytesReceived == 0 {
				t.Fatalf("echo bytes not attributed: %+v", m)
			}
			if m.BytesReceived < int64(len(payload)) {
				t.Fatalf("echo received %d bytes, payload alone is %d", m.BytesReceived, len(payload))
			}
		}
	}
	if !sawEcho {
		t.Fatalf("missing per-method byte attribution: %+v", st.Methods)
	}
	// The preamble is the only unattributed traffic, and it is one-way.
	if st.BytesSent <= methodSent || st.BytesReceived != methodRecv {
		t.Fatalf("totals sent=%d recv=%d vs per-method sent=%d recv=%d: want the preamble on top of sent only",
			st.BytesSent, st.BytesReceived, methodSent, methodRecv)
	}
}

// unregistered is a body type no codec is registered for.
type unregistered struct{ X int }

// TestUnencodableRequestFailsOnlyItsCall sends a body the wire cannot
// carry while another call is in flight on the same connection: the bad
// call must fail alone, naming its type, and the call in flight and the
// connection must carry on.
func TestUnencodableRequestFailsOnlyItsCall(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	dispatch := rpc.NewServer("remote")
	dispatch.Handle("hold", func(ctx context.Context, _ netsim.NodeID, _ any) (any, error) {
		close(started)
		select {
		case <-release:
		case <-ctx.Done(): // the connection died under the call
		}
		return repo.Object{ID: "held"}, nil
	})
	srv, err := Serve("127.0.0.1:0", dispatch)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := Dial(srv.Addr(), "tester")
	defer client.Close()
	ctx := context.Background()

	held := make(chan error, 1)
	go func() {
		_, err := client.Call(ctx, "hold", repo.GetReq{ID: "x"})
		held <- err
	}()
	<-started
	if _, err := client.Call(ctx, "hold", unregistered{X: 1}); err == nil || !strings.Contains(err.Error(), "tcprpc.unregistered") {
		t.Fatalf("unencodable request: err = %v, want a failure naming tcprpc.unregistered", err)
	}
	if _, err := client.CallStream(ctx, "hold", unregistered{X: 2}); err == nil || !strings.Contains(err.Error(), "tcprpc.unregistered") {
		t.Fatalf("unencodable stream request: err = %v, want a failure naming tcprpc.unregistered", err)
	}
	close(release)
	if err := <-held; err != nil {
		t.Fatalf("the call in flight failed with it: %v", err)
	}
	if st := client.Stats(); st.Dials != 1 {
		t.Fatalf("dials = %d, want the one connection kept", st.Dials)
	}
}

// sliceStreamer streams a fixed list of chunks.
type sliceStreamer struct{ chunks []any }

func (s *sliceStreamer) Next() (any, bool) {
	if len(s.chunks) == 0 {
		return nil, false
	}
	c := s.chunks[0]
	s.chunks = s.chunks[1:]
	return c, true
}

func (s *sliceStreamer) Err() error { return nil }

// TestUnencodableResponseFailsOnlyItsCall has handlers answer with a body
// the wire cannot carry, as a reply and as a stream chunk: each call must
// fail with an error naming the type, and the connection must stay up
// for the calls after it.
func TestUnencodableResponseFailsOnlyItsCall(t *testing.T) {
	dispatch := codecEchoDispatch([]byte("still here"))
	dispatch.Handle("bad", func(context.Context, netsim.NodeID, any) (any, error) {
		return unregistered{X: 1}, nil
	})
	dispatch.Handle("badStream", func(context.Context, netsim.NodeID, any) (any, error) {
		return &sliceStreamer{chunks: []any{repo.Object{ID: "ok"}, unregistered{X: 2}, repo.Object{ID: "never"}}}, nil
	})
	srv, err := Serve("127.0.0.1:0", dispatch)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := Dial(srv.Addr(), "tester")
	defer client.Close()
	ctx := context.Background()

	if _, err := client.Call(ctx, "bad", repo.GetReq{}); err == nil || !strings.Contains(err.Error(), "tcprpc.unregistered") {
		t.Fatalf("unencodable reply: err = %v, want a failure naming tcprpc.unregistered", err)
	}
	callEcho(t, client, "after-reply", []byte("still here"))

	st, err := client.CallStream(ctx, "badStream", repo.GetReq{})
	if err != nil {
		t.Fatal(err)
	}
	if chunk, ok := st.Next(); !ok || chunk.(repo.Object).ID != "ok" {
		t.Fatalf("first chunk = %v, %v", chunk, ok)
	}
	if chunk, ok := st.Next(); ok {
		t.Fatalf("stream went on past the unencodable chunk: %v", chunk)
	}
	if err := st.Err(); err == nil || !strings.Contains(err.Error(), "tcprpc.unregistered") {
		t.Fatalf("stream ended with %v, want a failure naming tcprpc.unregistered", err)
	}
	callEcho(t, client, "after-stream", []byte("still here"))

	if st := client.Stats(); st.Dials != 1 {
		t.Fatalf("dials = %d, want the one connection kept", st.Dials)
	}
}

// TestRedialRenegotiates kills the server under a compressing connection
// and brings a new one up on the same address: the client's redial must
// send a fresh preamble and come back on wirebin with its compression
// settings intact.
func TestRedialRenegotiates(t *testing.T) {
	payload := bytes.Repeat([]byte("redial "), 1024) // ~7 KiB, highly redundant
	srv, err := Serve("127.0.0.1:0", codecEchoDispatch(payload))
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	client := Dial(addr, "tester")
	client.Compress = true
	client.CompressMin = 512
	defer client.Close()

	callEcho(t, client, "before", payload)
	srv.Close()

	// Rebind the freed address; brief races with the released socket are
	// retried.
	var srv2 *Server
	for i := 0; i < 50; i++ {
		srv2, err = Serve(addr, codecEchoDispatch(payload))
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer srv2.Close()

	// The dead connection surfaces as one failed call; the next call
	// redials and re-sends the preamble.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err = client.Call(context.Background(), "echo", repo.GetReq{ID: "after"})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("call after restart kept failing: %v", err)
		}
	}
	st := client.Stats()
	if st.Codec != CodecWirebin {
		t.Fatalf("codec after redial = %q, want %q", st.Codec, CodecWirebin)
	}
	if st.Dials < 2 || st.Reconnects < 1 {
		t.Fatalf("expected a redial: %+v", st)
	}
	// The new server only compresses if the second preamble declared it.
	before := echoBytesReceived(client)
	callEcho(t, client, "compressed", payload)
	if got := echoBytesReceived(client) - before; got >= int64(len(payload)) {
		t.Fatalf("echo after redial cost %d wire bytes for a %d-byte payload; compression was lost", got, len(payload))
	}
}

func echoBytesReceived(client *Client) int64 {
	for _, m := range client.Stats().Methods {
		if m.Method == "echo" {
			return m.BytesReceived
		}
	}
	return 0
}

// TestCompressionThreshold declares compression with an explicit
// threshold: payloads above it must cross the wire smaller than raw,
// payloads below must not pay the compressor, and both must round-trip
// intact.
func TestCompressionThreshold(t *testing.T) {
	big := bytes.Repeat([]byte("compressible "), 512) // ~6.5 KiB, highly redundant
	srv, err := Serve("127.0.0.1:0", codecEchoDispatch(big))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := Dial(srv.Addr(), "tester")
	client.Compress = true
	client.CompressMin = 512
	defer client.Close()

	callEcho(t, client, "zip", big)
	st := client.Stats()
	if st.Codec != CodecWirebin {
		t.Fatalf("codec = %q, want %q", st.Codec, CodecWirebin)
	}
	if got := echoBytesReceived(client); got >= int64(len(big)) {
		t.Fatalf("compressed echo response cost %d wire bytes for a %d-byte payload", got, len(big))
	}

	// Below the threshold the frame goes out raw — and still intact.
	small := []byte("tiny")
	srvSmall, err := Serve("127.0.0.1:0", codecEchoDispatch(small))
	if err != nil {
		t.Fatal(err)
	}
	defer srvSmall.Close()
	cSmall := Dial(srvSmall.Addr(), "tester")
	cSmall.Compress = true
	cSmall.CompressMin = 512
	defer cSmall.Close()
	callEcho(t, cSmall, "raw", small)
}

// TestOutsizedFrames: a frame past the size a connection keeps its
// buffers at — raw, or compressed with its wire bytes alone past it —
// crosses intact both ways, and the connection carries small frames
// after it.
func TestOutsizedFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	big := make([]byte, 3*maxKeptBuf)
	for i := range big {
		big[i] = 'a' + byte(rng.Intn(16)) // compresses, but only to about half
	}
	small := []byte("tiny")
	srv := rpc.NewServer("remote")
	srv.Handle("echo", rpc.Typed(func(_ context.Context, _ netsim.NodeID, in repo.PutReq) (any, error) {
		return repo.Object{ID: in.Obj.ID, Data: in.Obj.Data, Version: 7}, nil
	}))
	tcp, err := Serve("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	for _, compress := range []bool{false, true} {
		client := Dial(tcp.Addr(), "tester")
		client.Compress = compress
		for i, data := range [][]byte{big, small, big, small} {
			id := repo.ObjectID(fmt.Sprintf("o%d", i))
			out, err := client.Call(context.Background(), "echo", repo.PutReq{Obj: repo.Object{ID: id, Data: data}})
			if err != nil {
				t.Fatalf("compress %v, call %d: %v", compress, i, err)
			}
			if obj := out.(repo.Object); obj.ID != id || !bytes.Equal(obj.Data, data) {
				t.Fatalf("compress %v, call %d: echoed %d bytes as %s", compress, i, len(obj.Data), obj.ID)
			}
		}
		if got := echoBytesReceived(client); compress && (got <= 2*maxKeptBuf || got >= 2*int64(len(big))) {
			t.Fatalf("compressed echoes cost %d wire bytes: not compressed, or not past the kept size", got)
		}
		client.Close()
	}
}

// TestCompressionExactBoundary drives the writer straight at the
// threshold: an envelope exactly CompressMin bytes long must compress,
// one byte shorter must not. Observed at the frame level through a pipe.
func TestCompressionExactBoundary(t *testing.T) {
	for _, tc := range []struct {
		name     string
		rawLen   int
		wantComp bool
	}{
		{name: "at-threshold", rawLen: 256, wantComp: true},
		{name: "below-threshold", rawLen: 255, wantComp: false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cli, srv := net.Pipe()
			defer cli.Close()
			defer srv.Close()
			w := newWirebinCodec(cli, "", true, 256)
			r := newWirebinCodec(srv, "peer", true, 256)

			// A compressible error text sized so the whole envelope hits
			// rawLen exactly: seq varint (1) + flags (1) + two string
			// headers (1 + 2) bring the fixed part to 5 bytes.
			resp := &response{Seq: 1, IsErr: true, ErrText: string(bytes.Repeat([]byte("e"), tc.rawLen-5))}
			done := make(chan error, 1)
			var wire int
			go func() {
				var err error
				wire, err = func() (int, error) { return w.writeResponse(resp) }()
				done <- err
			}()
			var in response
			if _, err := r.readResponse(&in); err != nil {
				t.Fatalf("read: %v", err)
			}
			if err := <-done; err != nil {
				t.Fatalf("write: %v", err)
			}
			if in.ErrText != resp.ErrText {
				t.Fatalf("payload corrupted across the boundary")
			}
			compressed := wire < tc.rawLen
			if compressed != tc.wantComp {
				t.Fatalf("rawLen %d: wire %d bytes, compressed=%v, want %v",
					tc.rawLen, wire, compressed, tc.wantComp)
			}
		})
	}
}

// TestCompressedFrameRejectedWithoutNegotiation feeds a compressed frame
// to a codec whose preamble never declared compression: a strict protocol
// violation that must fail the read, not silently inflate.
func TestCompressedFrameRejectedWithoutNegotiation(t *testing.T) {
	cli, srv := net.Pipe()
	defer cli.Close()
	defer srv.Close()
	w := newWirebinCodec(cli, "", true, 64) // compresses eagerly
	r := newWirebinCodec(srv, "peer", false, 0)

	resp := &response{Seq: 9, IsErr: true, ErrText: string(bytes.Repeat([]byte("z"), 4096))}
	go func() { _, _ = w.writeResponse(resp) }()
	var in response
	if _, err := r.readResponse(&in); err == nil {
		t.Fatal("undeclared compressed frame decoded cleanly; want an error")
	}
}

// TestFrameWriteAllocatesNothing: once a connection's buffers are warm, a
// frame write — a request, a response, a compressed frame — allocates
// nothing on either end; the header goes out of the codec's own scratch.
func TestFrameWriteAllocatesNothing(t *testing.T) {
	c := newWirebinCodec(struct {
		io.Reader
		io.Writer
	}{strings.NewReader(""), io.Discard}, "tester", true, 1024)
	req := &request{Seq: 1, Method: "echo"}
	resp := &response{Seq: 1, IsErr: true, ErrText: "no such object"}
	big := bytes.Repeat([]byte("weak"), 1024) // compresses
	for name, write := range map[string]func() (int, error){
		"request":    func() (int, error) { return c.writeRequest(req) },
		"response":   func() (int, error) { return c.writeResponse(resp) },
		"compressed": func() (int, error) { return c.writeFrame(append(c.wbuf[:0], big...)) },
	} {
		if _, err := write(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = write() }); n != 0 {
			t.Errorf("%s frame write: %.1f allocs, want 0", name, n)
		}
	}
}
