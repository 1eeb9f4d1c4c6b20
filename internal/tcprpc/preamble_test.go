package tcprpc

// The connection's first frame: what a client puts on the wire before
// its first request, and what a server does with anything else.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"weaksets/internal/repo"
)

// frame builds one wire frame by hand: length prefix, flags, payload.
func frame(flags byte, payload []byte) []byte {
	out := binary.AppendUvarint(nil, uint64(1+len(payload)))
	out = append(out, flags)
	return append(out, payload...)
}

// preamblePayload is the byte layout DESIGN.md §11 documents, built
// without the package's encoder so the two cannot drift together.
func preamblePayload(from string, pflags byte, compressMin uint64) []byte {
	out := []byte{'w', 's', 'r', 5}
	out = binary.AppendUvarint(out, uint64(len(from)))
	out = append(out, from...)
	out = append(out, pflags)
	return binary.AppendUvarint(out, compressMin)
}

// readRawFrame reads one frame off a raw socket.
func readRawFrame(br *bufio.Reader) (flags byte, payload []byte, err error) {
	ln, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, nil, err
	}
	buf := make([]byte, ln)
	if _, err := io.ReadFull(br, buf); err != nil {
		return 0, nil, err
	}
	return buf[0], buf[1:], nil
}

// TestFirstCallSendsOnePreamble watches a fresh client from a raw
// listener that never speaks first: the client must put exactly one
// preamble frame and then its request on the wire without waiting for
// anything, and after the connection is dropped the redial must carry
// the same preamble — identity and compression settings intact.
func TestFirstCallSendsOnePreamble(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()

	want := preamblePayload("tester", 1, 512)
	big := bytes.Repeat([]byte("compressible "), 512)
	// serveOne accepts a connection, checks its first two frames, and
	// answers the request — compressed, which the client only accepts
	// because its own preamble declared it.
	serveOne := func() error {
		conn, err := lis.Accept()
		if err != nil {
			return err
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		flags, got, err := readRawFrame(br)
		if err != nil {
			return err
		}
		if flags != 0 || !bytes.Equal(got, want) {
			t.Errorf("first frame = flags %#x payload %q, want flags 0 payload %q", flags, got, want)
		}
		// The second frame is already the request: the client did not wait
		// for a reply to the first.
		cdc := newWirebinCodec(struct {
			io.Reader
			io.Writer
		}{br, conn}, "", true, 512)
		var req request
		if _, err := cdc.readRequest(&req); err != nil {
			return err
		}
		if req.Method != "echo" {
			t.Errorf("second frame is a %q request, want echo", req.Method)
		}
		in := req.Body.(repo.GetReq)
		wire, err := cdc.writeResponse(&response{Seq: req.Seq, Body: repo.Object{ID: in.ID, Data: big, Version: 7}})
		if err == nil && wire >= len(big) {
			t.Errorf("response cost %d wire bytes; the fixture meant to compress it", wire)
		}
		return err
	}
	served := make(chan error, 2)
	go func() {
		served <- serveOne() // then drops the connection
		served <- serveOne()
	}()

	client := Dial(lis.Addr().String(), "tester")
	client.Compress = true
	client.CompressMin = 512
	defer client.Close()

	callEcho(t, client, "first", big)
	if err := <-served; err != nil {
		t.Fatalf("first connection: %v", err)
	}
	if st := client.Stats(); st.Codec != CodecWirebin || st.Dials != 1 {
		t.Fatalf("after first call: %+v", st)
	}

	// The drop surfaces as failed calls until the client notices; the
	// call after that redials.
	deadline := time.Now().Add(5 * time.Second)
	for {
		out, err := client.Call(context.Background(), "echo", repo.GetReq{ID: "second"})
		if err == nil {
			if obj := out.(repo.Object); obj.ID != "second" || !bytes.Equal(obj.Data, big) {
				t.Fatalf("redialed call returned the wrong object (id=%s, %d data bytes)", obj.ID, len(obj.Data))
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("call after drop kept failing: %v", err)
		}
	}
	if err := <-served; err != nil {
		t.Fatalf("second connection: %v", err)
	}
	if st := client.Stats(); st.Codec != CodecWirebin || st.Dials != 2 || st.Reconnects != 1 {
		t.Fatalf("after redial: %+v", st)
	}
}

// TestMalformedFirstFramesCloseTheConnection throws broken openings at a
// live server. Each must cost exactly its own connection: the server
// closes it without replying, a well-behaved client on another
// connection keeps working, nothing panics, nothing is allocated on the
// say-so of a bad length, and Close still returns — every serving
// goroutine exited.
func TestMalformedFirstFramesCloseTheConnection(t *testing.T) {
	payload := []byte("still here")
	srv, err := Serve("127.0.0.1:0", codecEchoDispatch(payload))
	if err != nil {
		t.Fatal(err)
	}
	healthy := Dial(srv.Addr(), "healthy")
	defer healthy.Close()
	callEcho(t, healthy, "before", payload)

	good := frame(0, preamblePayload("raw", 0, 0))
	for _, tc := range []struct {
		name string
		send []byte
		// closeWrite half-closes after sending: the input ends mid-frame.
		closeWrite bool
	}{
		{name: "bad-magic", send: frame(0, append([]byte("gob!"), preamblePayload("raw", 0, 0)[4:]...))},
		{name: "bad-version", send: frame(0, append([]byte{'w', 's', 'r', 2}, preamblePayload("raw", 0, 0)[4:]...))},       // the version that still carried gob-blob bodies
		{name: "retired-version", send: frame(0, append([]byte{'w', 's', 'r', 3}, preamblePayload("raw", 0, 0)[4:]...))},   // the table that still had the whole-listing List
		{name: "retired-version-4", send: frame(0, append([]byte{'w', 's', 'r', 4}, preamblePayload("raw", 0, 0)[4:]...))}, // a PinResp without the pin's version vector
		{name: "truncated-fields", send: frame(0, []byte{'w', 's', 'r', 5, 40, 'x'})},
		{name: "trailing-bytes", send: frame(0, append(preamblePayload("raw", 0, 0), 0))},
		{name: "truncated-frame", send: good[:len(good)-3], closeWrite: true},
		{name: "compressed-preamble", send: frame(frCompressed, preamblePayload("raw", 0, 0))},
		{name: "length-over-maxFrame", send: binary.AppendUvarint(nil, maxFrame+1)},
		{name: "length-absurd", send: binary.AppendUvarint(nil, 1<<62)},
		{name: "undeclared-compressed-frame", send: append(append([]byte(nil), good...), frame(frCompressed, []byte{8, 1, 2, 3})...)},
		// A request whose envelope sets the retired gob-blob bit: seq 1,
		// bflags bit 0, method "echo", then what was once a gob stream.
		{name: "retired-body-flag", send: append(append([]byte(nil), good...), frame(0, []byte{1, bfRetired, 4, 'e', 'c', 'h', 'o', 0x0c})...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if _, err := conn.Write(tc.send); err != nil {
				t.Fatal(err)
			}
			if tc.closeWrite {
				_ = conn.(*net.TCPConn).CloseWrite()
			}
			// The server says nothing and hangs up.
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			n, err := conn.Read(make([]byte, 1))
			var ne net.Error
			if n != 0 || err == nil || (errors.As(err, &ne) && ne.Timeout()) {
				t.Fatalf("read %d bytes, err %v; want a silent close", n, err)
			}
			runtime.ReadMemStats(&m1)
			if grew := m1.TotalAlloc - m0.TotalAlloc; grew > maxFrame/2 {
				t.Fatalf("server allocated %d bytes handling a %d-byte opening", grew, len(tc.send))
			}
			callEcho(t, healthy, repo.ObjectID(tc.name), payload)
		})
	}
	if st := healthy.Stats(); st.Dials != 1 || st.Failures != 0 {
		t.Fatalf("the healthy connection was disturbed: %+v", st)
	}

	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close still waiting on serving goroutines after 5s")
	}
}

// TestClientSurvivesMalformedResponse is the same rule seen from the
// client: a server that answers with a frame the connection cannot carry
// fails the call in flight, and the next call redials and succeeds.
func TestClientSurvivesMalformedResponse(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reply []byte
	}{
		{name: "length-over-maxFrame", reply: binary.AppendUvarint(nil, 1<<62)},
		{name: "undeclared-compressed-frame", reply: frame(frCompressed, []byte{8, 1, 2, 3})},
		{name: "retired-body-flag", reply: frame(0, []byte{1, bfRetired, 0x0c})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer lis.Close()
			go func() {
				// First connection: answer the request with garbage.
				conn, cdc, err := acceptRaw(lis)
				if err != nil {
					return
				}
				var req request
				if _, err := cdc.readRequest(&req); err == nil {
					_, _ = conn.Write(tc.reply)
					// Hold the socket open: the client must hang up on the
					// frame, not on an EOF behind it.
					_, _ = conn.Read(make([]byte, 1))
				}
				_ = conn.Close()
				// The redial: behave.
				conn, cdc, err = acceptRaw(lis)
				if err != nil {
					return
				}
				defer conn.Close()
				if _, err := cdc.readRequest(&req); err != nil {
					return
				}
				_, _ = cdc.writeResponse(&response{Seq: req.Seq, Body: repo.Object{ID: req.Body.(repo.GetReq).ID}})
			}()

			client := Dial(lis.Addr().String(), "tester")
			defer client.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if _, err := client.Call(ctx, "echo", repo.GetReq{ID: "doomed"}); err == nil || ctx.Err() != nil {
				t.Fatalf("call answered with a malformed frame: err = %v, want a prompt transport error", err)
			}
			out, err := client.Call(ctx, "echo", repo.GetReq{ID: "after"})
			if err != nil {
				t.Fatalf("call after the failed connection: %v", err)
			}
			if got := out.(repo.Object).ID; got != "after" {
				t.Fatalf("redialed call got %q", got)
			}
			if st := client.Stats(); st.Dials != 2 || st.Reconnects != 1 {
				t.Fatalf("stats = %+v, want 2 dials / 1 reconnect", st)
			}
		})
	}
}
