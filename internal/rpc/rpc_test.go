package rpc

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"weaksets/internal/netsim"
	"weaksets/internal/sim"
)

type echoReq struct{ Msg string }

type echoResp struct{ Msg string }

var errBoom = errors.New("boom")

func testBus(t *testing.T) *Bus {
	t.Helper()
	n := netsim.New(netsim.Config{DefaultLatency: sim.Fixed(5 * time.Millisecond)})
	n.AddNode("client")
	n.AddNode("server")
	b := NewBus(n)
	srv := NewServer("server")
	srv.Handle("echo", Typed(func(_ context.Context, _ netsim.NodeID, r echoReq) (any, error) {
		return echoResp{Msg: r.Msg}, nil
	}))
	srv.Handle("fail", func(context.Context, netsim.NodeID, any) (any, error) {
		return nil, errBoom
	})
	if err := b.Register(srv); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCallRoundTrip(t *testing.T) {
	b := testBus(t)
	resp, lat, err := b.Call(context.Background(), "client", "server", "echo", echoReq{Msg: "hi"})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.(echoResp).Msg; got != "hi" {
		t.Fatalf("echo = %q", got)
	}
	if lat != 10*time.Millisecond {
		t.Fatalf("latency = %v, want 10ms (two 5ms legs)", lat)
	}
}

func TestInvokeTyped(t *testing.T) {
	b := testBus(t)
	resp, err := Invoke[echoResp](context.Background(), b, "client", "server", "echo", echoReq{Msg: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Msg != "x" {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestInvokeWrongType(t *testing.T) {
	b := testBus(t)
	_, err := Invoke[int](context.Background(), b, "client", "server", "echo", echoReq{Msg: "x"})
	if err == nil {
		t.Fatal("expected type error")
	}
}

func TestTypedRejectsOtherRequestTypes(t *testing.T) {
	b := testBus(t)
	_, _, err := b.Call(context.Background(), "client", "server", "echo", echoResp{Msg: "x"})
	if err == nil || !strings.Contains(err.Error(), "bad request type rpc.echoResp") {
		t.Fatalf("err = %v, want the bad request type naming rpc.echoResp", err)
	}
}

func TestApplicationErrorPassesThrough(t *testing.T) {
	b := testBus(t)
	_, _, err := b.Call(context.Background(), "client", "server", "fail", nil)
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want errBoom", err)
	}
	if netsim.IsFailure(err) {
		t.Fatal("application error classified as transport failure")
	}
}

func TestNoServer(t *testing.T) {
	n := netsim.New(netsim.Config{})
	n.AddNode("client")
	n.AddNode("empty")
	b := NewBus(n)
	_, _, err := b.Call(context.Background(), "client", "empty", "echo", nil)
	if !errors.Is(err, ErrNoServer) {
		t.Fatalf("err = %v, want ErrNoServer", err)
	}
}

func TestNoMethod(t *testing.T) {
	b := testBus(t)
	_, _, err := b.Call(context.Background(), "client", "server", "nope", nil)
	if !errors.Is(err, ErrNoMethod) {
		t.Fatalf("err = %v, want ErrNoMethod", err)
	}
}

func TestRegisterUnknownNode(t *testing.T) {
	n := netsim.New(netsim.Config{})
	b := NewBus(n)
	if err := b.Register(NewServer("ghost")); !errors.Is(err, netsim.ErrNoSuchNode) {
		t.Fatalf("err = %v, want ErrNoSuchNode", err)
	}
}

func TestCallAcrossPartitionFails(t *testing.T) {
	b := testBus(t)
	b.Network().Isolate("server")
	_, _, err := b.Call(context.Background(), "client", "server", "echo", echoReq{})
	if !netsim.IsFailure(err) {
		t.Fatalf("err = %v, want transport failure", err)
	}
}

func TestCallCancelledContext(t *testing.T) {
	b := testBus(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := b.Call(ctx, "client", "server", "echo", echoReq{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestStatsCounting(t *testing.T) {
	b := testBus(t)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, _, err := b.Call(ctx, "client", "server", "echo", echoReq{}); err != nil {
			t.Fatal(err)
		}
	}
	b.Network().Isolate("server")
	_, _, _ = b.Call(ctx, "client", "server", "echo", echoReq{})
	st := b.Stats()
	if st.Calls != 4 {
		t.Fatalf("calls = %d, want 4", st.Calls)
	}
	if st.Failures != 1 {
		t.Fatalf("failures = %d, want 1", st.Failures)
	}
	if got := b.MethodCalls("echo"); got != 4 {
		t.Fatalf("method calls = %d, want 4", got)
	}
	b.ResetStats()
	if st := b.Stats(); st.Calls != 0 || st.Failures != 0 {
		t.Fatalf("reset did not zero: %+v", st)
	}
}

func TestServerSideEffectDespiteLostResponse(t *testing.T) {
	// The handler runs even when the response cannot return: the caller
	// sees a failure but the effect happened — the partial-write anomaly
	// the paper's weak sets tolerate.
	n := netsim.New(netsim.Config{})
	n.AddNode("client")
	n.AddNode("server")
	b := NewBus(n)
	srv := NewServer("server")
	ran := make(chan struct{}, 1)
	srv.Handle("mutate", func(context.Context, netsim.NodeID, any) (any, error) {
		// Cut the network while "processing".
		n.Isolate("client")
		ran <- struct{}{}
		return struct{}{}, nil
	})
	if err := b.Register(srv); err != nil {
		t.Fatal(err)
	}
	_, _, err := b.Call(context.Background(), "client", "server", "mutate", nil)
	if !netsim.IsFailure(err) {
		t.Fatalf("err = %v, want transport failure on response leg", err)
	}
	select {
	case <-ran:
	default:
		t.Fatal("handler did not run")
	}
}

func TestDispatchAndMethods(t *testing.T) {
	srv := NewServer("node")
	srv.Handle("b.method", func(context.Context, netsim.NodeID, any) (any, error) { return "b", nil })
	srv.Handle("a.method", func(_ context.Context, from netsim.NodeID, req any) (any, error) {
		return fmt.Sprintf("%s:%v", from, req), nil
	})

	out, err := srv.Dispatch(context.Background(), "caller", "a.method", 7)
	if err != nil {
		t.Fatal(err)
	}
	if out != "caller:7" {
		t.Fatalf("dispatch = %v", out)
	}
	if _, err := srv.Dispatch(context.Background(), "caller", "nope", nil); !errors.Is(err, ErrNoMethod) {
		t.Fatalf("err = %v", err)
	}
	methods := srv.Methods()
	if len(methods) != 2 || methods[0] != "a.method" || methods[1] != "b.method" {
		t.Fatalf("methods = %v", methods)
	}
}
