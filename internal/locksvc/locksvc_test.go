package locksvc

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"weaksets/internal/netsim"
	"weaksets/internal/rpc"
	"weaksets/internal/wirebin"
)

func newLockWorld(t *testing.T) (*Bus, *Server) {
	t.Helper()
	n := netsim.New(netsim.Config{})
	n.AddNode("c1")
	n.AddNode("c2")
	n.AddNode("locks")
	b := rpc.NewBus(n)
	srv, err := NewServer(b, "locks")
	if err != nil {
		t.Fatal(err)
	}
	return &Bus{b}, srv
}

// Bus wraps rpc.Bus to keep test helper signatures short.
type Bus struct{ *rpc.Bus }

func (b *Bus) client(node netsim.NodeID, owner string) *Client {
	return NewClient(b.Bus, node, owner)
}

func TestReadersShare(t *testing.T) {
	b, srv := newLockWorld(t)
	ctx := context.Background()
	r1, r2 := b.client("c1", "r1"), b.client("c2", "r2")
	for _, c := range []*Client{r1, r2} {
		granted, err := c.TryAcquire(ctx, "locks", "L", Read, 0)
		if err != nil || !granted {
			t.Fatalf("read acquire: granted=%v err=%v", granted, err)
		}
	}
	if srv.Holders("L") != 2 {
		t.Fatalf("holders = %d, want 2", srv.Holders("L"))
	}
}

func TestWriterExcludesReaders(t *testing.T) {
	b, _ := newLockWorld(t)
	ctx := context.Background()
	w, r := b.client("c1", "w"), b.client("c2", "r")
	if granted, err := w.TryAcquire(ctx, "locks", "L", Write, 0); err != nil || !granted {
		t.Fatalf("write acquire: %v %v", granted, err)
	}
	if granted, _ := r.TryAcquire(ctx, "locks", "L", Read, 0); granted {
		t.Fatal("reader granted while writer holds")
	}
	if err := w.Release(ctx, "locks", "L"); err != nil {
		t.Fatal(err)
	}
	if granted, _ := r.TryAcquire(ctx, "locks", "L", Read, 0); !granted {
		t.Fatal("reader denied after writer released")
	}
}

func TestReadersExcludeWriter(t *testing.T) {
	b, _ := newLockWorld(t)
	ctx := context.Background()
	r, w := b.client("c1", "r"), b.client("c2", "w")
	if granted, _ := r.TryAcquire(ctx, "locks", "L", Read, 0); !granted {
		t.Fatal("read denied")
	}
	if granted, _ := w.TryAcquire(ctx, "locks", "L", Write, 0); granted {
		t.Fatal("writer granted while reader holds")
	}
}

func TestReacquireRefreshesSameMode(t *testing.T) {
	b, srv := newLockWorld(t)
	ctx := context.Background()
	c := b.client("c1", "x")
	for i := 0; i < 3; i++ {
		if granted, err := c.TryAcquire(ctx, "locks", "L", Write, 0); err != nil || !granted {
			t.Fatalf("reacquire %d: %v %v", i, granted, err)
		}
	}
	if srv.Holders("L") != 1 {
		t.Fatalf("holders = %d, want 1", srv.Holders("L"))
	}
}

func TestWriterSelfUpgradeFromSoleRead(t *testing.T) {
	b, _ := newLockWorld(t)
	ctx := context.Background()
	c := b.client("c1", "x")
	if granted, _ := c.TryAcquire(ctx, "locks", "L", Read, 0); !granted {
		t.Fatal("read denied")
	}
	if granted, _ := c.TryAcquire(ctx, "locks", "L", Write, 0); !granted {
		t.Fatal("sole reader could not upgrade")
	}
}

func TestReleaseNotHeld(t *testing.T) {
	b, _ := newLockWorld(t)
	err := b.client("c1", "x").Release(context.Background(), "locks", "L")
	if !errors.Is(err, ErrNotHeld) {
		t.Fatalf("err = %v, want ErrNotHeld", err)
	}
}

func TestLeaseExpiry(t *testing.T) {
	b, srv := newLockWorld(t)
	ctx := context.Background()
	// Zero time scale: the server floors real leases at 50ms.
	c := b.client("c1", "holder")
	if granted, _ := c.TryAcquire(ctx, "locks", "L", Write, time.Millisecond); !granted {
		t.Fatal("acquire denied")
	}
	w := b.client("c2", "waiter")
	if granted, _ := w.TryAcquire(ctx, "locks", "L", Write, 0); granted {
		t.Fatal("granted while lease alive")
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if granted, _ := w.TryAcquire(ctx, "locks", "L", Write, 0); granted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("lease never expired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if srv.Holders("L") != 1 {
		t.Fatalf("holders = %d, want 1 (the waiter)", srv.Holders("L"))
	}
}

func TestAcquireBlocksUntilReleased(t *testing.T) {
	b, _ := newLockWorld(t)
	ctx := context.Background()
	h := b.client("c1", "h")
	if granted, _ := h.TryAcquire(ctx, "locks", "L", Write, 0); !granted {
		t.Fatal("holder denied")
	}
	w := b.client("c2", "w")
	w.RetryEvery = time.Millisecond
	done := make(chan error, 1)
	go func() {
		_, err := w.Acquire(ctx, "locks", "L", Write, 0)
		done <- err
	}()
	select {
	case <-done:
		t.Fatal("Acquire returned while lock held")
	case <-time.After(20 * time.Millisecond):
	}
	if err := h.Release(ctx, "locks", "L"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Acquire: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Acquire never completed after release")
	}
}

func TestAcquireCancelled(t *testing.T) {
	b, _ := newLockWorld(t)
	ctx := context.Background()
	h := b.client("c1", "h")
	if granted, _ := h.TryAcquire(ctx, "locks", "L", Write, 0); !granted {
		t.Fatal("holder denied")
	}
	w := b.client("c2", "w")
	w.RetryEvery = time.Millisecond
	cctx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() {
		_, err := w.Acquire(cctx, "locks", "L", Write, 0)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Acquire ignored cancellation")
	}
}

func TestAcquireAcrossPartitionFails(t *testing.T) {
	b, _ := newLockWorld(t)
	b.Network().Isolate("locks")
	_, err := b.client("c1", "x").Acquire(context.Background(), "locks", "L", Read, 0)
	if !netsim.IsFailure(err) {
		t.Fatalf("err = %v, want transport failure", err)
	}
}

func TestInvalidMode(t *testing.T) {
	b, _ := newLockWorld(t)
	_, err := b.client("c1", "x").TryAcquire(context.Background(), "locks", "L", Mode(99), 0)
	if err == nil {
		t.Fatal("invalid mode accepted")
	}
}

func TestModeString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" || Mode(0).String() != "invalid" {
		t.Fatal("Mode.String wrong")
	}
}

// TestWirebinRoundTrip carries every lock body through its registered
// codec, the only way it crosses a TCP connection: the decode must give
// back exactly what was encoded, and every strict prefix of a frame must
// fail to decode rather than yield a short message.
func TestWirebinRoundTrip(t *testing.T) {
	for _, msg := range []any{
		AcquireReq{},
		AcquireReq{Name: "L", Mode: Write, Owner: "unicode-владелец-🦉", TTL: 30 * time.Second},
		AcquireReq{Name: "L", Mode: Mode(-1), TTL: -time.Millisecond},
		AcquireResp{},
		AcquireResp{Granted: true},
		ReleaseReq{},
		ReleaseReq{Name: "L", Owner: "w1"},
	} {
		id, enc, ok := wirebin.Lookup(msg)
		if !ok {
			t.Fatalf("no wirebin codec for %T", msg)
		}
		dec, ok := wirebin.ByID(id)
		if !ok {
			t.Fatalf("no wirebin decoder for id %d", id)
		}
		frame := enc(nil, msg)
		var r wirebin.Reader
		r.Reset(frame)
		if got := dec(&r); r.Err() != nil || r.Len() != 0 || !reflect.DeepEqual(got, msg) {
			t.Fatalf("%T round trip = %#v (err %v, %d bytes left), want %#v", msg, got, r.Err(), r.Len(), msg)
		}
		for cut := 0; cut < len(frame); cut++ {
			r.Reset(frame[:cut])
			_ = dec(&r)
			if r.Err() == nil && r.Len() == 0 {
				t.Fatalf("%T: %d-byte prefix of a %d-byte frame decoded cleanly", msg, cut, len(frame))
			}
		}
	}
}
