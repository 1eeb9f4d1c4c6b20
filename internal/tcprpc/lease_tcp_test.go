package tcprpc

import (
	"context"
	"fmt"
	"testing"
	"time"

	"weaksets/internal/cluster"
	"weaksets/internal/core"
	"weaksets/internal/netsim"
	"weaksets/internal/repo"
	"weaksets/internal/rpc"
)

// leaseWorld is the TCP lease fixture: a remote directory+storage
// process reachable only over a real socket, spliced into a local
// cluster as node "archive", with the collection and its members living
// on the remote side.
type leaseWorld struct {
	c      *cluster.Cluster
	remote *remoteProcess
	gw     *Gateway
}

func newLeaseWorld(t *testing.T, n int) *leaseWorld {
	t.Helper()
	remote := startRemote(t, "archive")
	c, err := cluster.New(cluster.Config{StorageNodes: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ctx := context.Background()

	c.Net.AddNode("archive")
	gw, err := NewGateway(c.Bus, "archive", Dial(remote.srv.Addr(), "gateway"), RepoMethods())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)

	if err := c.Client.CreateCollection(ctx, "archive", "papers"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		obj := repo.Object{ID: repo.ObjectID(fmt.Sprintf("p%02d", i)), Data: []byte("paper body")}
		ref, err := c.Client.Put(ctx, "archive", obj)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Client.Add(ctx, "archive", "papers", ref); err != nil {
			t.Fatal(err)
		}
	}
	return &leaseWorld{c: c, remote: remote, gw: gw}
}

// remoteReadRPCs counts the membership and element reads that actually
// crossed the socket — the quantity leases exist to eliminate.
func (w *leaseWorld) remoteReadRPCs() int64 {
	return w.remote.bus.MethodCalls(repo.MethodListParts) +
		w.remote.bus.MethodCalls(repo.MethodGet) +
		w.remote.bus.MethodCalls(repo.MethodGetBatch)
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLeaseZeroRPCOverTCP drives the whole lease protocol across a real
// socket: grant and Watch ride the multiplexed stream, a warm run under
// the lease costs zero remote read RPCs, a remote write's pushed
// invalidation degrades the next run to exactly one gated ListParts,
// and serving resumes RPC-free after it.
func TestLeaseZeroRPCOverTCP(t *testing.T) {
	w := newLeaseWorld(t, 8)
	ctx := context.Background()
	cache := repo.NewCache(64)
	w.c.Client.UseCache(cache)
	ls := repo.NewLeaseState(w.c.Client, "archive", "papers")
	if err := ls.Start(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ls.Stop)
	w.c.Client.UseLeases(ls)
	if st := ls.Stats(); !st.Active || st.Held != 1 {
		t.Fatalf("lease stats over TCP = %+v, want active with 1 held", st)
	}

	set, err := core.NewSet(w.c.Client, "archive", "papers", core.Options{Semantics: core.GrowOnly})
	if err != nil {
		t.Fatal(err)
	}
	if cold, err := set.Collect(ctx); err != nil || len(cold) != 8 {
		t.Fatalf("cold run: %d elems, %v", len(cold), err)
	}

	before := w.remoteReadRPCs()
	warm, err := set.Collect(ctx)
	if err != nil || len(warm) != 8 {
		t.Fatalf("warm run: %d elems, %v", len(warm), err)
	}
	for _, e := range warm {
		if string(e.Data) != "paper body" {
			t.Fatalf("element %s data %q", e.Ref.ID, e.Data)
		}
	}
	if d := w.remoteReadRPCs() - before; d != 0 {
		t.Fatalf("lease-held warm run crossed the socket %d times, want 0", d)
	}

	// A write on the remote pushes an invalidation back down the watch
	// stream; the next run revalidates with one gated ListParts.
	v0, _, ok := ls.Serveable("papers")
	if !ok {
		t.Fatal("lease not serveable after warm run")
	}
	obj := repo.Object{ID: "p99", Data: []byte("paper body")}
	ref, err := w.c.Client.Put(ctx, "archive", obj)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.c.Client.Add(ctx, "archive", "papers", ref); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "pushed invalidation", func() bool {
		v, _, ok := ls.Serveable("papers")
		return ok && v > v0
	})
	lists := w.remote.bus.MethodCalls(repo.MethodListParts)
	if moved, err := set.Collect(ctx); err != nil || len(moved) != 9 {
		t.Fatalf("post-write run: %d elems, %v", len(moved), err)
	}
	if d := w.remote.bus.MethodCalls(repo.MethodListParts) - lists; d != 1 {
		t.Fatalf("post-write run issued %d ListParts RPCs, want exactly 1", d)
	}
	before = w.remoteReadRPCs()
	if again, err := set.Collect(ctx); err != nil || len(again) != 9 {
		t.Fatalf("re-warm run: %d elems, %v", len(again), err)
	}
	if d := w.remoteReadRPCs() - before; d != 0 {
		t.Fatalf("re-warm run crossed the socket %d times, want 0", d)
	}
}

// TestLeaseConnDropBreaksAndDegrades kills the TCP connection under a
// held lease: the client must observe the dead watch stream, break every
// lease, and degrade the next run to conditional revalidation against
// the restarted server — never serve unverified cache entries.
func TestLeaseConnDropBreaksAndDegrades(t *testing.T) {
	w := newLeaseWorld(t, 6)
	ctx := context.Background()
	cache := repo.NewCache(64)
	w.c.Client.UseCache(cache)
	ls := repo.NewLeaseState(w.c.Client, "archive", "papers")
	if err := ls.Start(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ls.Stop)
	w.c.Client.UseLeases(ls)

	set, err := core.NewSet(w.c.Client, "archive", "papers", core.Options{Semantics: core.GrowOnly})
	if err != nil {
		t.Fatal(err)
	}
	if cold, err := set.Collect(ctx); err != nil || len(cold) != 6 {
		t.Fatalf("cold run: %d elems, %v", len(cold), err)
	}
	if _, _, ok := ls.Serveable("papers"); !ok {
		t.Fatal("lease not serveable")
	}

	// Tear the TCP layer down; the dispatch bus and its store survive, so
	// a new listener on the same address is the same repository after a
	// network blip.
	addr := w.remote.srv.Addr()
	w.remote.srv.Close()
	waitCond(t, "lease break after conn drop", func() bool {
		_, _, ok := ls.Serveable("papers")
		return !ok
	})
	if st := ls.Stats(); st.Active || st.Breaks == 0 {
		t.Fatalf("stats after conn drop = %+v, want inactive with breaks", st)
	}

	srv2, err := Serve(addr, busBackedDispatch(w.remote.bus, "archive", RepoMethods()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv2.Close)

	// Leaseless degradation: the run still answers, by revalidating.
	lists := w.remote.bus.MethodCalls(repo.MethodListParts)
	lost, err := set.Collect(ctx)
	if err != nil || len(lost) != 6 {
		t.Fatalf("post-drop run: %d elems, %v", len(lost), err)
	}
	if d := w.remote.bus.MethodCalls(repo.MethodListParts) - lists; d == 0 {
		t.Fatal("post-drop run never revalidated the listing")
	}

	// Explicit re-arm resumes lease serving against the new connection.
	ls.Stop()
	if err := ls.Start(ctx); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "re-armed lease", func() bool {
		_, _, ok := ls.Serveable("papers")
		return ok
	})
	if _, err := set.Collect(ctx); err != nil {
		t.Fatal(err)
	}
	before := w.remoteReadRPCs()
	if again, err := set.Collect(ctx); err != nil || len(again) != 6 {
		t.Fatalf("re-armed warm run: %d elems, %v", len(again), err)
	}
	if d := w.remoteReadRPCs() - before; d != 0 {
		t.Fatalf("re-armed warm run crossed the socket %d times, want 0", d)
	}
}

// TestLeaseOldTCPServerDegrades pins the degradation over a real socket:
// a remote that does not serve the lease methods answers ErrNoMethod
// through the gateway and the client runs leaseless.
func TestLeaseOldTCPServerDegrades(t *testing.T) {
	// A remote with an empty dispatch table: every method, including
	// Watch and Lease, answers ErrNoMethod.
	old := rpc.NewServer("archive")
	tcpSrv, err := Serve("127.0.0.1:0", old)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tcpSrv.Close)

	c, err := cluster.New(cluster.Config{StorageNodes: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	c.Net.AddNode("archive")
	gw, err := NewGateway(c.Bus, "archive", Dial(tcpSrv.Addr(), "gateway"), RepoMethods())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)

	ls := repo.NewLeaseState(c.Client, netsim.NodeID("archive"), "papers")
	if err := ls.Start(context.Background()); err != nil {
		t.Fatalf("start against a leaseless TCP remote: %v", err)
	}
	t.Cleanup(ls.Stop)
	if st := ls.Stats(); st.Active {
		t.Fatalf("stats = %+v, want inactive against a leaseless remote", st)
	}
	if _, _, ok := ls.Serveable("papers"); ok {
		t.Fatal("serveable with no lease protocol on the wire")
	}
}
