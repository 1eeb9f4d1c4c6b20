package tcprpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"weaksets/internal/cluster"
	"weaksets/internal/core"
	"weaksets/internal/netsim"
	"weaksets/internal/repo"
	"weaksets/internal/rpc"
)

// remoteProcess simulates a separate OS process hosting a repository
// server: its own network, bus, and repo server, exposed only over TCP.
type remoteProcess struct {
	srv     *Server
	repoSrv *repo.Server
	bus     *rpc.Bus
}

func startRemote(t *testing.T, node netsim.NodeID) *remoteProcess {
	t.Helper()
	net := netsim.New(netsim.Config{})
	net.AddNode(node)
	bus := rpc.NewBus(net)
	repoSrv, err := repo.NewServer(bus, node)
	if err != nil {
		t.Fatal(err)
	}
	tcpSrv, err := Serve("127.0.0.1:0", busBackedDispatch(bus, node, RepoMethods()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		tcpSrv.Close()
		repoSrv.Close()
	})
	return &remoteProcess{srv: tcpSrv, repoSrv: repoSrv, bus: bus}
}

// busBackedDispatch builds an rpc.Server whose handlers forward methods
// to the node's bus-registered servers with zero simulated latency (the
// remote bus has no configured delays).
func busBackedDispatch(bus *rpc.Bus, node netsim.NodeID, methods []string) *rpc.Server {
	srv := rpc.NewServer(node)
	for _, method := range methods {
		method := method
		srv.Handle(method, func(ctx context.Context, from netsim.NodeID, req any) (any, error) {
			// The TCP server's per-connection context flows through: a
			// dropped connection must cancel whatever the dispatched
			// handler holds open (a Watch stream, most importantly).
			out, _, err := bus.Call(ctx, node, node, method, req)
			return out, err
		})
	}
	return srv
}

func TestRoundTripOverTCP(t *testing.T) {
	remote := startRemote(t, "archive")
	client := Dial(remote.srv.Addr(), "tester")
	defer client.Close()
	ctx := context.Background()

	if _, err := client.Call(ctx, repo.MethodCreate, repo.CreateReq{Name: "c"}); err != nil {
		t.Fatal(err)
	}
	obj := repo.Object{ID: "x", Data: []byte("payload"), Attrs: map[string]string{"k": "v"}}
	if _, err := client.Call(ctx, repo.MethodPut, repo.PutReq{Obj: obj}); err != nil {
		t.Fatal(err)
	}
	out, err := client.Call(ctx, repo.MethodGet, repo.GetReq{ID: "x"})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := out.(repo.Object)
	if !ok {
		t.Fatalf("response type %T", out)
	}
	if string(got.Data) != "payload" || got.Attrs["k"] != "v" {
		t.Fatalf("got %+v", got)
	}
}

// TestGetBatchOverTCP round-trips the batch RPC over the wire: found
// objects, missing ids, and the version-gated List all cross the socket.
func TestGetBatchOverTCP(t *testing.T) {
	remote := startRemote(t, "archive")
	client := Dial(remote.srv.Addr(), "tester")
	defer client.Close()
	ctx := context.Background()

	for _, id := range []repo.ObjectID{"a", "b"} {
		obj := repo.Object{ID: id, Data: []byte("d-" + id)}
		if _, err := client.Call(ctx, repo.MethodPut, repo.PutReq{Obj: obj}); err != nil {
			t.Fatal(err)
		}
	}
	out, err := client.Call(ctx, repo.MethodGetBatch, repo.GetBatchReq{IDs: []repo.ObjectID{"b", "nope", "a"}})
	if err != nil {
		t.Fatal(err)
	}
	resp, ok := out.(repo.GetBatchResp)
	if !ok {
		t.Fatalf("response type %T", out)
	}
	if len(resp.Objects) != 2 || resp.Objects[0].ID != "b" || resp.Objects[1].ID != "a" {
		t.Fatalf("objects = %+v", resp.Objects)
	}
	if len(resp.Missing) != 1 || resp.Missing[0] != "nope" {
		t.Fatalf("missing = %v", resp.Missing)
	}

	// Version-gated ListParts over the wire: the gate survives the codec,
	// and a vector nothing moved past ships no frame.
	if _, err := client.Call(ctx, repo.MethodCreate, repo.CreateReq{Name: "c"}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Call(ctx, repo.MethodAdd, repo.AddReq{Name: "c", Ref: repo.Ref{ID: "a", Node: "archive"}}); err != nil {
		t.Fatal(err)
	}
	listParts := func(gates []uint64) []repo.PartListing {
		t.Helper()
		st, err := client.CallStream(ctx, repo.MethodListParts, repo.ListPartsReq{Name: "c", IfVersions: gates, Stream: true})
		if err != nil {
			t.Fatal(err)
		}
		var out []repo.PartListing
		for chunk, ok := st.Next(); ok; chunk, ok = st.Next() {
			out = append(out, chunk.(repo.PartListing))
		}
		if err := st.Err(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	full := listParts(nil)
	gates, members := make([]uint64, len(full)), 0
	for _, pl := range full {
		gates[pl.Part] = pl.Version
		members += len(pl.Members)
	}
	if len(full) == 0 || len(full) != full[0].Partitions || members != 1 {
		t.Fatalf("full list = %+v", full)
	}
	if gated := listParts(gates); len(gated) != 0 {
		t.Fatalf("gated list = %+v", gated)
	}
}

// TestConditionalGetBatchOverTCP round-trips a conditional batch over
// the wire: the Known version map rides the request and the compact
// NotModified list rides the response, with only changed objects shipped.
func TestConditionalGetBatchOverTCP(t *testing.T) {
	remote := startRemote(t, "archive")
	client := Dial(remote.srv.Addr(), "tester")
	defer client.Close()
	ctx := context.Background()

	versions := make(map[repo.ObjectID]uint64)
	for _, id := range []repo.ObjectID{"a", "b", "c"} {
		obj := repo.Object{ID: id, Data: []byte("d-" + id)}
		out, err := client.Call(ctx, repo.MethodPut, repo.PutReq{Obj: obj})
		if err != nil {
			t.Fatal(err)
		}
		versions[id] = out.(repo.PutResp).Version
	}
	// Move "b" past the version the client knows.
	if _, err := client.Call(ctx, repo.MethodPut, repo.PutReq{Obj: repo.Object{ID: "b", Data: []byte("newer")}}); err != nil {
		t.Fatal(err)
	}

	out, err := client.Call(ctx, repo.MethodGetBatch, repo.GetBatchReq{
		IDs:   []repo.ObjectID{"a", "b", "c", "nope"},
		Known: versions,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp := out.(repo.GetBatchResp)
	if len(resp.Objects) != 1 || resp.Objects[0].ID != "b" || string(resp.Objects[0].Data) != "newer" {
		t.Fatalf("objects = %+v, want just the changed b", resp.Objects)
	}
	if len(resp.NotModified) != 2 || resp.NotModified[0] != "a" || resp.NotModified[1] != "c" {
		t.Fatalf("notModified = %v", resp.NotModified)
	}
	if len(resp.Missing) != 1 || resp.Missing[0] != "nope" {
		t.Fatalf("missing = %v", resp.Missing)
	}
}

// TestDecodedBodiesOutliveLaterFrames: the ids and Data of a decoded
// batch answer and of a streamed partition listing are views into the
// frames they arrived in, so the connection must never read into those
// frames again. Both are held while 100 more frames cross the same
// connection, and must read exactly as they did when decoded.
func TestDecodedBodiesOutliveLaterFrames(t *testing.T) {
	remote := startRemote(t, "archive")
	client := Dial(remote.srv.Addr(), "tester")
	defer client.Close()
	ctx := context.Background()
	members := seedCollection(t, client, "c", 40)
	for _, id := range []repo.ObjectID{"p", "q"} {
		obj := repo.Object{ID: id, Data: bytes.Repeat([]byte(id), 300)}
		if _, err := client.Call(ctx, repo.MethodPut, repo.PutReq{Obj: obj}); err != nil {
			t.Fatal(err)
		}
	}
	batchOf := func(id repo.ObjectID) repo.GetBatchResp {
		out, err := client.Call(ctx, repo.MethodGetBatch, repo.GetBatchReq{IDs: []repo.ObjectID{id}})
		if err != nil {
			t.Fatal(err)
		}
		return out.(repo.GetBatchResp)
	}
	batch := batchOf("p")
	st, err := client.CallStream(ctx, repo.MethodListParts, repo.ListPartsReq{Name: "c", Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	var parts []repo.PartListing
	for {
		chunk, ok := st.Next()
		if !ok {
			break
		}
		parts = append(parts, chunk.(repo.PartListing))
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		if len(batch.Objects) != 1 || batch.Objects[0].ID != "p" || !bytes.Equal(batch.Objects[0].Data, bytes.Repeat([]byte("p"), 300)) {
			t.Fatalf("%s: batch answer reads %+v", when, batch.Objects)
		}
		n := 0
		for _, pl := range parts {
			for _, m := range pl.Members {
				if !members[m.ID] || m.Node != "archive" {
					t.Fatalf("%s: listing member reads %q on %q", when, m.ID, m.Node)
				}
				n++
			}
		}
		if n != len(members) {
			t.Fatalf("%s: listing holds %d members, want %d", when, n, len(members))
		}
	}
	check("as decoded")
	for i := 0; i < 100; i++ {
		if b := batchOf("q"); len(b.Objects) != 1 || b.Objects[0].Data[0] != 'q' {
			t.Fatalf("batch %d: %+v", i, b.Objects)
		}
	}
	check("after 100 more frames")
}

func TestSentinelErrorsCrossTheWire(t *testing.T) {
	remote := startRemote(t, "archive")
	client := Dial(remote.srv.Addr(), "tester")
	defer client.Close()
	ctx := context.Background()

	if _, err := client.Call(ctx, repo.MethodGet, repo.GetReq{ID: "missing"}); !errors.Is(err, repo.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound across the wire", err)
	}
	if _, err := client.Call(ctx, repo.MethodStats, repo.StatsReq{Name: "nope"}); !errors.Is(err, repo.ErrNoCollection) {
		t.Fatalf("err = %v, want ErrNoCollection across the wire", err)
	}
	if _, err := client.Call(ctx, "bogus.method", repo.GetReq{}); !errors.Is(err, rpc.ErrNoMethod) {
		t.Fatalf("err = %v, want ErrNoMethod across the wire", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	remote := startRemote(t, "archive")
	ctx := context.Background()
	seed := Dial(remote.srv.Addr(), "seeder")
	defer seed.Close()
	if _, err := seed.Call(ctx, repo.MethodCreate, repo.CreateReq{Name: "c"}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := Dial(remote.srv.Addr(), fmt.Sprintf("w%d", i))
			defer client.Close()
			for j := 0; j < 20; j++ {
				id := repo.ObjectID(fmt.Sprintf("o-%d-%d", i, j))
				if _, err := client.Call(ctx, repo.MethodPut, repo.PutReq{Obj: repo.Object{ID: id, Data: []byte("d")}}); err != nil {
					errs <- err
					return
				}
				if _, err := client.Call(ctx, repo.MethodAdd, repo.AddReq{Name: "c", Ref: repo.Ref{ID: id, Node: "archive"}}); err != nil {
					errs <- err
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
	out, err := seed.Call(ctx, repo.MethodStats, repo.StatsReq{Name: "c"})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.(repo.StatsResp).Members; got != 160 {
		t.Fatalf("members = %d, want 160", got)
	}
}

func TestClientRedialsAfterServerRestart(t *testing.T) {
	remote := startRemote(t, "archive")
	client := Dial(remote.srv.Addr(), "tester")
	defer client.Close()
	ctx := context.Background()
	if _, err := client.Call(ctx, repo.MethodCreate, repo.CreateReq{Name: "c"}); err != nil {
		t.Fatal(err)
	}
	// Kill the connection server-side; next call fails, the one after
	// redials... but the listener is gone too, so both fail.
	remote.srv.Close()
	if _, err := client.Call(ctx, repo.MethodStats, repo.StatsReq{Name: "c"}); err == nil {
		t.Fatal("call succeeded against closed server")
	}
}

func TestClientClosed(t *testing.T) {
	remote := startRemote(t, "archive")
	client := Dial(remote.srv.Addr(), "tester")
	client.Close()
	if _, err := client.Call(context.Background(), repo.MethodStats, repo.StatsReq{Name: "c"}); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("err = %v, want ErrClientClosed", err)
	}
}

func TestCallContextDeadline(t *testing.T) {
	remote := startRemote(t, "archive")
	client := Dial(remote.srv.Addr(), "tester")
	defer client.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := client.Call(ctx, repo.MethodStats, repo.StatsReq{Name: "c"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
}

// TestWeakSetOverTCPGateway is the headline integration: a weak set in a
// simulated cluster iterates a collection whose members live on a node
// that is actually a separate TCP-served repository process.
func TestWeakSetOverTCPGateway(t *testing.T) {
	remote := startRemote(t, "archive")

	c, err := cluster.New(cluster.Config{StorageNodes: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	// Splice the remote process in as cluster node "archive".
	c.Net.AddNode("archive")
	gw, err := NewGateway(c.Bus, "archive", Dial(remote.srv.Addr(), "gateway"), RepoMethods())
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	// Build a collection on the cluster's directory whose members live on
	// the remote archive.
	if err := c.Client.CreateCollection(ctx, cluster.DirNode, "papers"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		obj := repo.Object{ID: repo.ObjectID(fmt.Sprintf("p%d", i)), Data: []byte("paper body")}
		ref, err := c.Client.Put(ctx, "archive", obj)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Client.Add(ctx, cluster.DirNode, "papers", ref); err != nil {
			t.Fatal(err)
		}
	}

	set, err := core.NewSet(c.Client, cluster.DirNode, "papers", core.Options{Semantics: core.Optimistic})
	if err != nil {
		t.Fatal(err)
	}
	elems, err := set.Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(elems) != 5 {
		t.Fatalf("collected %d over TCP, want 5", len(elems))
	}
	for _, e := range elems {
		if string(e.Data) != "paper body" {
			t.Fatalf("element %s data %q", e.Ref.ID, e.Data)
		}
	}

	// And the simulated partition still governs the local leg: isolating
	// the gateway node makes the archive unreachable for a pessimistic
	// run.
	c.Net.Isolate("archive")
	pess, err := core.NewSet(c.Client, cluster.DirNode, "papers", core.Options{Semantics: core.GrowOnly})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pess.Collect(ctx); !errors.Is(err, core.ErrFailure) {
		t.Fatalf("err = %v, want ErrFailure under partition", err)
	}
}

func TestDynSetOverTCPGateway(t *testing.T) {
	remote := startRemote(t, "archive")
	c, err := cluster.New(cluster.Config{StorageNodes: 1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	c.Net.AddNode("archive")
	gw, err := NewGateway(c.Bus, "archive", Dial(remote.srv.Addr(), "gateway"), RepoMethods())
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	if err := c.Client.CreateCollection(ctx, cluster.DirNode, "d"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		obj := repo.Object{ID: repo.ObjectID(fmt.Sprintf("f%02d", i)), Data: []byte("x")}
		ref, err := c.Client.Put(ctx, "archive", obj)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Client.Add(ctx, cluster.DirNode, "d", ref); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := core.OpenDyn(ctx, c.Client, cluster.DirNode, "d", core.DynOptions{Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close(ctx)
	n := 0
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && ds.Next(ctx) {
		n++
	}
	if n != 12 {
		t.Fatalf("dynamic set over TCP yielded %d, want 12", n)
	}
}
