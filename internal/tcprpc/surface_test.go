package tcprpc

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"weaksets/internal/locksvc"
	"weaksets/internal/netsim"
	"weaksets/internal/repo"
	"weaksets/internal/rpc"
	"weaksets/internal/store"
)

// surfaceWorld is one node, "archive", serving a repository and a lock
// service, and a bus on which "client" calls it: either directly, or
// through a gateway to the same services served by Serve in a process
// of their own.
func surfaceWorld(t *testing.T, methods []string, overTCP bool) *rpc.Bus {
	t.Helper()
	serve := func(net *netsim.Network) *rpc.Bus {
		bus := rpc.NewBus(net)
		srv, err := repo.NewServer(bus, "archive")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		if _, err := locksvc.NewServer(bus, "archive"); err != nil {
			t.Fatal(err)
		}
		return bus
	}
	net := netsim.New(netsim.Config{})
	net.AddNode("client")
	net.AddNode("archive")
	if !overTCP {
		return serve(net)
	}
	remoteNet := netsim.New(netsim.Config{})
	remoteNet.AddNode("archive")
	tcpSrv, err := Serve("127.0.0.1:0", busBackedDispatch(serve(remoteNet), "archive", methods))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tcpSrv.Close)
	bus := rpc.NewBus(net)
	gw, err := NewGateway(bus, "archive", Dial(tcpSrv.Addr(), "gateway"), methods)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	return bus
}

// TestWholeSurfaceOverTCP drives every repository method and both lock
// methods once over a loopback connection and once on the in-process
// bus, and requires the same answers: a method whose request or reply
// has no wire codec fails here rather than in a deployment.
func TestWholeSurfaceOverTCP(t *testing.T) {
	methods := append(RepoMethods(), locksvc.MethodAcquire, locksvc.MethodRelease)
	steps := []struct {
		method string
		req    any
	}{
		{repo.MethodCreate, repo.CreateReq{Name: "c"}},
		{repo.MethodPut, repo.PutReq{Obj: repo.Object{ID: "a", Data: []byte("alpha"), Attrs: map[string]string{"k": "v"}}}},
		{repo.MethodPut, repo.PutReq{Obj: repo.Object{ID: "b", Data: []byte("beta")}}},
		{repo.MethodGet, repo.GetReq{ID: "a"}},
		{repo.MethodGetBatch, repo.GetBatchReq{IDs: []repo.ObjectID{"a", "b", "nope"}, Known: map[repo.ObjectID]uint64{"b": 1}}},
		{repo.MethodAdd, repo.AddReq{Name: "c", Ref: repo.Ref{ID: "a", Node: "archive"}}},
		{repo.MethodListParts, repo.ListPartsReq{Name: "c", Stream: true}},
		// Gated at an all-zero vector of the collection's layout: only the
		// partition the Add moved ships.
		{repo.MethodListParts, repo.ListPartsReq{Name: "c", IfVersions: make([]uint64, store.DefaultPartitions), Stream: true}},
		{repo.MethodPin, repo.PinReq{Name: "c"}},
		{repo.MethodUnpin, repo.UnpinReq{Name: "c", Pin: 1}},
		{repo.MethodBeginGrow, repo.BeginGrowReq{Name: "c"}},
		{repo.MethodRemove, repo.RemoveReq{Name: "c", ID: "a"}},
		{repo.MethodStats, repo.StatsReq{Name: "c"}},
		{repo.MethodEndGrow, repo.EndGrowReq{Name: "c", Token: 1}},
		{repo.MethodDelete, repo.DeleteReq{ID: "b"}},
		{repo.MethodSyncPart, repo.SyncPartReq{Name: "r", Partitions: 2, Part: 1, Version: 3,
			Members: []repo.Ref{{ID: "x", Node: "archive"}}, Objects: []repo.Object{{ID: "x", Data: []byte("xi"), Version: 2}}}},
		{repo.MethodSyncDigest, repo.DigestReq{Name: "c"}},
		{repo.MethodLease, repo.LeaseReq{Colls: []string{"c"}}},
		{repo.MethodAdd, repo.AddReq{Name: "c", Ref: repo.Ref{ID: "x", Node: "archive"}}},
		{repo.MethodWatch, repo.WatchReq{}}, // carries the Add's invalidation
		{repo.MethodStoreStats, repo.StoreStatsReq{}},
		{locksvc.MethodAcquire, locksvc.AcquireReq{Name: "L", Mode: locksvc.Write, Owner: "o"}},
		{locksvc.MethodRelease, locksvc.ReleaseReq{Name: "L", Owner: "o"}},
	}
	driven := map[string]bool{}
	for _, s := range steps {
		driven[s.method] = true
	}
	for _, m := range methods {
		if !driven[m] {
			t.Fatalf("%s is served but not driven: add it to the script", m)
		}
	}

	// run plays the script on one world and renders every answer.
	run := func(overTCP bool) ([]string, []any) {
		bus := surfaceWorld(t, methods, overTCP)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		out, bodies := make([]string, len(steps)), make([]any, len(steps))
		for i, s := range steps {
			body, _, err := bus.Call(ctx, "client", "archive", s.method, s.req)
			if err == nil {
				body, err = drain(s.method, body)
			}
			if err != nil {
				t.Fatalf("tcp=%v %s: %v", overTCP, s.method, err)
			}
			out[i], bodies[i] = fmt.Sprintf("%T %+v", body, body), body
		}
		return out, bodies
	}
	local, _ := run(false)
	remote, bodies := run(true)
	for i, s := range steps {
		if local[i] != remote[i] {
			t.Errorf("%s answers differently over TCP:\n in process: %s\n over TCP:   %s", s.method, local[i], remote[i])
		}
	}
	// The pin crosses with its version vector: the gated read's one frame,
	// the partition the Add moved, at its version, and zero elsewhere.
	var gated repo.PartListing
	var pin repo.PinResp
	for i, s := range steps {
		switch s.method {
		case repo.MethodListParts:
			if chunks := bodies[i].([]any); len(chunks) == 1 {
				gated = chunks[0].(repo.PartListing)
			}
		case repo.MethodPin:
			pin = bodies[i].(repo.PinResp)
		}
	}
	want := make([]uint64, store.DefaultPartitions)
	want[gated.Part] = gated.Version
	if gated.Version == 0 || !slices.Equal(pin.Versions, want) {
		t.Fatalf("pin over TCP carried versions %v, want %v", pin.Versions, want)
	}
}

// drain turns a reply into something comparable across the two worlds: a
// stream becomes its chunks (a watch only its first, which is all the
// script makes it carry), and engine stats lose their latency figures.
// Renderings print nil and empty slices alike, as a wire round trip
// leaves them.
func drain(method string, body any) (any, error) {
	switch v := body.(type) {
	case rpc.Streamer:
		var chunks []any
		for {
			chunk, ok := v.Next()
			if !ok {
				return chunks, v.Err()
			}
			chunks = append(chunks, chunk)
			if method == repo.MethodWatch {
				return chunks, nil
			}
		}
	case repo.StoreStatsResp:
		ops := append([]store.OpStats(nil), v.Stats.Ops...)
		for i := range ops {
			ops[i].Mean, ops[i].P50, ops[i].P99 = 0, 0, 0
		}
		v.Stats.Ops = ops
		return v, nil
	}
	return body, nil
}
