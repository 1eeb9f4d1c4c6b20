package tcprpc

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"weaksets/internal/cluster"
	"weaksets/internal/core"
	"weaksets/internal/netsim"
	"weaksets/internal/obs"
	"weaksets/internal/repo"
	"weaksets/internal/rpc"
)

// startTracedRemote is startRemote with the remote process's own tracer
// wired through its bus, repo server, and TCP server, so spans recorded
// there join traces whose context arrives in request envelopes.
func startTracedRemote(t *testing.T, node netsim.NodeID, tracer *obs.Tracer) *remoteProcess {
	t.Helper()
	net := netsim.New(netsim.Config{})
	net.AddNode(node)
	bus := rpc.NewBus(net)
	bus.UseTracer(tracer)
	repoSrv, err := repo.NewServer(bus, node)
	if err != nil {
		t.Fatal(err)
	}
	repoSrv.UseTracer(tracer)
	tcpSrv, err := ServeConfig("127.0.0.1:0", busBackedDispatch(bus, node, RepoMethods()), ServerConfig{Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		tcpSrv.Close()
		repoSrv.Close()
	})
	return &remoteProcess{srv: tcpSrv, repoSrv: repoSrv}
}

// TestCrossProcessTrace is the observability acceptance test: one
// `elements` run whose members live on a TCP-served remote process must
// produce ONE coherent trace — every span on both sides carrying the same
// trace id, stitched by the context propagated in the request envelopes.
// Run it with -race: span recording happens concurrently with the
// fetcher goroutines and the remote's worker pool.
func TestCrossProcessTrace(t *testing.T) {
	archiveTracer := obs.NewTracer("archive", obs.Config{})
	clientTracer := obs.NewTracer("client", obs.Config{})
	weakness := obs.NewRegistry()

	remote := startTracedRemote(t, "archive", archiveTracer)

	c, err := cluster.New(cluster.Config{StorageNodes: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.UseTracer(clientTracer)
	ctx := context.Background()

	c.Net.AddNode("archive")
	conn := Dial(remote.srv.Addr(), "gateway")
	conn.Tracer = clientTracer
	gw, err := NewGateway(c.Bus, "archive", conn, RepoMethods())
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	if err := c.Client.CreateCollection(ctx, cluster.DirNode, "papers"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		ref, err := c.Client.Put(ctx, "archive", repo.Object{
			ID:   repo.ObjectID(fmt.Sprintf("p%d", i)),
			Data: []byte("body"),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Client.Add(ctx, cluster.DirNode, "papers", ref); err != nil {
			t.Fatal(err)
		}
	}

	set, err := core.NewSet(c.Client, cluster.DirNode, "papers", core.Options{
		Semantics: core.Optimistic,
		Tracer:    clientTracer,
		Weakness:  weakness,
	})
	if err != nil {
		t.Fatal(err)
	}
	elems, err := set.Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(elems) != 6 {
		t.Fatalf("collected %d, want 6", len(elems))
	}

	// The weakness report links the run to its trace.
	rep, ok := weakness.Last("papers")
	if !ok {
		t.Fatal("no weakness report recorded")
	}
	if rep.Trace == 0 {
		t.Fatal("weakness report carries no trace id")
	}
	if rep.Yielded != 6 || rep.Outcome != "returns" {
		t.Fatalf("report = %+v, want 6 yielded / returns", rep)
	}

	// Both processes retained spans of the SAME trace.
	clientSpans := clientTracer.Trace(rep.Trace)
	archiveSpans := archiveTracer.Trace(rep.Trace)
	if len(clientSpans) == 0 {
		t.Fatal("client tracer has no spans for the run's trace")
	}
	if len(archiveSpans) == 0 {
		t.Fatal("archive tracer has no spans for the run's trace — context did not cross the socket")
	}
	for _, sp := range clientSpans {
		if sp.Process != "client" {
			t.Fatalf("client-side span %q labelled process %q", sp.Name, sp.Process)
		}
	}
	for _, sp := range archiveSpans {
		if sp.Process != "archive" {
			t.Fatalf("archive-side span %q labelled process %q", sp.Name, sp.Process)
		}
	}

	// The trace must cover every layer of the read path on both sides.
	all := append(clientSpans, archiveSpans...)
	for _, want := range []string{"elements", "iter.list", "fetch.batch", "rpc.", "tcp.", "rpc.serve", "store."} {
		if !hasSpan(all, want) {
			names := make([]string, 0, len(all))
			for _, sp := range all {
				names = append(names, sp.Process+"/"+sp.Name)
			}
			t.Fatalf("trace has no %q span; spans: %v", want, names)
		}
	}

	// Exactly one root, and every other span is parented (to a span that
	// may live in the other process's ring — ids still line up).
	ids := make(map[obs.SpanID]bool, len(all))
	roots := 0
	for _, sp := range all {
		ids[sp.Span] = true
	}
	for _, sp := range all {
		if sp.Parent == 0 {
			roots++
			continue
		}
		if !ids[sp.Parent] {
			t.Fatalf("span %s/%s has parent %s not in the trace", sp.Process, sp.Name, sp.Parent)
		}
	}
	if roots != 1 {
		t.Fatalf("trace has %d roots, want exactly 1", roots)
	}
}

func hasSpan(spans []obs.SpanRecord, nameOrPrefix string) bool {
	for _, sp := range spans {
		if sp.Name == nameOrPrefix || strings.HasPrefix(sp.Name, nameOrPrefix) {
			return true
		}
	}
	return false
}
