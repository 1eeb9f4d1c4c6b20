package httpgw

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"weaksets/internal/cluster"
	"weaksets/internal/tcprpc"
	"weaksets/internal/wais"
)

type gwWorld struct {
	c      *cluster.Cluster
	corpus wais.Corpus
	srv    *httptest.Server
	gw     *Gateway
}

func newGWWorld(t *testing.T) *gwWorld {
	t.Helper()
	c, err := cluster.New(cluster.Config{StorageNodes: 4, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	corpus, err := wais.BuildRestaurants(context.Background(), c, 20)
	if err != nil {
		t.Fatal(err)
	}
	gw := New(c.Client, cluster.DirNode, c.LockNode)
	srv := httptest.NewServer(gw.Handler())
	t.Cleanup(srv.Close)
	return &gwWorld{c: c, corpus: corpus, srv: srv, gw: gw}
}

func (w *gwWorld) get(t *testing.T, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(w.srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestSemanticsEndpoint(t *testing.T) {
	w := newGWWorld(t)
	resp, body := w.get(t, "/semantics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out []map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 6 {
		t.Fatalf("semantics = %d", len(out))
	}
	last := out[5]
	if last["name"] != "optimistic" || last["consistency"] != "none" || last["currency"] != "first-bound" {
		t.Fatalf("optimistic row = %v", last)
	}
}

func TestSpecEndpoint(t *testing.T) {
	w := newGWWorld(t)
	resp, body := w.get(t, "/specs/Fig6-optimistic")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "remembers yielded") {
		t.Fatalf("spec body:\n%s", body)
	}
	// Short form resolves too.
	resp, _ = w.get(t, "/specs/fig3")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("short-form status = %d", resp.StatusCode)
	}
	resp, _ = w.get(t, "/specs/fig99")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown figure status = %d", resp.StatusCode)
	}
}

func TestCollectionEndpoint(t *testing.T) {
	w := newGWWorld(t)
	w.c.Net.Isolate(w.c.Storage[0])
	resp, body := w.get(t, "/collections/menus")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Collection string `json:"collection"`
		Version    uint64 `json:"version"`
		Members    []struct {
			ID        string `json:"id"`
			Node      string `json:"node"`
			Reachable bool   `json:"reachable"`
		} `json:"members"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Members) != 20 || out.Version == 0 {
		t.Fatalf("listing = %+v", out)
	}
	unreachable := 0
	for _, m := range out.Members {
		if !m.Reachable {
			unreachable++
			if m.Node != string(w.c.Storage[0]) {
				t.Fatalf("wrong unreachable node: %+v", m)
			}
		}
	}
	if unreachable != 5 {
		t.Fatalf("unreachable = %d, want 5 of 20", unreachable)
	}

	resp, _ = w.get(t, "/collections/nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing collection status = %d", resp.StatusCode)
	}
}

// streamRecords parses an NDJSON query response.
func streamRecords(t *testing.T, body []byte) (elements []map[string]any, summary map[string]any) {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch rec["kind"] {
		case "element":
			elements = append(elements, rec)
		case "summary":
			summary = rec
		default:
			t.Fatalf("unknown record kind %v", rec["kind"])
		}
	}
	if summary == nil {
		t.Fatalf("no summary record in:\n%s", body)
	}
	return elements, summary
}

func TestQueryStreaming(t *testing.T) {
	w := newGWWorld(t)
	resp, body := w.get(t, `/query?coll=menus&q=cuisine=="chinese"&sem=optimistic`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Fatalf("content type = %q", got)
	}
	elements, summary := streamRecords(t, body)
	if len(elements) != 4 {
		t.Fatalf("elements = %d, want 4 chinese of 20", len(elements))
	}
	if summary["outcome"] != "returns" || summary["matches"] != float64(4) || summary["examined"] != float64(20) {
		t.Fatalf("summary = %v", summary)
	}
}

func TestQueryDynamicDefault(t *testing.T) {
	w := newGWWorld(t)
	resp, body := w.get(t, "/query?coll=menus")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	elements, summary := streamRecords(t, body)
	if len(elements) != 20 {
		t.Fatalf("elements = %d, want all 20", len(elements))
	}
	if summary["outcome"] != "returns" {
		t.Fatalf("summary = %v", summary)
	}
}

func TestQueryFailureOutcome(t *testing.T) {
	w := newGWWorld(t)
	w.c.Net.Isolate(w.c.Storage[1])
	resp, body := w.get(t, "/query?coll=menus&sem=grow-only")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	_, summary := streamRecords(t, body)
	if summary["outcome"] != "fails" {
		t.Fatalf("summary = %v", summary)
	}
	if summary["error"] == "" {
		t.Fatal("failure summary missing error text")
	}
}

func TestQueryBadRequests(t *testing.T) {
	w := newGWWorld(t)
	tests := []struct {
		path string
		want int
	}{
		{"/query", http.StatusBadRequest},
		{"/query?coll=menus&q=%3D%3Dbroken", http.StatusBadRequest},
		{"/query?coll=menus&sem=nonsense", http.StatusBadRequest},
		// batch and width size allocations; over-limit values never reach them.
		{"/query?coll=menus&sem=snapshot&batch=4097", http.StatusBadRequest},
		{"/query?coll=menus&batch=99999999999999999999", http.StatusBadRequest},
		{"/query?coll=menus&width=257", http.StatusBadRequest},
	}
	for _, tt := range tests {
		resp, body := w.get(t, tt.path)
		if resp.StatusCode != tt.want {
			t.Errorf("%s: status = %d want %d (%s)", tt.path, resp.StatusCode, tt.want, body)
		}
		var out map[string]string
		if err := json.Unmarshal(body, &out); err != nil || out["error"] == "" {
			t.Errorf("%s: error body = %s", tt.path, body)
		}
	}
}

func TestQueryAllSemanticsOverHTTP(t *testing.T) {
	w := newGWWorld(t)
	for _, sem := range []string{"immutable", "immutable-per-run", "snapshot", "grow-only", "grow-only-per-run", "optimistic", "dynamic"} {
		sem := sem
		t.Run(sem, func(t *testing.T) {
			resp, body := w.get(t, fmt.Sprintf(`/query?coll=menus&q=cuisine!=""&sem=%s`, sem))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d", resp.StatusCode)
			}
			elements, summary := streamRecords(t, body)
			if len(elements) != 20 || summary["outcome"] != "returns" {
				t.Fatalf("elements=%d summary=%v", len(elements), summary)
			}
		})
	}
}

func TestStatsEndpoint(t *testing.T) {
	w := newGWWorld(t)
	// Drive some traffic so the engine has counters to report.
	if _, body := w.get(t, "/collections/menus"); len(body) == 0 {
		t.Fatal("empty listing")
	}

	resp, body := w.get(t, "/stats?coll=menus")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Node    string `json:"node"`
		Engine  string `json:"engine"`
		Shards  int    `json:"shards"`
		Objects int    `json:"objects"`
		Ops     []struct {
			Op    string  `json:"op"`
			Count int64   `json:"count"`
			P99Ms float64 `json:"p99Ms"`
		} `json:"ops"`
		Collection *struct {
			Collection string `json:"collection"`
			Members    int    `json:"members"`
		} `json:"collectionStats"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Engine != "sharded" || out.Shards < 1 {
		t.Fatalf("engine = %q shards = %d", out.Engine, out.Shards)
	}
	// The listing reads membership a partition at a time (ListParts).
	lists := int64(0)
	for _, op := range out.Ops {
		if op.Op == "listPart" {
			lists = op.Count
		}
	}
	if lists == 0 {
		t.Fatalf("no list ops counted: %s", body)
	}
	if out.Collection == nil || out.Collection.Members != 20 {
		t.Fatalf("collection stats = %+v", out.Collection)
	}

	// Unknown collection → 404; bare /stats (no coll) → 200.
	if resp, _ := w.get(t, "/stats?coll=nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing coll status = %d", resp.StatusCode)
	}
	if resp, _ := w.get(t, "/stats"); resp.StatusCode != http.StatusOK {
		t.Fatalf("bare stats status = %d", resp.StatusCode)
	}
}

// TestStatsTransports registers a TCP transport stats source and checks
// /stats surfaces its connection churn and per-method RTT rows.
func TestStatsTransports(t *testing.T) {
	c, err := cluster.New(cluster.Config{StorageNodes: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	gw := New(c.Client, cluster.DirNode, c.LockNode)
	gw.AddTransport("archive", func() tcprpc.TransportStats {
		return tcprpc.TransportStats{
			Addr:          "127.0.0.1:9999",
			Codec:         tcprpc.CodecWirebin,
			Dials:         3,
			Reconnects:    2,
			MaxInFlight:   8,
			Calls:         120,
			Failures:      1,
			BytesSent:     2048,
			BytesReceived: 8192,
			Methods: []tcprpc.MethodStats{
				{Method: "repo.GetBatch", Count: 60, Mean: 2e6, P50: 2e6, P99: 4e6, BytesSent: 2000, BytesReceived: 8000},
			},
		}
	})
	srv := httptest.NewServer(gw.Handler())
	t.Cleanup(srv.Close)

	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Transports []struct {
			Name          string `json:"name"`
			Addr          string `json:"addr"`
			Codec         string `json:"codec"`
			Reconnects    int64  `json:"reconnects"`
			MaxInFlight   int64  `json:"maxInFlight"`
			BytesSent     int64  `json:"bytesSent"`
			BytesReceived int64  `json:"bytesReceived"`
			Methods       []struct {
				Method        string  `json:"method"`
				Count         int64   `json:"count"`
				P99Ms         float64 `json:"p99Ms"`
				BytesSent     int64   `json:"bytesSent"`
				BytesReceived int64   `json:"bytesReceived"`
			} `json:"methods"`
		} `json:"transports"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Transports) != 1 {
		t.Fatalf("transports = %s", body)
	}
	tr := out.Transports[0]
	if tr.Name != "archive" || tr.Reconnects != 2 || tr.MaxInFlight != 8 {
		t.Fatalf("transport block = %+v", tr)
	}
	if tr.Codec != tcprpc.CodecWirebin || tr.BytesSent != 2048 || tr.BytesReceived != 8192 {
		t.Fatalf("codec/bytes block = %+v", tr)
	}
	if len(tr.Methods) != 1 || tr.Methods[0].Method != "repo.GetBatch" || tr.Methods[0].P99Ms != 4 {
		t.Fatalf("method rows = %+v", tr.Methods)
	}
	if m := tr.Methods[0]; m.BytesSent != 2000 || m.BytesReceived != 8000 {
		t.Fatalf("method byte attribution = %+v", m)
	}
}
