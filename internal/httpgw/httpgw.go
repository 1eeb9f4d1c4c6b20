// Package httpgw exposes weak-set queries over HTTP — the wide-area
// information-system face of the library (§1: "weak sets are more
// generally abstractions useful for … wide-area information systems and
// their applications, e.g., the World Wide Web"). A gateway node serves:
//
//	GET /semantics                     the design space + §4 taxonomy
//	GET /specs/{figure}                the formal spec text
//	GET /collections/{coll}            membership listing (one round trip)
//	GET /query?coll=&q=&sem=           streamed NDJSON query results
//	GET /stats[?coll=]                 storage-engine + TCP transport counters
//	GET /metrics                       Prometheus text-format exposition
//	GET /trace[?id=]                   sampled traces: listing, or one trace's spans
//
// Query results stream one JSON object per element as it is yielded — the
// HTTP rendition of the paper's incremental retrieval — and end with a
// summary record carrying the iterator's outcome (`returns`, `fails`,
// `blocked`).
package httpgw

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"weaksets/internal/core"
	"weaksets/internal/netsim"
	"weaksets/internal/obs"
	"weaksets/internal/query"
	"weaksets/internal/repo"
	"weaksets/internal/spec"
	"weaksets/internal/store"
	"weaksets/internal/tcprpc"
)

// Gateway serves the HTTP surface for one repository client.
type Gateway struct {
	client   *repo.Client
	dir      netsim.NodeID
	lockNode netsim.NodeID
	mux      *http.ServeMux
	// QueryTimeout bounds each query's virtual patience via context.
	// Defaults to 30s wall.
	QueryTimeout time.Duration

	tmu        sync.Mutex
	transports []transportSource

	// cache is the element cache serving the gateway's queries, set by
	// UseCache.
	cache *repo.Cache

	// Observability wiring, set by UseObs / UseJournal.
	weakness *obs.Registry
	tracers  []*obs.Tracer
	journal  *obs.Journal

	// Per-collection replica sets for read routing, set by UseReplicas.
	rmu      sync.Mutex
	replicas map[string]core.ReplicaConfig

	// Cluster scatter-gather wiring, set by AddPeer.
	pmu   sync.Mutex
	peers []clusterPeer
	// PeerTimeout bounds each peer's /stats fetch in /cluster.
	// Defaults to 2s.
	PeerTimeout time.Duration
}

// transportSource is one registered TCP transport feeding /stats.
type transportSource struct {
	name  string
	stats func() tcprpc.TransportStats
}

// AddTransport registers a TCP transport stats source (typically a
// tcprpc Gateway's Stats method) under the given name; /stats then
// reports its connection churn, in-flight gauge, and per-method RTTs
// alongside the storage-engine counters.
func (g *Gateway) AddTransport(name string, stats func() tcprpc.TransportStats) {
	g.tmu.Lock()
	defer g.tmu.Unlock()
	g.transports = append(g.transports, transportSource{name: name, stats: stats})
}

// UseCache wires an element cache into the gateway: /query runs read
// through it (snapshot queries serve warm entries with no RPC,
// current-state queries revalidate by version), and /stats and /metrics
// report its counters. Call it before serving traffic.
func (g *Gateway) UseCache(cache *repo.Cache) {
	g.cache = cache
	g.client.UseCache(cache)
}

// UseReplicas registers a collection's replica set (home first, as
// returned by cluster.Replicate) so /query runs on that collection route
// reads to the closest live replica, scatter partition listings across
// the set, and report replica staleness through the weakness registry.
// Call once per replicated collection, before serving.
func (g *Gateway) UseReplicas(coll string, nodes []netsim.NodeID) {
	g.rmu.Lock()
	defer g.rmu.Unlock()
	if g.replicas == nil {
		g.replicas = make(map[string]core.ReplicaConfig)
	}
	g.replicas[coll] = core.ReplicaConfig{Nodes: nodes}
}

// replicaConfig returns the registered replica set for a collection; the
// zero config (no routing) when none was registered.
func (g *Gateway) replicaConfig(coll string) core.ReplicaConfig {
	g.rmu.Lock()
	defer g.rmu.Unlock()
	return g.replicas[coll]
}

// New builds a gateway reading through client, with collections hosted on
// dir and the lock service on lockNode.
func New(client *repo.Client, dir, lockNode netsim.NodeID) *Gateway {
	g := &Gateway{
		client:       client,
		dir:          dir,
		lockNode:     lockNode,
		mux:          http.NewServeMux(),
		QueryTimeout: 30 * time.Second,
	}
	g.mux.HandleFunc("GET /semantics", g.handleSemantics)
	g.mux.HandleFunc("GET /specs/{figure}", g.handleSpec)
	g.mux.HandleFunc("GET /collections/{coll}", g.handleCollection)
	g.mux.HandleFunc("GET /query", g.handleQuery)
	g.mux.HandleFunc("GET /stats", g.handleStats)
	return g
}

// Handler returns the gateway's HTTP handler.
func (g *Gateway) Handler() http.Handler { return g.mux }

// jsonError writes a JSON error body with the given status.
func jsonError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// semanticsInfo is one design-space point in the /semantics listing.
type semanticsInfo struct {
	Name        string `json:"name"`
	Figure      string `json:"figure"`
	Constraint  string `json:"constraint"`
	Consistency string `json:"consistency"`
	Currency    string `json:"currency"`
	Snapshot    bool   `json:"usesSnapshot"`
}

func (g *Gateway) handleSemantics(w http.ResponseWriter, _ *http.Request) {
	out := make([]semanticsInfo, 0, len(core.AllSemantics()))
	for _, sem := range core.AllSemantics() {
		cons, curr := spec.Taxonomy(sem.Figure())
		out = append(out, semanticsInfo{
			Name:        sem.String(),
			Figure:      sem.Figure().String(),
			Constraint:  sem.Constraint().String(),
			Consistency: cons.String(),
			Currency:    curr.String(),
			Snapshot:    sem.UsesSnapshot(),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

func (g *Gateway) handleSpec(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("figure")
	for _, fig := range spec.Figures() {
		if fig.String() == name || strings.EqualFold(name, strings.SplitN(fig.String(), "-", 2)[0]) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(w, spec.Render(fig))
			return
		}
	}
	jsonError(w, http.StatusNotFound, "unknown figure %q", name)
}

// memberInfo is one member in a collection listing.
type memberInfo struct {
	ID        string `json:"id"`
	Node      string `json:"node"`
	Reachable bool   `json:"reachable"`
}

func (g *Gateway) handleCollection(w http.ResponseWriter, r *http.Request) {
	coll := r.PathValue("coll")
	members, version, err := g.client.List(r.Context(), g.dir, coll)
	if err != nil {
		status := http.StatusBadGateway
		if errors.Is(err, repo.ErrNoCollection) {
			status = http.StatusNotFound
		}
		jsonError(w, status, "list %q: %v", coll, err)
		return
	}
	out := struct {
		Collection string       `json:"collection"`
		Version    uint64       `json:"version"`
		Members    []memberInfo `json:"members"`
	}{Collection: coll, Version: version, Members: make([]memberInfo, 0, len(members))}
	for _, ref := range members {
		out.Members = append(out.Members, memberInfo{
			ID:        string(ref.ID),
			Node:      string(ref.Node),
			Reachable: g.client.Reachable(ref),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

// elementRecord is one streamed query result.
type elementRecord struct {
	Kind  string            `json:"kind"` // "element"
	ID    string            `json:"id"`
	Node  string            `json:"node"`
	Attrs map[string]string `json:"attrs,omitempty"`
	Bytes int               `json:"bytes"`
	Stale bool              `json:"stale,omitempty"`
}

// summaryRecord terminates a query stream.
type summaryRecord struct {
	Kind     string `json:"kind"` // "summary"
	Outcome  string `json:"outcome"`
	Matches  int    `json:"matches"`
	Examined int    `json:"examined"`
	Error    string `json:"error,omitempty"`
}

// opInfo is one engine operation in the /stats body; latencies are
// reported in milliseconds for dashboard friendliness.
type opInfo struct {
	Op     string  `json:"op"`
	Count  int64   `json:"count"`
	Errors int64   `json:"errors"`
	MeanMs float64 `json:"meanMs"`
	P50Ms  float64 `json:"p50Ms"`
	P99Ms  float64 `json:"p99Ms"`
}

// transportMethodInfo is one method row in a /stats transport block;
// round-trip latencies are reported in milliseconds.
type transportMethodInfo struct {
	Method        string  `json:"method"`
	Count         int64   `json:"count"`
	Errors        int64   `json:"errors"`
	MeanMs        float64 `json:"meanMs"`
	P50Ms         float64 `json:"p50Ms"`
	P99Ms         float64 `json:"p99Ms"`
	BytesSent     int64   `json:"bytesSent"`
	BytesReceived int64   `json:"bytesReceived"`
}

// transportInfo is one registered TCP transport in the /stats body.
type transportInfo struct {
	Name          string                `json:"name"`
	Addr          string                `json:"addr"`
	Codec         string                `json:"codec,omitempty"`
	Dials         int64                 `json:"dials"`
	Reconnects    int64                 `json:"reconnects"`
	InFlight      int64                 `json:"inFlight"`
	MaxInFlight   int64                 `json:"maxInFlight"`
	Calls         int64                 `json:"calls"`
	Failures      int64                 `json:"failures"`
	BytesSent     int64                 `json:"bytesSent"`
	BytesReceived int64                 `json:"bytesReceived"`
	Methods       []transportMethodInfo `json:"methods,omitempty"`
}

// cacheInfo is the element-cache block of /stats. Lease reports the
// client's push-invalidation lease state when one is attached — grants,
// piggybacked renewals, pushed invalidations, and stream breaks — since
// leases are what let the cache answer without revalidating.
type cacheInfo struct {
	Entries int              `json:"entries"`
	Stats   repo.CacheStats  `json:"stats"`
	Lease   *repo.LeaseStats `json:"lease,omitempty"`
}

// collStatsInfo is the optional per-collection block of /stats.
type collStatsInfo struct {
	Collection string `json:"collection"`
	Members    int    `json:"members"`
	Ghosts     int    `json:"ghosts"`
	Pins       int    `json:"pins"`
	Tokens     int    `json:"tokens"`
	Version    uint64 `json:"version"`
	Partitions int    `json:"partitions"`
}

// weaknessStatsInfo is one collection's weakness block in /stats: the
// lifetime aggregate plus the rolling windowed series (with reservoir
// samples, so /cluster can merge per-node series into one view).
type weaknessStatsInfo struct {
	Collection string                        `json:"collection"`
	Aggregate  obs.CollectionWeakness        `json:"aggregate"`
	Windows    map[string]obs.WindowSnapshot `json:"windows"`
}

// weaknessStats assembles the per-collection weakness block from the
// gateway's registry (nil when no registry is wired).
func (g *Gateway) weaknessStats() []weaknessStatsInfo {
	if g.weakness == nil {
		return nil
	}
	aggs := g.weakness.Snapshot()
	byColl := make(map[string]obs.CollectionWeakness, len(aggs))
	for _, cw := range aggs {
		byColl[cw.Collection] = cw
	}
	wins := g.weakness.Windows()
	out := make([]weaknessStatsInfo, 0, len(wins))
	for _, cw := range wins {
		out = append(out, weaknessStatsInfo{
			Collection: cw.Collection,
			Aggregate:  byColl[cw.Collection],
			Windows:    cw.Metrics,
		})
	}
	return out
}

// statsBody is the GET /stats response document. /cluster decodes the
// node and weakness fields of peers' bodies to build its merged view.
type statsBody struct {
	Node        string              `json:"node"`
	Engine      string              `json:"engine"`
	Shards      int                 `json:"shards"`
	Objects     int                 `json:"objects"`
	Collections int                 `json:"collections"`
	Batch       store.BatchStats    `json:"batch"`
	Ops         []opInfo            `json:"ops"`
	Cache       *cacheInfo          `json:"cache,omitempty"`
	Transports  []transportInfo     `json:"transports,omitempty"`
	Weakness    []weaknessStatsInfo `json:"weakness,omitempty"`
	Events      *obs.JournalStats   `json:"events,omitempty"`
	Collection  *collStatsInfo      `json:"collectionStats,omitempty"`
}

// handleStats reports the directory node's storage-engine counters —
// per-operation counts and latency quantiles — plus the per-collection
// weakness block (aggregates + rolling windows) and, with ?coll=, one
// collection's membership counters.
func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	es, err := g.client.StoreStats(r.Context(), g.dir)
	if err != nil {
		jsonError(w, http.StatusBadGateway, "store stats: %v", err)
		return
	}
	out := statsBody{
		Node:        string(g.dir),
		Engine:      es.Engine,
		Shards:      es.Shards,
		Objects:     es.Objects,
		Collections: es.Collections,
		Batch:       es.Batch,
		Ops:         make([]opInfo, 0, len(es.Ops)),
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for _, op := range es.Ops {
		out.Ops = append(out.Ops, opInfo{
			Op:     op.Op,
			Count:  op.Count,
			Errors: op.Errors,
			MeanMs: ms(op.Mean),
			P50Ms:  ms(op.P50),
			P99Ms:  ms(op.P99),
		})
	}
	if g.cache != nil {
		out.Cache = &cacheInfo{Entries: g.cache.Len(), Stats: g.cache.Stats()}
	}
	if ls := g.client.Leases(); ls != nil {
		// Leases can be attached without a cache (listing revalidation
		// alone benefits); give them a cache block to live in either way.
		if out.Cache == nil {
			out.Cache = &cacheInfo{}
		}
		st := ls.Stats()
		out.Cache.Lease = &st
	}
	g.tmu.Lock()
	sources := append([]transportSource(nil), g.transports...)
	g.tmu.Unlock()
	for _, src := range sources {
		ts := src.stats()
		ti := transportInfo{
			Name:          src.name,
			Addr:          ts.Addr,
			Codec:         ts.Codec,
			Dials:         ts.Dials,
			Reconnects:    ts.Reconnects,
			InFlight:      ts.InFlight,
			MaxInFlight:   ts.MaxInFlight,
			Calls:         ts.Calls,
			Failures:      ts.Failures,
			BytesSent:     ts.BytesSent,
			BytesReceived: ts.BytesReceived,
		}
		for _, m := range ts.Methods {
			ti.Methods = append(ti.Methods, transportMethodInfo{
				Method:        m.Method,
				Count:         m.Count,
				Errors:        m.Errors,
				MeanMs:        ms(m.Mean),
				P50Ms:         ms(m.P50),
				P99Ms:         ms(m.P99),
				BytesSent:     m.BytesSent,
				BytesReceived: m.BytesReceived,
			})
		}
		out.Transports = append(out.Transports, ti)
	}
	out.Weakness = g.weaknessStats()
	if g.journal != nil {
		st := g.journal.Stats()
		out.Events = &st
	}
	if coll := r.URL.Query().Get("coll"); coll != "" {
		cs, err := g.client.Stats(r.Context(), g.dir, coll)
		if err != nil {
			status := http.StatusBadGateway
			if errors.Is(err, repo.ErrNoCollection) {
				status = http.StatusNotFound
			}
			jsonError(w, status, "stats %q: %v", coll, err)
			return
		}
		out.Collection = &collStatsInfo{
			Collection: coll,
			Members:    cs.Members,
			Ghosts:     cs.Ghosts,
			Pins:       cs.Pins,
			Tokens:     cs.Tokens,
			Version:    cs.Version,
			Partitions: cs.Partitions,
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

// Ceilings on the /query tuning parameters. Both size allocations — batch
// the prefetch window (Batch × Inflight × 4 refs), width the dynamic
// set's worker semaphore and result channel — so a value from the URL is
// bounded before it reaches them.
const (
	maxQueryBatch = 4096
	maxQueryWidth = 256
)

// tuningParam parses a /query tuning parameter: def when absent or not a
// positive integer, an error above max.
func tuningParam(raw string, def, max int) (int, error) {
	// Atoi clamps an overflowing value to MaxInt, so that is over max too.
	v, err := strconv.Atoi(raw)
	if v > max {
		return 0, fmt.Errorf("%s exceeds the limit of %d", raw, max)
	}
	if err != nil || v <= 0 {
		return def, nil
	}
	return v, nil
}

func (g *Gateway) handleQuery(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	coll := q.Get("coll")
	if coll == "" {
		jsonError(w, http.StatusBadRequest, "missing coll parameter")
		return
	}
	predicate := q.Get("q")
	if predicate == "" {
		predicate = `true_ == "" || true_ != ""` // match everything
	}
	qry, err := query.New(g.client, g.dir, coll, predicate)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "bad predicate: %v", err)
		return
	}

	// Queries the gateway runs are themselves observable: they trace
	// through the gateway's own tracer and feed the weakness registry.
	opts := query.Options{}
	// batch tunes the fetch pipeline: ids per batch RPC; 1 is one element
	// per round trip, 0 (or absent) keeps the default.
	batch, err := tuningParam(q.Get("batch"), 0, maxQueryBatch)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "batch: %v", err)
		return
	}
	semName := q.Get("sem")
	if semName == "" {
		semName = "dynamic"
	}
	if semName == "dynamic" {
		opts.Dynamic = true
		width, err := tuningParam(q.Get("width"), 8, maxQueryWidth)
		if err != nil {
			jsonError(w, http.StatusBadRequest, "width: %v", err)
			return
		}
		opts.DynOptions = core.DynOptions{Width: width, Batch: batch, Tracer: g.localTracer(), Weakness: g.weakness}
	} else {
		sem, ok := core.SemanticsByName(semName)
		if !ok {
			jsonError(w, http.StatusBadRequest, "unknown semantics %q", semName)
			return
		}
		opts.Semantics = sem
		fetch := core.FetchOptions{Batch: batch}
		if batch == 1 {
			// One id per round trip means one round trip at a time too.
			fetch.Inflight = 1
		}
		opts.SetOptions = core.Options{
			LockServer: g.lockNode,
			MaxBlock:   10 * time.Second,
			Fetch:      fetch,
			Replicas:   g.replicaConfig(coll),
			Tracer:     g.localTracer(),
			Weakness:   g.weakness,
		}
	}

	ctx, cancel := context.WithTimeout(r.Context(), g.QueryTimeout)
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	matches := 0
	examined, runErr := qry.Stream(ctx, opts, func(res query.Result) bool {
		matches++
		e := res.Element
		_ = enc.Encode(elementRecord{
			Kind:  "element",
			ID:    string(e.Ref.ID),
			Node:  string(e.Ref.Node),
			Attrs: e.Attrs,
			Bytes: len(e.Data),
			Stale: e.Stale,
		})
		if flusher != nil {
			flusher.Flush()
		}
		return true
	})

	summary := summaryRecord{Kind: "summary", Matches: matches, Examined: examined}
	switch {
	case runErr == nil:
		summary.Outcome = "returns"
	case errors.Is(runErr, core.ErrFailure):
		summary.Outcome = "fails"
		summary.Error = runErr.Error()
	case errors.Is(runErr, core.ErrBlocked):
		summary.Outcome = "blocked"
		summary.Error = runErr.Error()
	default:
		summary.Outcome = "error"
		summary.Error = runErr.Error()
	}
	_ = enc.Encode(summary)
}
