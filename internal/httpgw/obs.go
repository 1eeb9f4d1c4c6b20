package httpgw

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"time"

	"weaksets/internal/obs"
)

// This file is the gateway's observability surface:
//
//	GET /metrics     Prometheus text exposition (weakness counters,
//	                 storage-engine ops, TCP transports, tracer health)
//	GET /trace       recent sampled traces (root spans)
//	GET /trace?id=   one trace's spans, all registered tracers merged
//	GET /debug/pprof (optional, via EnablePprof)

// UseObs mounts /metrics, /trace, and /cluster. reg supplies the
// per-collection weakness aggregates and rolling windows (nil is
// allowed: the weakness sections are empty); tracers feed /trace and
// the tracer self-metrics — register every process's tracer the gateway
// can see so cross-process traces render whole. Call once, before
// serving.
func (g *Gateway) UseObs(reg *obs.Registry, tracers ...*obs.Tracer) {
	g.weakness = reg
	g.tracers = tracers
	g.mux.HandleFunc("GET /metrics", g.handleMetrics)
	g.mux.HandleFunc("GET /trace", g.handleTrace)
	g.mux.HandleFunc("GET /cluster", g.handleCluster)
}

// UseJournal mounts GET /events over the given bounded event journal
// and exposes its counters in /metrics and /stats. The same journal
// should be wired into the emitting layers (repo.Server.UseJournal,
// LeaseState.UseJournal, tcprpc.Client.Journal, Registry.UseJournal) so
// every coordination-plane event lands in one queryable place.
func (g *Gateway) UseJournal(j *obs.Journal) {
	g.journal = j
	if g.weakness != nil {
		g.weakness.UseJournal(j)
	}
	g.mux.HandleFunc("GET /events", g.handleEvents)
}

// handleEvents serves the journal: ?type= and ?coll= filter, ?since=
// resumes after a sequence number, ?limit= caps to the most recent N.
func (g *Gateway) handleEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := obs.EventFilter{
		Type:       q.Get("type"),
		Collection: q.Get("coll"),
	}
	if s := q.Get("since"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			jsonError(w, http.StatusBadRequest, "bad since %q", s)
			return
		}
		f.SinceSeq = v
	}
	if s := q.Get("limit"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			jsonError(w, http.StatusBadRequest, "bad limit %q", s)
			return
		}
		f.Limit = v
	}
	events := g.journal.Events(f)
	if events == nil {
		events = []obs.Event{}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		Events []obs.Event      `json:"events"`
		Stats  obs.JournalStats `json:"stats"`
	}{Events: events, Stats: g.journal.Stats()})
}

// localTracer is the gateway process's own tracer — the first one
// registered with UseObs — used to trace queries the gateway itself runs.
func (g *Gateway) localTracer() *obs.Tracer {
	if len(g.tracers) == 0 {
		return nil
	}
	return g.tracers[0]
}

// EnablePprof mounts the net/http/pprof handlers under /debug/pprof/.
// Off by default: profiling endpoints are a debugging surface, not a
// production one.
func (g *Gateway) EnablePprof() {
	g.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	g.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	g.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	g.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	g.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// handleMetrics serves Prometheus text format 0.0.4. Every family is
// prefixed weaksets_; counters carry _total per convention.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := obs.NewPromWriter(w)

	coll := func(c string) obs.Label { return obs.Label{Key: "collection", Value: c} }
	for _, cw := range g.weakness.Snapshot() {
		l := coll(cw.Collection)
		p.Counter("weaksets_weakness_runs_total", "Completed elements runs.", float64(cw.Runs), l)
		p.Counter("weaksets_weakness_invocations_total", "Kernel invocations (fresh pre-states observed).", float64(cw.Invocations), l)
		p.Counter("weaksets_weakness_yielded_total", "Elements delivered to callers.", float64(cw.Yielded), l)
		p.Counter("weaksets_weakness_unreachable_skipped_total", "Members existent but unobservable when runs terminated.", float64(cw.UnreachableSkipped), l)
		p.Counter("weaksets_weakness_ghosts_served_total", "Stale (ghost) copies yielded.", float64(cw.GhostsServed), l)
		p.Counter("weaksets_weakness_duplicates_suppressed_total", "Re-listed members suppressed by the no-duplicates obligation.", float64(cw.DuplicatesSuppressed), l)
		p.Counter("weaksets_weakness_epoch_retries_total", "Prefetched results discarded for read-your-writes.", float64(cw.EpochRetries), l)
		p.Counter("weaksets_weakness_cache_hits_total", "Elements served straight from the element cache, no RPC.", float64(cw.CacheHits), l)
		p.Counter("weaksets_weakness_cache_validated_hits_total", "Elements served from the cache after a NotModified validation.", float64(cw.CacheValidatedHits), l)
		p.Counter("weaksets_weakness_lease_served_total", "Runs whose listing was served under a held lease, no revalidation RPC.", float64(cw.LeaseServed), l)
		p.Gauge("weaksets_weakness_max_lease_age_seconds", "Oldest lease certification a served listing relied on.", obs.Seconds(cw.MaxLeaseAge), l)
		p.Counter("weaksets_replica_served_total", "Runs (or batch fetches) served by a non-home replica.", float64(cw.ReplicaServed), l)
		p.Counter("weaksets_replica_skew_total", "Listing versions the serving replicas lagged the freshest live replica by.", float64(cw.ReplicaSkew), l)
		p.Gauge("weaksets_replica_max_ghost_age_seconds", "Oldest replica staleness (time since last anti-entropy push) a run was served under.", obs.Seconds(cw.MaxGhostAge), l)
		p.Counter("weaksets_weakness_listing_skew_total", "Listing-version changes observed mid-run.", float64(cw.ListingSkew), l)
		p.Counter("weaksets_weakness_partition_skew_total", "Listing partitions snapshotted after a mid-stream write.", float64(cw.PartitionSkew), l)
		p.Counter("weaksets_weakness_fetch_failures_total", "Transport fetch/list failures survived.", float64(cw.FetchFailures), l)
		p.Counter("weaksets_weakness_blocked_seconds_total", "Cumulative virtual time blocked awaiting repair.", obs.Seconds(cw.Blocked), l)
		p.Gauge("weaksets_weakness_max_snapshot_age_seconds", "Oldest governing snapshot served, per collection.", obs.Seconds(cw.MaxSnapshotAge), l)
		for outcome, n := range cw.Outcomes {
			p.Counter("weaksets_weakness_outcome_total", "Run terminal states by outcome.", float64(n), l, obs.Label{Key: "outcome", Value: outcome})
		}
	}

	// Rolling windowed weakness series: quantiles over the sliding
	// window, with the p99 sample carrying the exemplar trace of the
	// worst traced run in the window — /trace?id= explains the outlier.
	const (
		winSecondsHelp = "Rolling-window weakness durations (run latency, snapshot age, lease age) by quantile."
		winEventsHelp  = "Rolling-window per-run weakness counts (skew, ghosts, duplicates, skips) by quantile."
		winRunsHelp    = "Samples in the rolling weakness window."
	)
	for _, cwin := range g.weakness.Windows() {
		l := coll(cwin.Collection)
		emit := func(family, help string, metric string, snap obs.WindowSnapshot, toV func(time.Duration) float64) {
			ml := obs.Label{Key: "metric", Value: metric}
			p.Family(family, "gauge", help)
			p.Sample(family, toV(snap.P50), l, ml, obs.Label{Key: "stat", Value: "p50"})
			p.Sample(family, toV(snap.P95), l, ml, obs.Label{Key: "stat", Value: "p95"})
			var exTrace obs.TraceID
			exValue := 0.0
			if snap.Exemplar != nil {
				exTrace = snap.Exemplar.Trace
				exValue = toV(snap.Exemplar.Value)
			}
			p.SampleExemplar(family, toV(snap.P99), exTrace, exValue, l, ml, obs.Label{Key: "stat", Value: "p99"})
			p.Sample(family, toV(snap.Max), l, ml, obs.Label{Key: "stat", Value: "max"})
			p.Gauge("weaksets_weakness_window_runs", winRunsHelp, float64(snap.Count), l, ml)
		}
		for _, metric := range obs.WindowSecondsMetrics {
			if snap, ok := cwin.Metrics[metric]; ok {
				emit("weaksets_weakness_window_seconds", winSecondsHelp, metric, snap, obs.Seconds)
			}
		}
		for _, metric := range obs.WindowEventMetrics {
			if snap, ok := cwin.Metrics[metric]; ok {
				emit("weaksets_weakness_window_events", winEventsHelp, metric, snap, func(d time.Duration) float64 { return float64(d) })
			}
		}
	}

	if g.journal != nil {
		st := g.journal.Stats()
		types := make([]string, 0, len(st.ByType))
		for typ := range st.ByType {
			types = append(types, typ)
		}
		sort.Strings(types)
		for _, typ := range types {
			p.Counter("weaksets_events_total", "Journal events recorded, by type.", float64(st.ByType[typ]), obs.Label{Key: "type", Value: typ})
		}
		p.Counter("weaksets_events_dropped_total", "Journal events overwritten by the bounded ring.", float64(st.Dropped))
		p.Gauge("weaksets_events_retained", "Journal events currently retained.", float64(st.Retained))
		p.Gauge("weaksets_events_capacity", "Journal ring capacity.", float64(st.Capacity))
	}

	bs := g.client.Bus().Stats()
	p.Counter("weaksets_bus_calls_total", "Simulated-bus RPC calls issued by this process.", float64(bs.Calls))
	p.Counter("weaksets_bus_failures_total", "Simulated-bus RPC transport failures.", float64(bs.Failures))

	node := obs.Label{Key: "node", Value: string(g.dir)}
	if es, err := g.client.StoreStats(r.Context(), g.dir); err != nil {
		p.Gauge("weaksets_store_up", "Whether the directory store answered the stats probe.", 0, node)
	} else {
		p.Gauge("weaksets_store_up", "Whether the directory store answered the stats probe.", 1, node)
		p.Gauge("weaksets_store_objects", "Objects resident in the storage engine.", float64(es.Objects), node)
		p.Gauge("weaksets_store_collections", "Collections resident in the storage engine.", float64(es.Collections), node)
		p.Gauge("weaksets_store_shards", "Storage engine shard count.", float64(es.Shards), node)
		p.Counter("weaksets_store_batch_total", "Engine batch-get round trips.", float64(es.Batch.Batches), node)
		p.Counter("weaksets_store_batched_gets_total", "Gets served through engine batches.", float64(es.Batch.BatchedGets), node)
		p.Counter("weaksets_store_batch_rtt_saved_total", "Round trips avoided by batching.", float64(es.Batch.RTTSaved), node)
		p.Counter("weaksets_store_batch_not_modified_total", "Batch-get entries answered NotModified (version matched).", float64(es.Batch.NotModified), node)
		p.Counter("weaksets_store_batch_bytes_shipped_total", "Object payload bytes shipped by batch gets.", float64(es.Batch.BytesShipped), node)
		p.Counter("weaksets_store_batch_bytes_saved_total", "Object payload bytes elided by NotModified answers.", float64(es.Batch.BytesSaved), node)
		for _, op := range es.Ops {
			l := []obs.Label{node, {Key: "op", Value: op.Op}}
			p.Counter("weaksets_store_op_total", "Storage-engine operations by op.", float64(op.Count), l...)
			p.Counter("weaksets_store_op_errors_total", "Storage-engine operation errors by op.", float64(op.Errors), l...)
			p.Gauge("weaksets_store_op_latency_seconds", "Storage-engine op latency (mean and quantiles).",
				obs.Seconds(op.Mean), append(l, obs.Label{Key: "stat", Value: "mean"})...)
			p.Gauge("weaksets_store_op_latency_seconds", "Storage-engine op latency (mean and quantiles).",
				obs.Seconds(op.P50), append(l, obs.Label{Key: "stat", Value: "p50"})...)
			p.Gauge("weaksets_store_op_latency_seconds", "Storage-engine op latency (mean and quantiles).",
				obs.Seconds(op.P99), append(l, obs.Label{Key: "stat", Value: "p99"})...)
		}
	}

	g.tmu.Lock()
	sources := append([]transportSource(nil), g.transports...)
	g.tmu.Unlock()
	for _, src := range sources {
		ts := src.stats()
		l := obs.Label{Key: "transport", Value: src.name}
		p.Counter("weaksets_transport_dials_total", "TCP transport dials.", float64(ts.Dials), l)
		p.Counter("weaksets_transport_reconnects_total", "TCP transport reconnects.", float64(ts.Reconnects), l)
		p.Gauge("weaksets_transport_inflight", "Calls currently multiplexed in flight.", float64(ts.InFlight), l)
		p.Gauge("weaksets_transport_inflight_max", "High-water mark of multiplexed in-flight calls.", float64(ts.MaxInFlight), l)
		p.Counter("weaksets_transport_calls_total", "TCP transport calls.", float64(ts.Calls), l)
		p.Counter("weaksets_transport_failures_total", "TCP transport call failures.", float64(ts.Failures), l)
		if ts.Codec != "" {
			p.Gauge("weaksets_transport_codec", "Negotiated wire codec (1 for the active codec).",
				1, l, obs.Label{Key: "codec", Value: ts.Codec})
		}
		p.Counter("weaksets_transport_bytes_sent_total", "Wire bytes sent over the TCP transport (all methods, connection preambles included).", float64(ts.BytesSent), l)
		p.Counter("weaksets_transport_bytes_received_total", "Wire bytes received over the TCP transport (all methods).", float64(ts.BytesReceived), l)
		for _, m := range ts.Methods {
			ml := []obs.Label{l, {Key: "method", Value: m.Method}}
			p.Counter("weaksets_transport_method_calls_total", "TCP transport calls by method.", float64(m.Count), ml...)
			p.Counter("weaksets_transport_method_errors_total", "TCP transport call errors by method.", float64(m.Errors), ml...)
			p.Counter("weaksets_rpc_bytes_sent_total", "Wire bytes sent, by transport and method.", float64(m.BytesSent), ml...)
			p.Counter("weaksets_rpc_bytes_received_total", "Wire bytes received, by transport and method.", float64(m.BytesReceived), ml...)
			p.Gauge("weaksets_transport_method_rtt_seconds", "TCP transport round-trip time (mean and quantiles).",
				obs.Seconds(m.Mean), append(ml, obs.Label{Key: "stat", Value: "mean"})...)
			p.Gauge("weaksets_transport_method_rtt_seconds", "TCP transport round-trip time (mean and quantiles).",
				obs.Seconds(m.P50), append(ml, obs.Label{Key: "stat", Value: "p50"})...)
			p.Gauge("weaksets_transport_method_rtt_seconds", "TCP transport round-trip time (mean and quantiles).",
				obs.Seconds(m.P99), append(ml, obs.Label{Key: "stat", Value: "p99"})...)
		}
	}

	if g.cache != nil {
		cs := g.cache.Stats()
		p.Gauge("weaksets_cache_entries", "Objects resident in the element cache.", float64(g.cache.Len()))
		p.Counter("weaksets_cache_stores_total", "New entries admitted to the element cache.", float64(cs.Stores))
		p.Counter("weaksets_cache_hits_total", "Cache serves with no RPC (fresh under the governing listing).", float64(cs.Hits))
		p.Counter("weaksets_cache_validated_hits_total", "Cache serves confirmed by a NotModified validation.", float64(cs.ValidatedHits))
		p.Counter("weaksets_cache_negative_hits_total", "Absences served from negative cache entries.", float64(cs.NegativeHits))
		p.Counter("weaksets_cache_bytes_saved_total", "Object payload bytes not re-fetched thanks to the cache.", float64(cs.BytesSaved))
		p.Counter("weaksets_cache_coalesces_total", "Callers that joined another caller's in-flight fetch.", float64(cs.Coalesces))
		p.Counter("weaksets_cache_stale_serves_total", "Stale cached copies served because the owner was unreachable.", float64(cs.StaleServes))
		p.Counter("weaksets_cache_misses_total", "Lookups the cache could not answer.", float64(cs.Misses))
		p.Counter("weaksets_cache_evictions_total", "Entries evicted by the capacity bound (CLOCK).", float64(cs.Evictions))
		p.Counter("weaksets_cache_drops_total", "Entries dropped by local deletes.", float64(cs.Drops))
	}

	if ls := g.client.Leases(); ls != nil {
		st := ls.Stats()
		active := 0.0
		if st.Active {
			active = 1
		}
		p.Gauge("weaksets_lease_active", "Whether a live Watch stream currently backs the client's leases.", active)
		p.Gauge("weaksets_lease_held", "Collections currently covered by an unexpired lease.", float64(st.Held))
		p.Counter("weaksets_lease_grants_total", "Lease grants obtained over the Watch stream.", float64(st.Grants))
		p.Counter("weaksets_lease_renewals_total", "Lease renewals, explicit and piggybacked on RPC replies.", float64(st.Renewals))
		p.Counter("weaksets_lease_invalidations_total", "Invalidations pushed by the directory and applied.", float64(st.Invalidations))
		p.Counter("weaksets_lease_breaks_total", "Leases dropped on stream loss or shutdown.", float64(st.Breaks))
	}

	for _, t := range g.tracers {
		st := t.Stats()
		l := obs.Label{Key: "process", Value: st.Process}
		p.Counter("weaksets_tracer_spans_started_total", "Spans started.", float64(st.Started), l)
		p.Counter("weaksets_tracer_spans_finished_total", "Spans completed into the ring buffer.", float64(st.Finished), l)
		p.Counter("weaksets_tracer_spans_dropped_total", "Completed spans evicted from the ring buffer.", float64(st.Dropped), l)
		p.Counter("weaksets_trace_dropped_total", "Whole traces no longer resolvable because the ring evicted spans.", float64(st.Dropped), l)
		p.Gauge("weaksets_tracer_spans_retained", "Completed spans currently retained.", float64(st.Retained), l)
		p.Gauge("weaksets_tracer_sample", "Sampling divisor (1 = every trace).", float64(st.Sample), l)
	}
	_ = p.Err()
}

// traceSummary is one root span in the no-id /trace listing.
type traceSummary struct {
	ID      obs.TraceID `json:"id"`
	Name    string      `json:"name"`
	Process string      `json:"process"`
	Start   time.Time   `json:"start"`
	Dur     int64       `json:"durationNs"`
	Attrs   []obs.Attr  `json:"attrs,omitempty"`
}

// handleTrace serves one trace's spans (?id=, merged across every
// registered tracer so cross-process traces come back whole) or, without
// an id, the retained root spans newest-first — the menu of trace ids a
// client can ask for.
func (g *Gateway) handleTrace(w http.ResponseWriter, r *http.Request) {
	idParam := r.URL.Query().Get("id")
	w.Header().Set("Content-Type", "application/json")
	if idParam == "" {
		var roots []traceSummary
		for _, t := range g.tracers {
			for _, rec := range t.Spans() {
				if rec.Parent != 0 {
					continue
				}
				roots = append(roots, traceSummary{
					ID: rec.Trace, Name: rec.Name, Process: rec.Process,
					Start: rec.Start, Dur: int64(rec.Dur), Attrs: rec.Attrs,
				})
			}
		}
		// Newest first: the trace someone just produced is the one they
		// want to look up.
		for i, j := 0, len(roots)-1; i < j; i, j = i+1, j-1 {
			roots[i], roots[j] = roots[j], roots[i]
		}
		_ = json.NewEncoder(w).Encode(struct {
			Traces []traceSummary `json:"traces"`
		}{Traces: roots})
		return
	}
	id, err := obs.ParseTraceID(idParam)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "bad trace id %q", idParam)
		return
	}
	var spans []obs.SpanRecord
	for _, t := range g.tracers {
		spans = append(spans, t.Trace(id)...)
	}
	if len(spans) == 0 {
		jsonError(w, http.StatusNotFound, "trace %s not retained", id)
		return
	}
	obs.SortSpans(spans)
	_ = json.NewEncoder(w).Encode(struct {
		Trace obs.TraceID      `json:"trace"`
		Spans []obs.SpanRecord `json:"spans"`
	}{Trace: id, Spans: spans})
}
