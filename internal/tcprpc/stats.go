package tcprpc

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"weaksets/internal/metrics"
)

// MethodStats is one method's transport-level counters and round-trip
// latency summary (encode → dispatch → decode, as the caller sees it).
type MethodStats struct {
	Method string        `json:"method"`
	Count  int64         `json:"count"`
	Errors int64         `json:"errors"`
	Mean   time.Duration `json:"mean_ns"`
	P50    time.Duration `json:"p50_ns"`
	P99    time.Duration `json:"p99_ns"`
	// BytesSent and BytesReceived are the wire bytes this method's
	// envelopes cost (post-compression, as they crossed the socket).
	BytesSent     int64 `json:"bytesSent"`
	BytesReceived int64 `json:"bytesReceived"`
}

// TransportStats is a client's transport instrumentation snapshot:
// connection churn, the in-flight gauge and its high-water mark, and
// per-method RTT histograms. Surfaced through Client.Stats,
// Gateway.Stats, and the httpgw /stats endpoint.
type TransportStats struct {
	Addr string `json:"addr"`
	// Codec names the wire codec once a connection has been dialed
	// (always "wirebin"; empty before the first dial).
	Codec string `json:"codec,omitempty"`
	// Dials counts every connection established; Reconnects is the
	// subset that replaced a previously live connection (dials - 1,
	// floored at 0 — i.e. redials after transport errors).
	Dials      int64 `json:"dials"`
	Reconnects int64 `json:"reconnects"`
	// InFlight is the current number of calls sharing the stream;
	// MaxInFlight is the high-water mark over the client's lifetime.
	InFlight    int64 `json:"inFlight"`
	MaxInFlight int64 `json:"maxInFlight"`
	// Calls and Failures count completed calls and the subset that
	// returned an error (application or transport).
	Calls    int64 `json:"calls"`
	Failures int64 `json:"failures"`
	// BytesSent and BytesReceived total the wire bytes across all
	// methods (including connection preambles and unattributed frames).
	BytesSent     int64         `json:"bytesSent"`
	BytesReceived int64         `json:"bytesReceived"`
	Methods       []MethodStats `json:"methods"`
}

// methodRec accumulates one method's counters and RTT reservoir.
type methodRec struct {
	count atomic.Int64
	errs  atomic.Int64
	sent  atomic.Int64
	recv  atomic.Int64
	rtt   metrics.Histogram
}

// transportInstruments is the client's counter block. The zero value is
// ready to use.
type transportInstruments struct {
	dials      atomic.Int64
	reconnects atomic.Int64

	inflight    atomic.Int64
	maxInflight atomic.Int64

	calls    atomic.Int64
	failures atomic.Int64

	bytesSent atomic.Int64
	bytesRecv atomic.Int64

	mu      sync.RWMutex
	methods map[string]*methodRec
}

// addSent attributes sent wire bytes to a method ("" totals only).
func (in *transportInstruments) addSent(method string, n int) {
	in.bytesSent.Add(int64(n))
	if method != "" {
		in.rec(method).sent.Add(int64(n))
	}
}

// addRecv attributes received wire bytes to a method ("" totals only —
// responses whose callers already abandoned them).
func (in *transportInstruments) addRecv(method string, n int) {
	in.bytesRecv.Add(int64(n))
	if method != "" {
		in.rec(method).recv.Add(int64(n))
	}
}

// inflightUp bumps the in-flight gauge and its high-water mark.
func (in *transportInstruments) inflightUp() {
	n := in.inflight.Add(1)
	for {
		cur := in.maxInflight.Load()
		if n <= cur || in.maxInflight.CompareAndSwap(cur, n) {
			return
		}
	}
}

func (in *transportInstruments) inflightDown() {
	in.inflight.Add(-1)
}

// rec returns (creating if needed) the method's record. The method set
// is tiny and stabilizes immediately, so the read lock wins after the
// first few calls.
func (in *transportInstruments) rec(method string) *methodRec {
	in.mu.RLock()
	r := in.methods[method]
	in.mu.RUnlock()
	if r != nil {
		return r
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.methods == nil {
		in.methods = make(map[string]*methodRec)
	}
	if r = in.methods[method]; r == nil {
		r = &methodRec{}
		in.methods[method] = r
	}
	return r
}

// observe records one completed call.
func (in *transportInstruments) observe(method string, start time.Time, err error) {
	in.calls.Add(1)
	r := in.rec(method)
	r.count.Add(1)
	if err != nil {
		in.failures.Add(1)
		r.errs.Add(1)
	}
	r.rtt.Record(time.Since(start))
}

// snapshot renders the counters, methods sorted by name.
func (in *transportInstruments) snapshot(addr string) TransportStats {
	out := TransportStats{
		Addr:          addr,
		Dials:         in.dials.Load(),
		Reconnects:    in.reconnects.Load(),
		InFlight:      in.inflight.Load(),
		MaxInFlight:   in.maxInflight.Load(),
		Calls:         in.calls.Load(),
		Failures:      in.failures.Load(),
		BytesSent:     in.bytesSent.Load(),
		BytesReceived: in.bytesRecv.Load(),
	}
	if out.Dials > 0 {
		out.Codec = CodecWirebin
	}
	in.mu.RLock()
	names := make([]string, 0, len(in.methods))
	for m := range in.methods {
		names = append(names, m)
	}
	sort.Strings(names)
	for _, m := range names {
		r := in.methods[m]
		// One consistent histogram snapshot per method: mean and both
		// quantiles describe the same instant instead of three separate
		// lock acquisitions interleaving with writers.
		snap := r.rtt.Snapshot()
		out.Methods = append(out.Methods, MethodStats{
			Method:        m,
			Count:         r.count.Load(),
			Errors:        r.errs.Load(),
			Mean:          snap.Mean,
			P50:           snap.Quantile(0.5),
			P99:           snap.Quantile(0.99),
			BytesSent:     r.sent.Load(),
			BytesReceived: r.recv.Load(),
		})
	}
	in.mu.RUnlock()
	return out
}
