// Package rpc provides the remote-procedure-call layer the paper's model of
// computation assumes: "processes (e.g., clients and servers) communicate
// via remote procedure calls" (§2.1). Calls traverse the simulated network
// in both directions, so a partition that forms after the request is
// delivered but before the response returns still surfaces as the paper's
// "failure" exception — and, as in real systems, the server-side effects of
// such a call may have happened even though the caller saw a failure.
package rpc

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"weaksets/internal/netsim"
	"weaksets/internal/obs"
)

// Errors reported by the RPC layer itself. Transport-level failures from
// netsim (ErrUnreachable, ErrDropped) pass through and satisfy
// netsim.IsFailure.
var (
	// ErrNoServer reports a destination node with no registered server.
	ErrNoServer = errors.New("rpc: no server registered at destination")
	// ErrNoMethod reports an unknown method on the destination server.
	ErrNoMethod = errors.New("rpc: no such method")
)

// Streamer is a response body that can be delivered as a sequence of
// self-contained chunks instead of one materialized message. A handler
// returns one when the response is naturally incremental — a partition
// at a time of a huge listing, say — and producing the next chunk may do
// fresh work (take the next snapshot), so consumers overlap their own
// processing with production. Every transport carries chunks: the bus
// hands the Streamer to the caller as-is, and tcprpc forwards each chunk
// as its own frame. A Streamer is single-consumer: Next must not be
// called concurrently.
type Streamer interface {
	// Next produces the next chunk; ok=false ends the stream, after
	// which Err reports whether it ended cleanly.
	Next() (chunk any, ok bool)
	// Err reports the first production error, available once Next has
	// returned ok=false.
	Err() error
}

// Handler services one method. It runs on the server's goroutine context;
// implementations must be safe for concurrent use. The context carries
// cancellation and the caller's trace context (obs.FromContext), so a
// handler that issues further calls should pass it along.
type Handler func(ctx context.Context, from netsim.NodeID, req any) (any, error)

// Typed adapts a handler that takes its request already typed: a request
// of any other type fails the call without reaching h.
func Typed[Req any](h func(ctx context.Context, from netsim.NodeID, req Req) (any, error)) Handler {
	return func(ctx context.Context, from netsim.NodeID, req any) (any, error) {
		r, ok := req.(Req)
		if !ok {
			return nil, fmt.Errorf("rpc: bad request type %T", req)
		}
		return h(ctx, from, r)
	}
}

// Server is the per-node dispatch table.
type Server struct {
	node netsim.NodeID

	mu       sync.RWMutex
	handlers map[string]Handler
}

// NewServer creates a server bound to the given node.
func NewServer(node netsim.NodeID) *Server {
	return &Server{
		node:     node,
		handlers: make(map[string]Handler),
	}
}

// Node reports the node this server is bound to.
func (s *Server) Node() netsim.NodeID { return s.node }

// Handle registers a handler for method, replacing any previous handler.
func (s *Server) Handle(method string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = h
}

func (s *Server) lookup(method string) (Handler, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	h, ok := s.handlers[method]
	return h, ok
}

// Dispatch invokes the handler for method directly, bypassing any
// transport. It is the hook alternative transports (e.g. the TCP server in
// internal/tcprpc) use to serve the same dispatch table.
func (s *Server) Dispatch(ctx context.Context, from netsim.NodeID, method string, req any) (any, error) {
	h, ok := s.lookup(method)
	if !ok {
		return nil, fmt.Errorf("rpc %s at %s: %w", method, s.node, ErrNoMethod)
	}
	return h(ctx, from, req)
}

// Methods lists the registered method names (sorted), for transports that
// need to advertise or proxy the full surface.
func (s *Server) Methods() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.handlers))
	for m := range s.handlers {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Stats aggregates bus-level counters for experiments that report message
// costs.
type Stats struct {
	Calls    int64
	Failures int64
}

// Bus connects servers over a netsim.Network.
type Bus struct {
	net    *netsim.Network
	tracer *obs.Tracer

	mu      sync.RWMutex
	servers map[netsim.NodeID][]*Server
	slots   map[netsim.NodeID]chan struct{}
	svc     map[netsim.NodeID]time.Duration
	stats   Stats
	byMeth  map[string]int64
}

// NewBus creates a bus over the given network.
func NewBus(n *netsim.Network) *Bus {
	return &Bus{
		net:     n,
		servers: make(map[netsim.NodeID][]*Server),
		slots:   make(map[netsim.NodeID]chan struct{}),
		svc:     make(map[netsim.NodeID]time.Duration),
		byMeth:  make(map[string]int64),
	}
}

// SetServiceLimit bounds how many handler invocations may run on node at
// once: calls beyond n queue (respecting the caller's context) until a
// slot frees. The default — no limit — models an infinitely provisioned
// server, which is right for correctness tests but hides the capacity
// contention replication exists to relieve; capacity-sensitive benches
// set a small n so "one hot node" versus "three replicas" is a fair
// fight. n <= 0 removes the limit. Set it before traffic starts.
func (b *Bus) SetServiceLimit(node netsim.NodeID, n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n <= 0 {
		delete(b.slots, node)
		return
	}
	b.slots[node] = make(chan struct{}, n)
}

// SetServiceTime charges node a fixed virtual service cost per handler
// invocation, slept at the network's time scale while the node's service
// slot (if SetServiceLimit bounds one) is held. The default — zero —
// models handlers that are free, which is right for correctness tests
// but means a service limit alone creates almost no queueing: the
// handlers here are microsecond-scale store operations, so slots turn
// over as fast as callers arrive. Capacity-sensitive benches pair a
// small limit with a realistic per-call cost so a node's throughput is
// genuinely bounded by limit/serviceTime — the contention replication
// exists to relieve. d <= 0 removes the cost. Set it before traffic
// starts.
func (b *Bus) SetServiceTime(node netsim.NodeID, d time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if d <= 0 {
		delete(b.svc, node)
		return
	}
	b.svc[node] = d
}

// Network exposes the underlying network (reachability oracle, time scale).
func (b *Bus) Network() *netsim.Network { return b.net }

// UseTracer makes every traced call crossing the bus record an rpc span
// (join-only: calls without a sampled trace in their context cost
// nothing). Set it before traffic starts; it is not synchronized.
func (b *Bus) UseTracer(t *obs.Tracer) { b.tracer = t }

// Register attaches a server to the bus. The server's node must already be
// registered with the network. Several servers (services) may share a node;
// method dispatch tries them in registration order.
func (b *Bus) Register(s *Server) error {
	if !b.net.HasNode(s.Node()) {
		return fmt.Errorf("rpc: register server: %w: %s", netsim.ErrNoSuchNode, s.Node())
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.servers[s.Node()] = append(b.servers[s.Node()], s)
	return nil
}

// Stats returns a snapshot of the bus counters.
func (b *Bus) Stats() Stats {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.stats
}

// MethodCalls reports how many calls were attempted for the given method.
func (b *Bus) MethodCalls(method string) int64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.byMeth[method]
}

// ResetStats zeroes all counters.
func (b *Bus) ResetStats() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.stats = Stats{}
	b.byMeth = make(map[string]int64)
}

func (b *Bus) record(method string, failed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.stats.Calls++
	b.byMeth[method]++
	if failed {
		b.stats.Failures++
	}
}

// Call performs a synchronous RPC from node `from` to node `to`. The
// request travels the network, the handler runs, and the response travels
// back; either leg can fail with the paper's failure exception. Application
// errors returned by the handler are returned as-is (they rode back on a
// successful response). Latency is the virtual time the call occupied.
func (b *Bus) Call(ctx context.Context, from, to netsim.NodeID, method string, req any) (resp any, latency time.Duration, err error) {
	defer func() { b.record(method, netsim.IsFailure(err)) }()

	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	ctx, span := b.tracer.StartSpan(ctx, "rpc."+method)
	if span != nil {
		span.SetAttr("from", string(from))
		span.SetAttr("to", string(to))
		defer func() {
			if err != nil {
				span.SetAttr("error", err.Error())
			}
			span.End()
		}()
	}
	lat, err := b.net.Transmit(from, to)
	latency += lat
	if err != nil {
		return nil, latency, fmt.Errorf("rpc %s %s->%s: request: %w", method, from, to, err)
	}

	b.mu.RLock()
	srvs := append([]*Server(nil), b.servers[to]...)
	slot := b.slots[to]
	svc := b.svc[to]
	b.mu.RUnlock()
	if len(srvs) == 0 {
		return nil, latency, fmt.Errorf("rpc %s %s->%s: %w", method, from, to, ErrNoServer)
	}
	var (
		h  Handler
		ok bool
	)
	for _, srv := range srvs {
		if h, ok = srv.lookup(method); ok {
			break
		}
	}
	if !ok {
		return nil, latency, fmt.Errorf("rpc %s %s->%s: %w", method, from, to, ErrNoMethod)
	}

	if slot != nil {
		select {
		case slot <- struct{}{}:
		case <-ctx.Done():
			return nil, latency, ctx.Err()
		}
	}
	if svc > 0 {
		// The service cost is spent while the slot is held: this is the
		// time the node's bounded capacity is occupied by this call.
		if !b.net.Scale().SleepCtx(ctx, svc) {
			if slot != nil {
				<-slot
			}
			return nil, latency, ctx.Err()
		}
		latency += svc
	}
	out, appErr := h(ctx, from, req)
	if slot != nil {
		<-slot
	}

	if err := ctx.Err(); err != nil {
		return nil, latency, err
	}
	lat, err = b.net.Transmit(to, from)
	latency += lat
	if err != nil {
		// The handler ran but the caller cannot know: classic partial
		// effect under partition.
		return nil, latency, fmt.Errorf("rpc %s %s->%s: response: %w", method, from, to, err)
	}
	return out, latency, appErr
}

// Invoke is a typed convenience wrapper around Bus.Call that asserts the
// response type.
func Invoke[Resp any](ctx context.Context, b *Bus, from, to netsim.NodeID, method string, req any) (Resp, error) {
	var zero Resp
	out, _, err := b.Call(ctx, from, to, method, req)
	if err != nil {
		return zero, err
	}
	if out == nil {
		return zero, nil
	}
	typed, ok := out.(Resp)
	if !ok {
		return zero, fmt.Errorf("rpc %s: unexpected response type %T", method, out)
	}
	return typed, nil
}
