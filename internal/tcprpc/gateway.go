package tcprpc

import (
	"context"
	"fmt"
	"time"

	"weaksets/internal/netsim"
	"weaksets/internal/repo"
	"weaksets/internal/rpc"
)

// Gateway splices a TCP-served remote server into a simulated cluster: it
// registers an rpc.Server on the given node whose handlers forward every
// listed method over the wire. To the rest of the cluster — weak sets,
// dynamic sets, queries — the remote process is just another node, still
// subject to the simulated network's latency and partitions on the local
// leg.
//
// Handlers run on their callers' goroutines and the underlying Client
// multiplexes, so concurrent bus calls to the gateway node (e.g. the
// iterator prefetcher's in-flight GetBatches) overlap on the one socket
// instead of queueing behind a per-connection lock.
type Gateway struct {
	client *Client
	node   netsim.NodeID
	// CallTimeout bounds each forwarded call. It is enforced per call
	// through the client's pending map, so one expiring call never
	// disturbs the others sharing the stream. Defaults to 10s.
	CallTimeout time.Duration
}

// NewGateway registers the gateway on bus at node, proxying methods to the
// remote client. The node must already exist in the bus's network.
func NewGateway(bus *rpc.Bus, node netsim.NodeID, client *Client, methods []string) (*Gateway, error) {
	g := &Gateway{
		client:      client,
		node:        node,
		CallTimeout: 10 * time.Second,
	}
	srv := rpc.NewServer(node)
	for _, method := range methods {
		method := method
		srv.Handle(method, func(ctx context.Context, from netsim.NodeID, req any) (any, error) {
			// A streaming listing request is bridged end-to-end: the
			// remote chunks become an rpc.Streamer the bus hands to the
			// local consumer, so partition 0 is being fetched against
			// while partition N-1 is still crossing the socket. The
			// CallTimeout bounds the whole consumption.
			if r, ok := req.(repo.ListPartsReq); ok && r.Stream {
				sctx, cancel := context.WithTimeout(ctx, g.CallTimeout)
				return g.forwardStream(sctx, cancel, method, req)
			}
			// A watch is a long-lived push channel: bridge it end-to-end
			// with no CallTimeout (its lifetime is the lease holder's, not
			// a call's).
			if _, ok := req.(repo.WatchReq); ok {
				sctx, cancel := context.WithCancel(ctx)
				return g.forwardStream(sctx, cancel, method, req)
			}
			// Derive from the incoming context so the caller's trace
			// context (and cancellation) flows onto the wire.
			ctx, cancel := context.WithTimeout(ctx, g.CallTimeout)
			defer cancel()
			return g.client.Call(ctx, method, req)
		})
	}
	if err := bus.Register(srv); err != nil {
		return nil, fmt.Errorf("tcprpc: gateway at %s: %w", node, err)
	}
	return g, nil
}

// forwardStream forwards a streamed call, returning an rpc.Streamer
// that the handler's caller consumes after the handler returns. sctx
// governs the whole consumption, and its cancel fires when the stream
// retires rather than when this function returns — the stream outlives
// the handler by design.
func (g *Gateway) forwardStream(sctx context.Context, cancel context.CancelFunc, method string, req any) (any, error) {
	st, err := g.client.CallStream(sctx, method, req)
	if err != nil {
		cancel()
		return nil, err
	}
	return &gatewayStream{st: st, cancel: cancel}, nil
}

// gatewayStream adapts a ClientStream into the bus-facing Streamer,
// releasing the stream's context when it ends.
type gatewayStream struct {
	st     *ClientStream
	cancel context.CancelFunc
}

func (gs *gatewayStream) Next() (any, bool) {
	chunk, ok := gs.st.Next()
	if !ok {
		gs.cancel()
	}
	return chunk, ok
}

func (gs *gatewayStream) Err() error { return gs.st.Err() }

// Node reports the cluster node the gateway impersonates.
func (g *Gateway) Node() netsim.NodeID { return g.node }

// Stats snapshots the underlying client's transport instrumentation —
// the hook httpgw's /stats uses to surface gateway transport health.
func (g *Gateway) Stats() TransportStats { return g.client.Stats() }

// Close closes the underlying connection.
func (g *Gateway) Close() { g.client.Close() }
