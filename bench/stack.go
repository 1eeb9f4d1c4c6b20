package main

import (
	"context"
	"fmt"

	"weaksets/internal/cluster"
	"weaksets/internal/netsim"
	"weaksets/internal/repo"
	"weaksets/internal/rpc"
	"weaksets/internal/sim"
	"weaksets/internal/tcprpc"
)

const (
	storageNodes = 4
	readerNode   = cluster.HomeNode
	writerNode   = netsim.NodeID("writer")
)

// stack is one assembled system under test: a directory node and four
// storage nodes, the bus the clients call through, and handles on the
// in-process servers and gateways whose counters the benchmark reads.
type stack struct {
	bus     *rpc.Bus
	storage []netsim.NodeID
	// servers are the repository servers in node order (dir, s0…s3).
	servers []*repo.Server
	// gateways are the client-side TCP gateways, same order; empty for
	// the in-process stack.
	gateways []*tcprpc.Gateway
	closers  []func()
}

func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

func (s *stack) client(node netsim.NodeID) *repo.Client { return repo.NewClient(s.bus, node) }

// serveNode boots one "remote process" the way examples/tcparchive does:
// its own network and bus, a default repository server, and a dispatch
// table forwarding every repository method to it, served over loopback
// TCP with the default ServerConfig.
func serveNode(node netsim.NodeID) (*repo.Server, *tcprpc.Server, *rpc.Bus, error) {
	net := netsim.New(netsim.Config{DefaultLatency: sim.Fixed(0)})
	net.AddNode(node)
	bus := rpc.NewBus(net)
	srv, err := repo.NewServer(bus, node)
	if err != nil {
		return nil, nil, nil, err
	}
	dispatch := rpc.NewServer(node)
	for _, method := range tcprpc.RepoMethods() {
		dispatch.Handle(method, func(ctx context.Context, _ netsim.NodeID, req any) (any, error) {
			out, _, err := bus.Call(ctx, node, node, method, req)
			return out, err
		})
	}
	tcp, err := tcprpc.Serve("127.0.0.1:0", dispatch)
	if err != nil {
		srv.Close()
		return nil, nil, nil, err
	}
	return srv, tcp, bus, nil
}

// newTCPStack builds the stack that ships: five separately served nodes
// spliced into a zero-latency client network through gateways, default
// codec negotiation (wirebin), default everything else.
func newTCPStack() (*stack, error) {
	net := netsim.New(netsim.Config{DefaultLatency: sim.Fixed(0)})
	net.AddNode(readerNode)
	net.AddNode(writerNode)
	net.AddNode(cluster.DirNode)
	s := &stack{
		bus:     rpc.NewBus(net),
		storage: net.AddNodes("s", storageNodes),
	}
	for _, node := range append([]netsim.NodeID{cluster.DirNode}, s.storage...) {
		srv, tcp, _, err := serveNode(node)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("serve %s: %w", node, err)
		}
		s.closers = append(s.closers, srv.Close, tcp.Close)
		gw, err := tcprpc.NewGateway(s.bus, node, tcprpc.Dial(tcp.Addr(), "gateway"), tcprpc.RepoMethods())
		if err != nil {
			s.close()
			return nil, err
		}
		s.closers = append(s.closers, gw.Close)
		s.servers = append(s.servers, srv)
		s.gateways = append(s.gateways, gw)
	}
	return s, nil
}

// newInprocStack is the same topology on one in-process bus: the read
// pipeline without sockets or codecs, the baseline that
// core.inproc_run_ms_p50 subtracts from the end-to-end figure.
func newInprocStack() (*stack, error) {
	c, err := cluster.New(cluster.Config{StorageNodes: storageNodes, Latency: sim.Fixed(0)})
	if err != nil {
		return nil, err
	}
	c.Net.AddNode(writerNode)
	s := &stack{bus: c.Bus, storage: c.Storage, closers: []func(){c.Close}}
	for _, node := range append([]netsim.NodeID{cluster.DirNode}, c.Storage...) {
		s.servers = append(s.servers, c.Servers[node])
	}
	return s, nil
}
