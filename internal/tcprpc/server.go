package tcprpc

import (
	"context"
	"fmt"
	"net"
	"sync"

	"weaksets/internal/netsim"
	"weaksets/internal/obs"
	"weaksets/internal/rpc"
)

// DefaultConnWorkers is the per-connection worker-pool size Serve uses.
const DefaultConnWorkers = 8

// ServerConfig tunes a Server.
type ServerConfig struct {
	// Workers bounds the per-connection worker pool: how many decoded
	// requests one connection may have executing at once. Defaults to
	// DefaultConnWorkers. 1 restores strictly sequential handling.
	Workers int
	// Tracer, when set, records a server-side span per request whose
	// envelope carries a sampled trace context, joined to that trace.
	Tracer *obs.Tracer
}

// Server serves an rpc.Server's dispatch table over TCP. Each decoded
// request is handed to a bounded per-connection worker pool, so a slow
// call (a large GetBatch, say) no longer head-of-line-blocks the fast
// Get/List traffic multiplexed on the same socket; responses are
// serialized back through a per-connection write lock and may return
// out of request order (clients dispatch by sequence number). When the
// pool and the request queue are both full the decode loop blocks,
// pushing backpressure onto the socket rather than buffering
// unboundedly.
type Server struct {
	lis      net.Listener
	dispatch *rpc.Server
	workers  int
	tracer   *obs.Tracer

	mu     sync.Mutex
	conns  map[net.Conn]bool
	closed bool
	wg     sync.WaitGroup
}

// Serve starts serving dispatch on addr ("127.0.0.1:0" for an ephemeral
// port) and returns immediately; use Addr for the bound address and Close
// to stop.
func Serve(addr string, dispatch *rpc.Server) (*Server, error) {
	return ServeConfig(addr, dispatch, ServerConfig{})
}

// ServeConfig is Serve with explicit tuning.
func ServeConfig(addr string, dispatch *rpc.Server, cfg ServerConfig) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcprpc: listen %s: %w", addr, err)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = DefaultConnWorkers
	}
	s := &Server{
		lis:      lis,
		dispatch: dispatch,
		workers:  workers,
		tracer:   cfg.Tracer,
		conns:    make(map[net.Conn]bool),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr reports the listener's address.
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Close stops accepting, closes every connection, and waits for the
// serving goroutines to exit.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	_ = s.lis.Close()
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	// The connection opens with the client's preamble; a peer that sends
	// anything else is dropped without a reply.
	cdc := newWirebinCodec(conn, "", false, 0)
	if err := cdc.readPreamble(); err != nil {
		return
	}

	// connCtx is the per-connection dispatch base: it is cancelled when
	// the decode loop breaks, so server-side resources bound to a call's
	// context — a Watch stream blocked waiting for the next invalidation,
	// say — observe the connection's death instead of leaking forever.
	connCtx, connCancel := context.WithCancel(context.Background())
	defer connCancel()
	// wmu serializes response envelopes from concurrent workers onto the
	// shared stream.
	var wmu sync.Mutex
	reqCh := make(chan request, s.workers)
	var pool, streamers sync.WaitGroup
	for i := 0; i < s.workers; i++ {
		pool.Add(1)
		go func() {
			defer pool.Done()
			for req := range reqCh {
				// Rebuild the caller's trace context from the envelope so
				// this process's spans join the cross-process trace.
				ctx := obs.ContextWithSpan(connCtx, req.Trace)
				ctx, sp := s.tracer.StartSpan(ctx, "rpc.serve")
				sp.SetAttr("method", req.Method)
				body, err := s.dispatch.Dispatch(ctx, netsim.NodeID(req.From), req.Method, req.Body)
				sp.End()
				if st, ok := body.(rpc.Streamer); ok {
					// A streamable body ships chunk-by-chunk on a dedicated
					// goroutine: a stream may outlive ordinary calls by hours
					// (a Watch push channel), and parking it on a pool worker
					// would let a handful of streams starve the connection's
					// entire request pipeline.
					streamers.Add(1)
					go func(seq uint64, st rpc.Streamer) {
						defer streamers.Done()
						if !writeStream(cdc, &wmu, seq, st) {
							_ = conn.Close()
						}
					}(req.Seq, st)
					continue
				}
				resp := response{Seq: req.Seq, Body: body}
				if err == nil {
					// A body with no codec is this call's failure, answered
					// as such, not the connection's.
					if cerr := encodable(body); cerr != nil {
						err = fmt.Errorf("tcprpc: %s response: %w", req.Method, cerr)
					}
				}
				if err != nil {
					resp.IsErr = true
					resp.ErrText, resp.ErrCode = encodeErr(err)
					resp.Body = nil
				}
				wmu.Lock()
				_, werr := cdc.writeResponse(&resp)
				wmu.Unlock()
				if werr != nil {
					// The stream is unusable; closing the socket unblocks
					// the decode loop so the connection tears down. Workers
					// keep draining (their encodes fail fast on the dead
					// stream) until the queue closes.
					_ = conn.Close()
				}
			}
		}()
	}
	for {
		var req request
		if _, err := cdc.readRequest(&req); err != nil {
			// Peer went away (EOF / closed socket) or sent garbage
			// mid-frame; either way the stream is unusable.
			break
		}
		reqCh <- req
	}
	close(reqCh)
	// Cancel before waiting: long-lived streams (Watch) end only when
	// their dispatch context dies.
	connCancel()
	pool.Wait()
	streamers.Wait()
}

// writeStream ships a Streamer body as a sequence of More-flagged
// responses on seq, closed by an empty final response (or an IsErr
// final when production failed). Each chunk takes the write lock
// separately, so chunks interleave freely with other calls' responses
// on the shared socket — production of the next chunk (taking the next
// partition snapshot, say) overlaps the previous chunk's transmission.
// It reports whether the connection is still usable.
func writeStream(cdc *wirebinCodec, wmu *sync.Mutex, seq uint64, st rpc.Streamer) bool {
	var err error
	for {
		chunk, ok := st.Next()
		if !ok {
			err = st.Err()
			break
		}
		if err = encodable(chunk); err != nil {
			// The stream ends here, failed; the connection carries on.
			err = fmt.Errorf("tcprpc: stream chunk: %w", err)
			break
		}
		resp := response{Seq: seq, Body: chunk, More: true}
		wmu.Lock()
		_, werr := cdc.writeResponse(&resp)
		wmu.Unlock()
		if werr != nil {
			return false
		}
	}
	final := response{Seq: seq}
	if err != nil {
		final.IsErr = true
		final.ErrText, final.ErrCode = encodeErr(err)
	}
	wmu.Lock()
	_, werr := cdc.writeResponse(&final)
	wmu.Unlock()
	return werr == nil
}
