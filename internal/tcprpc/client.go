package tcprpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"weaksets/internal/obs"
)

// ErrClientClosed reports calls on a closed client.
var ErrClientClosed = errors.New("tcprpc: client closed")

// sendBacklog bounds the client's encode queue. The writer goroutine
// drains it as fast as it can encode; the bound only matters when the
// kernel socket buffer backs up, at which point callers block in Call
// (transport backpressure) instead of buffering unboundedly.
const sendBacklog = 128

// Client is a multiplexed TCP connection to a Server. Many calls share
// one persistent stream of wirebin frames concurrently: a dedicated
// writer goroutine opens the connection with the preamble frame and then
// serializes request envelopes onto the socket, and a reader goroutine
// dispatches response envelopes to their callers through a seq-keyed
// pending-call map, so responses may return in any order and slow calls
// never head-of-line-block fast ones. Per-call cancellation and
// deadlines are enforced at the pending map — never via conn.SetDeadline,
// which would clobber the deadlines of every other call sharing the
// socket. A transport error fails every in-flight call and the next
// call redials. Client is safe for concurrent use.
type Client struct {
	addr string
	from string
	// DialTimeout bounds connection establishment. Defaults to 5s.
	// Set before the first Call.
	DialTimeout time.Duration
	// Tracer, when set, records a wire span per traced call (join-only).
	// The span's context rides the request envelope, so the server's
	// spans nest under it. Set before the first Call.
	Tracer *obs.Tracer
	// Journal, when set, records transport events — redials after a
	// connection death — into a bounded event journal. Set before the
	// first Call.
	Journal *obs.Journal
	// Compress declares per-frame deflate, in both directions, on frames
	// of at least CompressMin bytes (0 = defaultCompressMin). It rides
	// the preamble of every connection the client dials. Set before the
	// first Call.
	Compress    bool
	CompressMin int

	mu     sync.Mutex
	cc     *clientConn
	closed bool

	seq atomic.Uint64
	ins transportInstruments
}

// call is one RPC awaiting its response. method lets the read loop
// attribute response bytes to the method that earned them. A streamed
// call carries a chunk queue instead of the one-shot channel: the read
// loop appends every More-flagged response there and keeps the call
// pending until the final frame.
type call struct {
	method string
	ch     chan response // buffered(1); the reader delivers at most once
	stream *streamQ      // non-nil for CallStream calls
}

// streamQ is the unbounded buffer between the connection's read loop
// and a stream's consumer. It must never block the read loop: the
// consumer may itself be waiting on other calls multiplexed on this
// very socket (an iterator fetching elements of partition 0 while
// partition 5's listing arrives), so a bounded queue could deadlock
// the connection against its own traffic.
type streamQ struct {
	mu     sync.Mutex
	chunks []response
	closed bool
	notify chan struct{} // buffered(1); signaled on push and close
}

func newStreamQ() *streamQ {
	return &streamQ{notify: make(chan struct{}, 1)}
}

func (q *streamQ) push(in response, final bool) {
	q.mu.Lock()
	q.chunks = append(q.chunks, in)
	if final {
		q.closed = true
	}
	q.mu.Unlock()
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// pop takes the next queued response; done reports an empty, closed
// queue (the stream is over).
func (q *streamQ) pop() (in response, got bool, done bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.chunks) > 0 {
		in = q.chunks[0]
		q.chunks = q.chunks[1:]
		return in, true, false
	}
	return response{}, false, q.closed
}

// clientConn is one live connection with its goroutines and in-flight
// calls. It is immutable except through fail, which runs once.
type clientConn struct {
	conn   net.Conn
	cdc    *wirebinCodec
	ins    *transportInstruments
	sendCh chan *request

	done     chan struct{}
	failOnce sync.Once
	err      error // written before done closes; read only after <-done

	pmu     sync.Mutex
	pending map[uint64]*call
}

// Dial creates a client for the server at addr. `from` identifies the
// caller to handlers (the node name handlers see). The connection is
// established lazily on first call.
func Dial(addr, from string) *Client {
	return &Client{addr: addr, from: from, DialTimeout: 5 * time.Second}
}

// Addr reports the server address the client dials.
func (c *Client) Addr() string { return c.addr }

// Close shuts the connection down; in-flight calls fail.
func (c *Client) Close() {
	c.mu.Lock()
	c.closed = true
	cc := c.cc
	c.cc = nil
	c.mu.Unlock()
	if cc != nil {
		cc.fail(ErrClientClosed)
	}
}

// Stats snapshots the client's transport instrumentation.
func (c *Client) Stats() TransportStats {
	return c.ins.snapshot(c.addr)
}

// conn returns the live connection, dialing a fresh one if the previous
// connection died (or none exists yet).
func (c *Client) conn() (*clientConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClientClosed
	}
	if c.cc != nil {
		select {
		case <-c.cc.done:
			c.cc = nil // dead; redial below
		default:
			return c.cc, nil
		}
	}
	timeout := c.DialTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	conn, err := net.DialTimeout("tcp", c.addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("tcprpc: dial %s: %w", c.addr, err)
	}
	cc := &clientConn{
		conn:    conn,
		cdc:     newWirebinCodec(conn, c.from, c.Compress, c.CompressMin),
		ins:     &c.ins,
		sendCh:  make(chan *request, sendBacklog),
		done:    make(chan struct{}),
		pending: make(map[uint64]*call),
	}
	go cc.writeLoop()
	go cc.readLoop()
	if dials := c.ins.dials.Add(1); dials > 1 {
		c.ins.reconnects.Add(1)
		c.Journal.Record(obs.Event{
			Type: obs.EvReconnect, Node: c.addr,
			Attrs: map[string]int64{"dials": dials},
		})
	}
	c.cc = cc
	return cc, nil
}

// checkOpen fails a call made after Close.
func (c *Client) checkOpen() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClientClosed
	}
	return nil
}

// Call performs one RPC. Calls may overlap freely on the shared stream;
// the context's cancellation or deadline abandons this call only (the
// connection and every other in-flight call stay live).
func (c *Client) Call(ctx context.Context, method string, req any) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := c.checkOpen(); err != nil {
		return nil, err
	}

	ctx, span := c.Tracer.StartSpan(ctx, "tcp."+method)
	span.SetAttr("addr", c.addr)

	start := time.Now()
	resp, err := c.do(ctx, method, req)
	c.ins.observe(method, start, err)
	if span != nil {
		if err != nil {
			span.SetAttr("error", err.Error())
		}
		span.End()
	}
	return resp, err
}

func (c *Client) do(ctx context.Context, method string, req any) (any, error) {
	// A body the connection cannot carry fails this call here, before it
	// is queued: the write loop fails the whole connection on an error.
	if err := encodable(req); err != nil {
		return nil, fmt.Errorf("tcprpc: %s: %w", method, err)
	}
	cc, err := c.conn()
	if err != nil {
		return nil, err
	}

	seq := c.seq.Add(1)
	ca := &call{method: method, ch: make(chan response, 1)}
	cc.pmu.Lock()
	cc.pending[seq] = ca
	cc.pmu.Unlock()
	c.ins.inflightUp()
	defer func() {
		cc.pmu.Lock()
		delete(cc.pending, seq)
		cc.pmu.Unlock()
		c.ins.inflightDown()
	}()

	out := &request{Seq: seq, Method: method, Body: req, Trace: obs.FromContext(ctx)}
	select {
	case cc.sendCh <- out:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-cc.done:
		return nil, fmt.Errorf("tcprpc: %s: %w", method, cc.err)
	}

	select {
	case in := <-ca.ch:
		return finish(in)
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-cc.done:
		// The response may have raced in just before the connection
		// died; prefer it.
		select {
		case in := <-ca.ch:
			return finish(in)
		default:
		}
		return nil, fmt.Errorf("tcprpc: %s: %w", method, cc.err)
	}
}

// ClientStream is a streamed response being consumed: an rpc.Streamer
// whose chunks arrive over the socket while the consumer works. It is
// single-consumer, like every Streamer.
type ClientStream struct {
	ctx     context.Context
	cc      *clientConn
	method  string
	seq     uint64
	q       *streamQ
	cleanup func() // runs once, when the stream retires
	ended   bool
	err     error
}

// Next returns the next chunk; ok=false ends the stream (Err reports
// whether it ended cleanly). It respects the stream's context — a
// cancellation abandons the stream (late chunks are absorbed by the
// queue and dropped with it).
func (s *ClientStream) Next() (any, bool) {
	if s.ended {
		return nil, false
	}
	for {
		in, got, done := s.q.pop()
		switch {
		case got && in.IsErr:
			s.end(decodeErr(in.ErrText, in.ErrCode))
			return nil, false
		case got && !in.More:
			// Clean final frame: empty by construction.
			s.end(nil)
			return nil, false
		case got:
			return in.Body, true
		case done:
			s.end(nil)
			return nil, false
		}
		select {
		case <-s.q.notify:
		case <-s.ctx.Done():
			s.abandon()
			s.end(s.ctx.Err())
			return nil, false
		case <-s.cc.done:
			s.end(fmt.Errorf("tcprpc: %s: %w", s.method, s.cc.err))
			return nil, false
		}
	}
}

// Err reports how the stream ended, once Next has returned ok=false.
func (s *ClientStream) Err() error { return s.err }

func (s *ClientStream) end(err error) {
	if s.ended {
		return
	}
	s.ended = true
	s.err = err
	s.cleanup()
}

// abandon deregisters a stream the consumer walked away from, so the
// read loop stops queueing its late chunks.
func (s *ClientStream) abandon() {
	s.cc.pmu.Lock()
	if ca, ok := s.cc.pending[s.seq]; ok && ca.stream == s.q {
		delete(s.cc.pending, s.seq)
	}
	s.cc.pmu.Unlock()
}

// CallStream performs one RPC whose response arrives as a stream of
// chunks. The context governs the whole consumption, not just the send.
func (c *Client) CallStream(ctx context.Context, method string, req any) (*ClientStream, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := encodable(req); err != nil {
		return nil, fmt.Errorf("tcprpc: %s: %w", method, err)
	}
	cc, err := c.conn()
	if err != nil {
		return nil, err
	}

	seq := c.seq.Add(1)
	q := newStreamQ()
	ca := &call{method: method, stream: q}
	cc.pmu.Lock()
	cc.pending[seq] = ca
	cc.pmu.Unlock()
	c.ins.inflightUp()

	st := &ClientStream{ctx: ctx, cc: cc, method: method, seq: seq, q: q}
	var once sync.Once
	st.cleanup = func() {
		once.Do(func() {
			c.ins.inflightDown()
		})
	}

	out := &request{Seq: seq, Method: method, Body: req, Trace: obs.FromContext(ctx)}
	select {
	case cc.sendCh <- out:
	case <-ctx.Done():
		st.abandon()
		st.end(ctx.Err())
		return nil, ctx.Err()
	case <-cc.done:
		st.abandon()
		err := fmt.Errorf("tcprpc: %s: %w", method, cc.err)
		st.end(err)
		return nil, err
	}
	return st, nil
}

// finish unpacks one response envelope.
func finish(in response) (any, error) {
	if in.IsErr {
		return nil, decodeErr(in.ErrText, in.ErrCode)
	}
	return in.Body, nil
}

// writeLoop is the connection's dedicated writer: the only goroutine
// that touches the codec's encode side. It opens the connection with the
// preamble, so dialing never waits on the peer.
func (cc *clientConn) writeLoop() {
	n, err := cc.cdc.writePreamble()
	if err != nil {
		cc.fail(fmt.Errorf("send preamble: %w", err))
		return
	}
	cc.ins.addSent("", n)
	for {
		select {
		case out := <-cc.sendCh:
			n, err := cc.cdc.writeRequest(out)
			if err != nil {
				cc.fail(fmt.Errorf("send %s: %w", out.Method, err))
				return
			}
			cc.ins.addSent(out.Method, n)
		case <-cc.done:
			return
		}
	}
}

// readLoop is the connection's dedicated reader: it decodes response
// envelopes and dispatches each to its caller by sequence number.
// Responses for abandoned calls (cancelled contexts) are dropped.
func (cc *clientConn) readLoop() {
	for {
		var in response
		n, err := cc.cdc.readResponse(&in)
		if err != nil {
			cc.fail(fmt.Errorf("recv: %w", err))
			return
		}
		// A stream chunk keeps its call pending: further responses on
		// the same seq are still coming. The final frame (More false,
		// or an error) retires the entry.
		final := !in.More || in.IsErr
		cc.pmu.Lock()
		ca, ok := cc.pending[in.Seq]
		if ok && (final || ca.stream == nil) {
			delete(cc.pending, in.Seq)
		}
		cc.pmu.Unlock()
		if !ok {
			cc.ins.addRecv("", n)
			continue
		}
		cc.ins.addRecv(ca.method, n)
		if ca.stream != nil {
			ca.stream.push(in, final)
		} else {
			ca.ch <- in
		}
	}
}

// fail marks the connection dead exactly once: every in-flight and
// future waiter on this connection observes err through done.
func (cc *clientConn) fail(err error) {
	cc.failOnce.Do(func() {
		cc.err = err
		close(cc.done)
		_ = cc.conn.Close()
	})
}
