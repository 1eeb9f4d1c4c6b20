// Package locksvc is a lease-based distributed read/write lock service.
// The paper observes that the stricter points in the design space need it:
// "typical implementations would use locks to synchronize access to the set
// and its elements" (§3.1) — and also why it hurts: "the use of mobile (and
// possibly) disconnected computers may extend the period a lock is held
// indefinitely". Leases bound that damage: a holder that disappears loses
// the lock when its lease expires.
package locksvc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"weaksets/internal/netsim"
	"weaksets/internal/rpc"
	"weaksets/internal/wirebin"
)

// Mode selects shared (read) or exclusive (write) acquisition.
type Mode int

// Lock modes.
const (
	Read Mode = iota + 1
	Write
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return "invalid"
	}
}

// ErrNotHeld reports a release of a lock the owner does not hold.
var ErrNotHeld = errors.New("locksvc: lock not held by owner")

// RPC method names.
const (
	MethodAcquire = "lock.Acquire"
	MethodRelease = "lock.Release"
)

// Wire types.
type (
	// AcquireReq attempts a non-blocking acquisition; clients poll.
	AcquireReq struct {
		Name  string
		Mode  Mode
		Owner string
		// TTL is the lease duration in virtual time.
		TTL time.Duration
	}
	// AcquireResp reports whether the lease was granted.
	AcquireResp struct{ Granted bool }
	// ReleaseReq releases a held lease.
	ReleaseReq struct {
		Name  string
		Owner string
	}
)

// Stable wirebin type ids, continuing internal/repo's table (DESIGN.md
// §11): part of the protocol, never renumbered.
const (
	wbAcquireReq  = 38
	wbAcquireResp = 39
	wbReleaseReq  = 40
)

func init() {
	wirebin.Register(wbAcquireReq,
		func(buf []byte, v AcquireReq) []byte {
			buf = wirebin.AppendString(buf, v.Name)
			buf = wirebin.AppendVarint(buf, int64(v.Mode))
			buf = wirebin.AppendString(buf, v.Owner)
			return wirebin.AppendVarint(buf, int64(v.TTL))
		},
		func(r *wirebin.Reader) AcquireReq {
			return AcquireReq{Name: r.String(), Mode: Mode(r.Varint()), Owner: r.String(), TTL: time.Duration(r.Varint())}
		})
	wirebin.Register(wbAcquireResp,
		func(buf []byte, v AcquireResp) []byte { return wirebin.AppendBool(buf, v.Granted) },
		func(r *wirebin.Reader) AcquireResp { return AcquireResp{Granted: r.Bool()} })
	wirebin.Register(wbReleaseReq,
		func(buf []byte, v ReleaseReq) []byte {
			return wirebin.AppendString(wirebin.AppendString(buf, v.Name), v.Owner)
		},
		func(r *wirebin.Reader) ReleaseReq { return ReleaseReq{Name: r.String(), Owner: r.String()} })
}

type lease struct {
	mode   Mode
	expiry time.Time // wall-clock deadline (already scaled)
}

type lockState struct {
	holders map[string]lease
}

// Server is the lock manager running on one node.
type Server struct {
	node  netsim.NodeID
	scale func(time.Duration) time.Duration // virtual TTL -> real duration
	now   func() time.Time

	mu    sync.Mutex
	locks map[string]*lockState
}

// NewServer creates and registers a lock server on node.
func NewServer(bus *rpc.Bus, node netsim.NodeID) (*Server, error) {
	scale := bus.Network().Scale()
	s := &Server{
		node:  node,
		scale: scale.Real,
		now:   time.Now,
		locks: make(map[string]*lockState),
	}
	srv := rpc.NewServer(node)
	srv.Handle(MethodAcquire, rpc.Typed(s.handleAcquire))
	srv.Handle(MethodRelease, rpc.Typed(s.handleRelease))
	if err := bus.Register(srv); err != nil {
		return nil, fmt.Errorf("lock server %s: %w", node, err)
	}
	return s, nil
}

// Node reports the node the server runs on.
func (s *Server) Node() netsim.NodeID { return s.node }

func (s *Server) state(name string) *lockState {
	st, ok := s.locks[name]
	if !ok {
		st = &lockState{holders: make(map[string]lease)}
		s.locks[name] = st
	}
	return st
}

func (s *Server) expireLocked(st *lockState) {
	now := s.now()
	for owner, l := range st.holders {
		if !l.expiry.IsZero() && now.After(l.expiry) {
			delete(st.holders, owner)
		}
	}
}

func (s *Server) handleAcquire(_ context.Context, _ netsim.NodeID, r AcquireReq) (any, error) {
	if r.Mode != Read && r.Mode != Write {
		return nil, fmt.Errorf("locksvc: invalid mode %d", r.Mode)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.state(r.Name)
	s.expireLocked(st)

	var expiry time.Time
	if r.TTL > 0 {
		real := s.scale(r.TTL)
		if real <= 0 {
			// With a zero time scale the lease would expire instantly;
			// give it a small real floor so logical tests behave.
			real = 50 * time.Millisecond
		}
		expiry = s.now().Add(real)
	}

	// Re-entrant upgrade-free semantics: an owner re-acquiring in the same
	// mode refreshes its lease.
	if held, exists := st.holders[r.Owner]; exists && held.mode == r.Mode {
		st.holders[r.Owner] = lease{mode: r.Mode, expiry: expiry}
		return AcquireResp{Granted: true}, nil
	}

	switch r.Mode {
	case Write:
		if len(st.holders) > 0 {
			if _, selfOnly := st.holders[r.Owner]; !(selfOnly && len(st.holders) == 1) {
				return AcquireResp{Granted: false}, nil
			}
		}
	case Read:
		for owner, l := range st.holders {
			if l.mode == Write && owner != r.Owner {
				return AcquireResp{Granted: false}, nil
			}
		}
	}
	st.holders[r.Owner] = lease{mode: r.Mode, expiry: expiry}
	return AcquireResp{Granted: true}, nil
}

func (s *Server) handleRelease(_ context.Context, _ netsim.NodeID, r ReleaseReq) (any, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.state(r.Name)
	s.expireLocked(st)
	if _, held := st.holders[r.Owner]; !held {
		return nil, fmt.Errorf("release %q by %q: %w", r.Name, r.Owner, ErrNotHeld)
	}
	delete(st.holders, r.Owner)
	return struct{}{}, nil
}

// Holders reports the current number of unexpired holders (test hook).
func (s *Server) Holders(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.state(name)
	s.expireLocked(st)
	return len(st.holders)
}

// Client acquires and releases locks from a home node.
type Client struct {
	bus   *rpc.Bus
	node  netsim.NodeID
	owner string
	// RetryEvery is the virtual backoff between acquisition attempts.
	RetryEvery time.Duration
}

// NewClient creates a lock client; owner must be unique per logical holder.
func NewClient(bus *rpc.Bus, node netsim.NodeID, owner string) *Client {
	return &Client{
		bus:        bus,
		node:       node,
		owner:      owner,
		RetryEvery: 10 * time.Millisecond,
	}
}

// TryAcquire makes a single acquisition attempt.
func (c *Client) TryAcquire(ctx context.Context, server netsim.NodeID, name string, mode Mode, ttl time.Duration) (bool, error) {
	resp, err := rpc.Invoke[AcquireResp](ctx, c.bus, c.node, server, MethodAcquire, AcquireReq{
		Name:  name,
		Mode:  mode,
		Owner: c.owner,
		TTL:   ttl,
	})
	if err != nil {
		return false, err
	}
	return resp.Granted, nil
}

// Acquire polls until the lock is granted, the context is cancelled, or an
// RPC failure occurs. It returns the virtual time spent waiting — the "lock
// wait" cost the paper warns about.
func (c *Client) Acquire(ctx context.Context, server netsim.NodeID, name string, mode Mode, ttl time.Duration) (time.Duration, error) {
	scale := c.bus.Network().Scale()
	elapsed := scale.Stopwatch()
	for {
		granted, err := c.TryAcquire(ctx, server, name, mode, ttl)
		if err != nil {
			return elapsed(), err
		}
		if granted {
			return elapsed(), nil
		}
		if !scale.SleepCtxFloor(ctx, c.RetryEvery, 100*time.Microsecond) {
			return elapsed(), ctx.Err()
		}
	}
}

// Release releases the lock.
func (c *Client) Release(ctx context.Context, server netsim.NodeID, name string) error {
	_, _, err := c.bus.Call(ctx, c.node, server, MethodRelease, ReleaseReq{Name: name, Owner: c.owner})
	return err
}
