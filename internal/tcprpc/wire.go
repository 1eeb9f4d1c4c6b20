// Package tcprpc carries the same RPC surface as internal/rpc over real
// TCP sockets. It exists to show the weak-set stack is not tied to the
// simulator: a repository server can be served from a separate process
// over the wire, and a Gateway splices such a remote server into a
// simulated cluster as an ordinary node, so weak sets and dynamic sets
// iterate over it unchanged.
//
// The protocol is one persistent connection of length-prefixed wirebin
// frames, opened by a single client-to-server preamble frame and then
// carrying sequence-numbered request/response envelopes, multiplexed: a
// client keeps many calls in flight on one connection and matches
// responses to callers by sequence number, and a server executes decoded
// requests on a bounded per-connection worker pool, so responses may
// legally return in any order. See DESIGN.md §8 for the dispatch and
// failure semantics and §11 for the byte layout. Well-known sentinel
// errors (repo.ErrNotFound and friends) are mapped to wire codes so
// errors.Is keeps working across the socket.
package tcprpc

import (
	"errors"
	"fmt"

	"weaksets/internal/locksvc"
	"weaksets/internal/obs"
	"weaksets/internal/repo"
	"weaksets/internal/rpc"
)

// request is one call envelope. From is not encoded per request: the
// server stamps the identity the connection's preamble declared. Trace
// carries the caller's span context across the process boundary, so a
// sampled `elements()` run produces one coherent trace whose spans come
// from both sides of the socket.
type request struct {
	Seq    uint64
	From   string
	Method string
	Body   any
	Trace  obs.SpanContext
}

// response is one reply envelope. More marks a stream chunk: the call
// has further responses coming under the same Seq, and the final one
// (More false, and empty unless the stream failed) closes it.
type response struct {
	Seq     uint64
	Body    any
	ErrText string
	ErrCode string
	IsErr   bool
	More    bool
}

// sentinelCodes maps well-known errors onto stable wire codes.
var sentinelCodes = []struct {
	code string
	err  error
}{
	{code: "repo.not_found", err: repo.ErrNotFound},
	{code: "repo.no_collection", err: repo.ErrNoCollection},
	{code: "repo.collection_exists", err: repo.ErrCollectionExists},
	{code: "repo.bad_pin", err: repo.ErrBadPin},
	{code: "repo.bad_token", err: repo.ErrBadToken},
	{code: "lock.not_held", err: locksvc.ErrNotHeld},
	{code: "rpc.no_method", err: rpc.ErrNoMethod},
}

// encodeErr maps err onto (text, code) for the wire.
func encodeErr(err error) (string, string) {
	if err == nil {
		return "", ""
	}
	for _, s := range sentinelCodes {
		if errors.Is(err, s.err) {
			return err.Error(), s.code
		}
	}
	return err.Error(), ""
}

// decodeErr reconstructs an error from the wire so sentinel matching
// works on the client side.
func decodeErr(text, code string) error {
	if code != "" {
		for _, s := range sentinelCodes {
			if s.code == code {
				return fmt.Errorf("%s (remote: %w)", text, s.err)
			}
		}
	}
	return errors.New(text)
}

// RepoMethods is the full repository method surface, for gateways that
// proxy a remote repository server.
func RepoMethods() []string {
	return []string{
		repo.MethodGet,
		repo.MethodGetBatch,
		repo.MethodPut,
		repo.MethodDelete,
		repo.MethodCreate,
		repo.MethodListParts,
		repo.MethodAdd,
		repo.MethodRemove,
		repo.MethodPin,
		repo.MethodUnpin,
		repo.MethodBeginGrow,
		repo.MethodEndGrow,
		repo.MethodStats,
		repo.MethodStoreStats,
		repo.MethodSyncPart,
		repo.MethodSyncDigest,
		repo.MethodLease,
		repo.MethodWatch,
	}
}
