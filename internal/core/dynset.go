package core

import (
	"context"

	"weaksets/internal/netsim"
	"weaksets/internal/obs"
	"weaksets/internal/repo"
)

// DynOptions configures a dynamic set.
type DynOptions struct {
	// Width bounds the batch RPCs in flight (FetchOptions.Inflight).
	// Defaults to 4.
	Width int
	// Batch caps the ids in one GetBatch RPC (FetchOptions.Batch).
	// Defaults to 64; Batch: 1 is one id per round trip.
	Batch int
	// Tracer, when set, records a span trace of the run (subject to the
	// tracer's sampling knob); fetch RPCs underneath join it.
	Tracer *obs.Tracer
	// Weakness, when set, receives the run's weakness report on Close.
	Weakness *obs.Registry
}

// OpenDyn opens a dynamic set (Steere's abstraction, §1.1) over the
// collection: a run whose members are fetched in parallel, nearest first,
// and handed out in completion order, so the first element arrives after
// roughly one round trip and slow members never hold up fast ones.
//
// It is an Immutable run of the elements iterator — one membership read,
// folded whole before the first element (an unreachable directory fails
// here with ErrFailure), no per-invocation membership RPC — that parts
// from Fig. 3 in one place: where Fig. 3 would fail (members remain,
// none reachable) it returns what was reachable, the `ls` of "all
// accessible files despite network failures" (§1.1), after yielding,
// marked Stale, whatever copies of the rest the client's element cache
// holds (repo.Cache.Fallback). Skipped lists what it left. A run that
// must not miss additions, or must wait out a partition, is an Optimistic
// Set's (Fig. 6), which pays a membership read per element.
func OpenDyn(ctx context.Context, client *repo.Client, dir netsim.NodeID, name string, opts DynOptions) (*Iterator, error) {
	set, err := NewSet(client, dir, name, Options{
		Semantics: Immutable,
		Fetch:     FetchOptions{Batch: opts.Batch, Inflight: opts.Width},
		Tracer:    opts.Tracer,
		Weakness:  opts.Weakness,
	})
	if err != nil {
		return nil, err
	}
	return set.elements(ctx, true)
}

// settle ends a dynamic run where Fig. 3 decides Fail: each
// call yields the next remaining member the client's element cache holds
// a fallback copy of, marked Stale, and once none is left the run returns,
// counting what it never yielded as UnreachableSkipped. Each remaining
// member asks the cache once.
func (it *Iterator) settle() bool {
	if !it.settling {
		it.settling, it.rest = true, it.Skipped()
	}
	if cache := it.client.ElementCache(); cache != nil {
		for len(it.rest) > 0 {
			ref := it.rest[0]
			it.rest = it.rest[1:]
			if obj, ok := cache.Fallback(ref.ID); ok {
				it.yield(ref, Element{Ref: ref, Data: obj.Data, Attrs: obj.Attrs, Stale: true})
				return true
			}
		}
	}
	it.countSkipped()
	it.done = true
	return false
}
