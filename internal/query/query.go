package query

import (
	"context"
	"fmt"

	"weaksets/internal/core"
	"weaksets/internal/netsim"
	"weaksets/internal/repo"
)

// Result is one element matched by a query.
type Result struct {
	Element core.Element
}

// Options configures query execution.
type Options struct {
	// Semantics selects the weak-set consistency the query runs under.
	// Mutually exclusive with Dynamic.
	Semantics core.Semantics
	// SetOptions are passed to the underlying weak set when Semantics is
	// used.
	SetOptions core.Options
	// Dynamic, when true, runs the query on a dynamic set (OpenDyn: one
	// membership read, completion order, unreachable members skipped).
	Dynamic bool
	// DynOptions are passed to the dynamic set when Dynamic is set.
	DynOptions core.DynOptions
}

// Query is a compiled predicate bound to a collection.
type Query struct {
	pred   *Predicate
	client *repo.Client
	dir    netsim.NodeID
	coll   string
}

// New compiles src and binds it to the collection.
func New(client *repo.Client, dir netsim.NodeID, coll, src string) (*Query, error) {
	pred, err := Compile(src)
	if err != nil {
		return nil, err
	}
	return &Query{pred: pred, client: client, dir: dir, coll: coll}, nil
}

// Predicate exposes the compiled predicate.
func (q *Query) Predicate() *Predicate { return q.pred }

// Stream runs the query and calls fn for every matching element as it is
// yielded — the incremental-retrieval style the paper's iterators are
// designed for. It returns the number of elements examined and the
// iterator's terminal error (nil, ErrFailure, ErrBlocked, or a context
// error). fn returning false stops the query early.
func (q *Query) Stream(ctx context.Context, opts Options, fn func(Result) bool) (examined int, err error) {
	it, err := q.open(ctx, opts)
	if err != nil {
		return 0, err
	}
	defer func() { _ = it.Close(context.Background()) }()
	for it.Next(ctx) {
		examined++
		e := it.Element()
		if q.pred.Eval(e.Attrs) {
			if !fn(Result{Element: e}) {
				return examined, nil
			}
		}
	}
	return examined, it.Err()
}

// open begins the run the query streams: a dynamic set's, or a weak
// set's under opts.Semantics.
func (q *Query) open(ctx context.Context, opts Options) (*core.Iterator, error) {
	if opts.Dynamic {
		return core.OpenDyn(ctx, q.client, q.dir, q.coll, opts.DynOptions)
	}
	if !opts.Semantics.Valid() {
		return nil, fmt.Errorf("query: invalid semantics %d", int(opts.Semantics))
	}
	setOpts := opts.SetOptions
	setOpts.Semantics = opts.Semantics
	set, err := core.NewSet(q.client, q.dir, q.coll, setOpts)
	if err != nil {
		return nil, err
	}
	return set.Elements(ctx)
}

// Collect runs the query to completion and returns every match.
func (q *Query) Collect(ctx context.Context, opts Options) ([]Result, error) {
	var out []Result
	_, err := q.Stream(ctx, opts, func(r Result) bool {
		out = append(out, r)
		return true
	})
	return out, err
}

// First returns the first match — the latency-critical operation dynamic
// sets optimize ("we would not go hungry if our restaurant search missed
// some…", §1: often any satisfying element will do).
func (q *Query) First(ctx context.Context, opts Options) (Result, bool, error) {
	var (
		res   Result
		found bool
	)
	_, err := q.Stream(ctx, opts, func(r Result) bool {
		res, found = r, true
		return false
	})
	return res, found, err
}

// Count runs the query to completion and returns the number of matches.
func (q *Query) Count(ctx context.Context, opts Options) (int, error) {
	n := 0
	_, err := q.Stream(ctx, opts, func(Result) bool {
		n++
		return true
	})
	return n, err
}
