package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"

	"weaksets/internal/cluster"
	"weaksets/internal/core"
	"weaksets/internal/repo"
)

const (
	collName     = "bench"
	payloadBytes = 256
	// writerRate is the churn writer's open-loop schedule, ops per second.
	writerRate = 100
)

// workload is one fixed input shape. The names are cited by later
// issues; do not rename them.
type workload struct {
	name    string
	sem     core.Semantics
	members int
	cache   bool // attach repo.NewCache(2n) and warm it
	lease   bool // hold a repo.LeaseState on the collection
	writer  bool // run the open-loop churn writer beside the reader
	why     string
}

var workloads = []workload{
	{name: "snap_cold_10k", sem: core.Snapshot, members: 10000,
		why: "bulk transfer: every run fetches 10k x 256 B through GetBatch, the codec and large frames; no cache"},
	{name: "snap_warm_10k", sem: core.Snapshot, members: 10000, cache: true,
		why: "same set served from a warm cache: zero GetBatch RPCs, so only pin + streamed listing + fold remain"},
	{name: "cur_leased_1k", sem: core.GrowOnly, members: 1000, cache: true, lease: true,
		why: "lease-served current-state run: zero read RPCs, transport and store bypassed, the kernel loop is the cost"},
	{name: "cur_churn_500", sem: core.Optimistic, members: 500, cache: true, lease: true, writer: true,
		why: "reader under a 100 ops/s writer: COW membership writes, push invalidation, conditional re-lists, small RPCs"},
}

func workloadByName(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// scaled shrinks the member count for the smoke test.
func (wl workload) scaled(div int) workload {
	wl.members = max(wl.members/div, 8)
	return wl
}

// payloadFor derives an object's bytes from the seed and its id, so a
// yielded element can be checked without remembering what was stored.
func payloadFor(seed int64, id repo.ObjectID) []byte {
	h := fnv.New64a()
	_, _ = h.Write([]byte(id))
	x := h.Sum64() ^ uint64(seed)*0x9e3779b97f4a7c15
	out := make([]byte, payloadBytes)
	for i := 0; i < len(out); i += 8 {
		// splitmix64
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		for j := 0; j < 8; j++ {
			out[i+j] = byte(z >> (8 * j))
		}
	}
	return out
}

// env is one workload set up on one stack, ready to be run.
type env struct {
	wl     workload
	seed   int64
	st     *stack
	ref    *hostRef // set by whoever runs passes on this env
	set    *core.Set
	reader *repo.Client
	lease  *repo.LeaseState

	// base maps a populated member to its index; want[i] is its payload.
	base map[repo.ObjectID]int32
	want [][]byte
	// seen is verify's scratch, one flag per base member.
	seen []bool
	// elems is the reusable buffer a run collects into, so verification
	// happens after the run's clock stops.
	elems []core.Element

	// Churn writer state. writerIDs maps every id the writer may use to
	// its sequence number; an id is legitimate in a yielded set once
	// addsStarted has passed that number.
	wclient     *repo.Client
	writerIDs   map[repo.ObjectID]int32
	writerSeq   []repo.ObjectID
	addsStarted atomic.Int32
	nextOp      int // the writer's position in its op sequence, across passes
}

func (e *env) close() {
	if e.lease != nil {
		e.lease.Stop()
	}
}

// setUp populates the collection through the stack, attaches the cache
// and lease the workload calls for, and warms them. Member ids are drawn
// from the seed; member i lives on storage node i % 4.
func setUp(ctx context.Context, st *stack, wl workload, seed int64) (*env, error) {
	e := &env{
		wl: wl, seed: seed, st: st,
		reader: st.client(readerNode),
		base:   make(map[repo.ObjectID]int32, wl.members),
		want:   make([][]byte, wl.members),
		seen:   make([]bool, wl.members),
		elems:  make([]core.Element, 0, wl.members+8),
	}
	rng := rand.New(rand.NewSource(seed))
	ids := make([]repo.ObjectID, 0, wl.members)
	for len(ids) < wl.members {
		id := repo.ObjectID(fmt.Sprintf("m%012x", rng.Int63n(1<<48)))
		if _, dup := e.base[id]; dup {
			continue
		}
		e.base[id] = int32(len(ids))
		e.want[len(ids)] = payloadFor(seed, id)
		ids = append(ids, id)
	}
	if err := e.reader.CreateCollection(ctx, cluster.DirNode, collName); err != nil {
		return nil, err
	}
	if err := e.populate(ctx, ids); err != nil {
		return nil, fmt.Errorf("populate: %w", err)
	}
	if wl.cache {
		e.reader.UseCache(repo.NewCache(2 * wl.members))
	}
	if wl.lease {
		e.lease = repo.NewLeaseState(e.reader, cluster.DirNode, collName)
		if err := e.lease.Start(ctx); err != nil {
			return nil, fmt.Errorf("lease: %w", err)
		}
		e.reader.UseLeases(e.lease)
	}
	if wl.writer {
		e.wclient = st.client(writerNode)
		e.writerIDs = make(map[repo.ObjectID]int32)
	}
	set, err := core.NewSet(e.reader, cluster.DirNode, collName, core.Options{Semantics: wl.sem})
	if err != nil {
		e.close()
		return nil, err
	}
	e.set = set
	if wl.cache {
		// Two runs: the first fills the cache (and publishes the listing
		// a lease-served run opens from), the second settles on it.
		for range 2 {
			if r := e.run(ctx, nil); !r.ok {
				e.close()
				return nil, fmt.Errorf("warm run: %s", r.why)
			}
		}
	}
	return e, nil
}

// populate stores the members with a few puts in flight, as a bulk
// loader would; the order of arrival does not affect the resulting set.
func (e *env) populate(ctx context.Context, ids []repo.ObjectID) error {
	const loaders = 8
	var (
		wg    sync.WaitGroup
		next  atomic.Int64
		first atomic.Pointer[error]
	)
	for range loaders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first.Load() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(ids) {
					return
				}
				obj := repo.Object{ID: ids[i], Data: e.want[i]}
				ref, err := e.reader.Put(ctx, e.st.storage[i%len(e.st.storage)], obj)
				if err == nil {
					err = e.reader.Add(ctx, cluster.DirNode, collName, ref)
				}
				if err != nil {
					first.CompareAndSwap(nil, &err)
				}
			}
		}()
	}
	wg.Wait()
	if err := first.Load(); err != nil {
		return *err
	}
	return nil
}

// reserveWriterIDs makes sure the writer has n more fresh ids to add.
// It runs between passes, never while the reader verifies.
func (e *env) reserveWriterIDs(n int) {
	have := len(e.writerSeq) - e.nextOp/2
	for ; have < n; have++ {
		k := int32(len(e.writerSeq))
		id := repo.ObjectID(fmt.Sprintf("w%08x-%06d", uint32(e.seed), k))
		e.writerIDs[id] = k
		e.writerSeq = append(e.writerSeq, id)
	}
}

// verify checks one yielded set. Quiescent workloads must yield exactly
// the populated members, once each, with the seed-derived bytes; under
// churn every base member must appear exactly once, and anything else
// must be an id the writer had started adding, also at most once.
func (e *env) verify(elems []core.Element) (ok bool, why string) {
	clear(e.seen)
	baseSeen := 0
	var extra []repo.ObjectID // ≤ a handful: the writer keeps one id live
	for _, el := range elems {
		id := el.Ref.ID
		if i, isBase := e.base[id]; isBase {
			if e.seen[i] {
				return false, fmt.Sprintf("duplicate %s", id)
			}
			e.seen[i] = true
			baseSeen++
			if !bytes.Equal(el.Data, e.want[i]) {
				return false, fmt.Sprintf("payload mismatch on %s", id)
			}
			continue
		}
		k, known := e.writerIDs[id]
		if !known || k >= e.addsStarted.Load() {
			return false, fmt.Sprintf("unjustified element %s", id)
		}
		for _, x := range extra {
			if x == id {
				return false, fmt.Sprintf("duplicate %s", id)
			}
		}
		extra = append(extra, id)
		if !bytes.Equal(el.Data, payloadFor(e.seed, id)) {
			return false, fmt.Sprintf("payload mismatch on %s", id)
		}
	}
	if baseSeen != len(e.want) {
		return false, fmt.Sprintf("yielded %d of %d members", baseSeen, len(e.want))
	}
	return true, ""
}
