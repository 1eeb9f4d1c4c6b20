package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"weaksets/internal/core"
	"weaksets/internal/metrics"
	"weaksets/internal/netsim"
	"weaksets/internal/obs"
	"weaksets/internal/repo"
	"weaksets/internal/rpc"
	"weaksets/internal/spec"
	"weaksets/internal/tcprpc"
	"weaksets/internal/wirebin"
)

// Layer microbenchmarks: each times one package's public calls with the
// shapes the workloads use (64 x 256 B batches, 625-ref listing frames,
// 10k-member collections) and reports the median.
const (
	batchIDs  = 64
	frameRefs = 625 // 10k members over 16 listing partitions
	microNode = netsim.NodeID("m0")
)

// micro is one microbenchmark session: where its rows go and how long
// each measurement runs — until calls samples or for dur, whichever
// comes first.
type micro struct {
	*report
	calls int
	dur   time.Duration
}

// fullMicro is the issue's budget: 1 000 calls or 1 s each.
var fullMicro = micro{calls: 1000, dur: time.Second}

// going reports whether a measurement with n samples since start should
// take another.
func (m micro) going(n int, start time.Time) bool {
	return n < m.calls && time.Since(start) < m.dur
}

// timeCalls reports the median cost of fn and how many samples it took.
// Each sample runs fn inner times, so calls too short for the clock's
// own cost are timed in bulk.
func (m micro) timeCalls(inner int, fn func()) (median time.Duration, n int) {
	samples := make([]time.Duration, 0, m.calls)
	start := time.Now()
	for m.going(len(samples), start) {
		t0 := time.Now()
		for range inner {
			fn()
		}
		samples = append(samples, time.Since(t0)/time.Duration(inner))
	}
	return metrics.QuantileOf(samples, 0.5), len(samples)
}

// allocsPer counts heap allocations per call of fn over runs calls.
func allocsPer(runs int, fn func()) float64 {
	var a, b runtime.MemStats
	fn() // warm pools and intern tables
	runtime.ReadMemStats(&a)
	for range runs {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(runs)
}

// microFixture is a separately served node preloaded with the shapes
// the microbenchmarks read, so they never disturb a workload's stack.
type microFixture struct {
	srv  *repo.Server
	tcp  *tcprpc.Server
	bus  *rpc.Bus
	ids  []repo.ObjectID
	refs []repo.Ref
}

func (f *microFixture) close() {
	f.tcp.Close()
	f.srv.Close()
}

func newMicroFixture() (*microFixture, error) {
	srv, tcp, bus, err := serveNode(microNode)
	if err != nil {
		return nil, err
	}
	f := &microFixture{srv: srv, tcp: tcp, bus: bus}
	st := srv.Store()
	for _, name := range []string{"c10k", "c500"} {
		if err := st.CreateCollection(name); err != nil {
			f.close()
			return nil, err
		}
	}
	for i := range 10000 {
		id := repo.ObjectID(fmt.Sprintf("o%05d", i))
		if _, err := st.PutObject(repo.Object{ID: id, Data: payloadFor(0, id)}); err != nil {
			f.close()
			return nil, err
		}
		ref := repo.Ref{ID: id, Node: microNode}
		f.ids = append(f.ids, id)
		f.refs = append(f.refs, ref)
		if _, err := st.Add("c10k", ref); err != nil {
			f.close()
			return nil, err
		}
		if i < 500 {
			if _, err := st.Add("c500", ref); err != nil {
				f.close()
				return nil, err
			}
		}
	}
	if _, err := st.PutObject(repo.Object{ID: "small", Data: make([]byte, 64)}); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// batch returns the k-th window of 64 ids, wrapping.
func (f *microFixture) batch(k int) []repo.ObjectID {
	at := (k * batchIDs) % (len(f.ids) - batchIDs)
	return f.ids[at : at+batchIDs]
}

// layers runs every workload-independent layer microbenchmark.
func (m micro) layers(ctx context.Context) error {
	f, err := newMicroFixture()
	if err != nil {
		return err
	}
	defer f.close()
	m.store(f)
	if err := m.wirebin(f); err != nil {
		return err
	}
	if err := m.transport(ctx, f); err != nil {
		return err
	}
	if err := m.repo(ctx, f); err != nil {
		return err
	}
	m.core()
	m.obs(ctx)
	return nil
}

func (m micro) store(f *microFixture) {
	st := f.srv.Store()
	k := 0
	d, n := m.timeCalls(1, func() { st.GetBatch(f.batch(k), nil); k++ })
	m.add("store.get_batch_us", us(d), n)

	obj := repo.Object{Data: payloadFor(0, "put")}
	d, n = m.timeCalls(1, func() { obj.ID = f.ids[k%len(f.ids)]; _, _ = st.PutObject(obj); k++ })
	m.add("store.put_us", us(d), n)

	parts, _ := st.Partitions("c10k")
	d, n = m.timeCalls(1, func() { _, _, _, _ = st.ListPart("c10k", k%parts, 0); k++ })
	m.add("store.list_part_us", us(d), n)

	// Add and Remove alternate on one extra member of a 500-member
	// collection, timed separately.
	extra := f.refs[len(f.refs)-1]
	var adds, removes []time.Duration
	for start := time.Now(); m.going(len(adds), start); {
		t0 := time.Now()
		_, _ = st.Add("c500", extra)
		t1 := time.Now()
		_, _, _, _ = st.Remove("c500", extra.ID)
		adds, removes = append(adds, t1.Sub(t0)), append(removes, time.Since(t1))
	}
	m.add("store.add_us", us(metrics.QuantileOf(adds, 0.5)), len(adds))
	m.add("store.remove_us", us(metrics.QuantileOf(removes, 0.5)), len(removes))
}

// microCodec times one registered message type through the codec the
// transport would use for it.
func (m micro) codec(prefix string, msg any) error {
	id, enc, ok := wirebin.Lookup(msg)
	dec, ok2 := wirebin.ByID(id)
	if !ok || !ok2 {
		return fmt.Errorf("wirebin: %T is not registered", msg)
	}
	var buf []byte
	d, n := m.timeCalls(1, func() { buf = enc(buf[:0], msg) })
	m.add("wirebin.enc_"+prefix+"_us", us(d), n)
	var rd wirebin.Reader
	decode := func() { rd.Reset(buf); _ = dec(&rd) }
	d, n = m.timeCalls(1, decode)
	if rd.Err() != nil {
		return fmt.Errorf("wirebin: decode %T: %w", msg, rd.Err())
	}
	m.add("wirebin.dec_"+prefix+"_us", us(d), n)
	m.add("wirebin.dec_"+prefix+"_allocs", allocsPer(200, decode), 200)
	m.add("wirebin."+prefix+"_bytes", float64(len(buf)), 1)
	return nil
}

func (m micro) wirebin(f *microFixture) error {
	objs, _, _ := f.srv.Store().GetBatch(f.batch(0), nil)
	if err := m.codec("getbatchresp", repo.GetBatchResp{Objects: objs}); err != nil {
		return err
	}
	return m.codec("partlisting", repo.PartListing{
		Part: 3, Partitions: 16, Members: f.refs[:frameRefs], Version: 10000,
	})
}

func (m micro) transport(ctx context.Context, f *microFixture) error {
	client := tcprpc.Dial(f.tcp.Addr(), "bench")
	defer client.Close()
	var callErr error
	call := func(method string, req any) {
		if _, err := client.Call(ctx, method, req); err != nil && callErr == nil {
			callErr = err
		}
	}
	d, n := m.timeCalls(1, func() { call(repo.MethodGet, repo.GetReq{ID: "small"}) })
	m.add("tcprpc.rtt_small_us", us(d), n)
	k := 0
	d, n = m.timeCalls(1, func() { call(repo.MethodGetBatch, repo.GetBatchReq{IDs: f.batch(k)}); k++ })
	m.add("tcprpc.rtt_batch_us", us(d), n)
	if callErr != nil {
		return callErr
	}

	// Eight callers keep eight batch calls in flight on the one socket.
	const inflight = 8
	var (
		wg    sync.WaitGroup
		done  atomic.Int64
		fails atomic.Int64
	)
	start := time.Now()
	for g := range inflight {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; m.going(int(done.Load()), start); i += inflight {
				if _, err := client.Call(ctx, repo.MethodGetBatch, repo.GetBatchReq{IDs: f.batch(i)}); err != nil {
					fails.Add(1)
				}
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	if fails.Load() > 0 {
		return fmt.Errorf("tcprpc: %d pipelined calls failed", fails.Load())
	}
	m.add("tcprpc.pipelined_calls_per_s", float64(done.Load())/time.Since(start).Seconds(), int(done.Load()))

	refs, streams := 0, 0
	start = time.Now()
	for m.going(streams, start) {
		st, err := client.CallStream(ctx, repo.MethodListParts, repo.ListPartsReq{Name: "c10k", Stream: true})
		if err != nil {
			return err
		}
		for {
			chunk, ok := st.Next()
			if !ok {
				break
			}
			refs += len(chunk.(repo.PartListing).Members)
		}
		if err := st.Err(); err != nil {
			return err
		}
		streams++
	}
	m.add("tcprpc.stream_refs_per_s", float64(refs)/time.Since(start).Seconds(), streams)
	return nil
}

func (m micro) repo(ctx context.Context, f *microFixture) error {
	// Handler plus client with no socket between them.
	client := repo.NewClient(f.bus, microNode)
	var callErr error
	k := 0
	d, n := m.timeCalls(1, func() {
		if _, _, err := client.GetBatch(ctx, microNode, f.batch(k)); err != nil {
			callErr = err
		}
		k++
	})
	if callErr != nil {
		return callErr
	}
	m.add("repo.getbatch_inproc_us", us(d), n)

	cache := repo.NewCache(2000)
	for _, id := range f.ids[:1000] {
		cache.PutValidated("c", 1, repo.Object{ID: id, Data: payloadFor(0, id), Version: 1})
	}
	d, n = m.timeCalls(100, func() { cache.ServeFresh("c", 1, f.ids[k%1000]); k++ })
	m.add("repo.cache_serve_us", us(d), n)
	return nil
}

func (m micro) core() {
	pre := spec.State{Members: make(map[spec.ElemID]bool, 1000), Reach: make(map[spec.ElemID]bool, 1000)}
	yielded := make(map[spec.ElemID]bool, 500)
	for i := range 1000 {
		id := spec.ElemID(fmt.Sprintf("m%05d", i))
		pre.Members[id], pre.Reach[id] = true, true
		if i%2 == 0 {
			yielded[id] = true
		}
	}
	d, n := m.timeCalls(1, func() { core.Step(core.GrowOnly, spec.State{}, pre, yielded) })
	m.add("core.step_us_1k", us(d), n)
	d, n = m.timeCalls(1, func() { core.Step(core.Optimistic, spec.State{}, pre, yielded) })
	m.add("core.step_opt_us_1k", us(d), n)
}

func (m micro) obs(ctx context.Context) {
	reg := obs.NewRegistry()
	rep := obs.WeaknessReport{
		Collection: collName, Semantics: core.Snapshot.String(), Duration: 20 * time.Millisecond,
		Invocations: 10001, Yielded: 10000, CacheHits: 10000, Outcome: "returns",
	}
	d, n := m.timeCalls(10, func() { reg.Observe(rep) })
	m.add("obs.observe_us", us(d), n)

	tracer := obs.NewTracer("bench", obs.Config{})
	ctx, root := tracer.StartRoot(ctx, "root")
	d, n = m.timeCalls(10, func() { _, sp := tracer.StartSpan(ctx, "op"); sp.End() })
	root.End()
	m.add("obs.span_us", us(d), n)
}
