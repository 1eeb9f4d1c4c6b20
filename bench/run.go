package main

import (
	"context"
	"runtime"
	"sync"
	"time"

	"weaksets/internal/cluster"
	"weaksets/internal/obs"
	"weaksets/internal/repo"
)

// span is one record of the benchmark's own trace: name, start and end
// in nanoseconds since the traced pass began, the index of the span that
// caused it (-1 for a root), and the run it belongs to (-1 for writer
// ops, which belong to no run).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
}

// trace is the in-memory recorder of a traced pass. It is written out
// after the benchmark ends, never while a clock is running.
type trace struct {
	origin time.Time
	spans  []span
	// nexts holds individual Next latencies, capped so a long pass cannot
	// grow without bound; past the cap further calls go unrecorded.
	nexts []time.Duration
}

const maxNextSamples = 1 << 20

func newTrace() *trace {
	return &trace{origin: time.Now(), nexts: make([]time.Duration, 0, maxNextSamples)}
}

func (t *trace) at(ts time.Time) int64 { return int64(ts.Sub(t.origin)) }

// runResult is one elements run as the reader saw it. total and ttfe are
// wall clock; scale, filled in when the pass ends, turns them into
// quiet-host time (see ref.go).
type runResult struct {
	ok    bool
	why   string
	start time.Time
	total time.Duration
	ttfe  time.Duration // Elements() call to first Next returning
	scale float64
	elems int
	wk    obs.WeaknessReport
}

// run drives one complete elements run and verifies what it yielded.
// With a trace it also records the run's four contiguous phase spans and
// every Next latency; without one it reads the clock three times.
func (e *env) run(ctx context.Context, tr *trace) runResult {
	elems := e.elems[:0]
	t0 := time.Now()
	it, err := e.set.Elements(ctx)
	if err != nil {
		return runResult{why: err.Error(), total: time.Since(t0)}
	}
	var t1, t2, t3 time.Time
	if tr == nil {
		more := it.Next(ctx)
		t2 = time.Now()
		for more {
			elems = append(elems, it.Element())
			more = it.Next(ctx)
		}
	} else {
		t1 = time.Now()
		prev := t1
		for {
			more := it.Next(ctx)
			now := time.Now()
			if t2.IsZero() {
				t2 = now
			}
			if len(tr.nexts) < maxNextSamples {
				tr.nexts = append(tr.nexts, now.Sub(prev))
			}
			prev = now
			if !more {
				break
			}
			elems = append(elems, it.Element())
		}
		t3 = prev
	}
	runErr := it.Err()
	_ = it.Close(ctx) // Close reports nothing; release errors surface in the weakness report
	t4 := time.Now()

	res := runResult{start: t0, total: t4.Sub(t0), ttfe: t2.Sub(t0), elems: len(elems), wk: it.Weakness()}
	if runErr != nil {
		res.why = runErr.Error()
	} else {
		res.ok, res.why = e.verify(elems)
	}
	e.elems = elems
	if tr != nil {
		parent := len(tr.spans)
		run := parent / 5
		tr.spans = append(tr.spans,
			span{"run", tr.at(t0), tr.at(t4), -1, run},
			span{"open", tr.at(t0), tr.at(t1), parent, run},
			span{"first", tr.at(t1), tr.at(t2), parent, run},
			span{"drain", tr.at(t2), tr.at(t3), parent, run},
			span{"close", tr.at(t3), tr.at(t4), parent, run},
		)
	}
	return res
}

// writerLog is what the open-loop writer measured.
type writerLog struct {
	latency []time.Duration // per op, from its due instant
	late    []time.Duration // how long after its due instant each op began
	failed  int
	spans   []span
}

// startWriter launches the churn writer: op k is due at start + k/rate,
// alternating Put+Add of a fresh id with Remove of the previous one, so
// the set never holds more than one writer id and base members are never
// touched. The schedule is fixed from a monotonic start; an op that
// finds itself late runs at once and is still timed from when it was
// due. The returned stop function ends the loop and waits for it, so
// the caller reads counters only after the last write has landed.
func (e *env) startWriter(ctx context.Context, tr *trace) (stop func() writerLog) {
	var (
		log  writerLog
		quit = make(chan struct{})
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		start := time.Now()
		// Created stopped, and only ever Reset after its channel was
		// drained, so a stale fire can never release an op early.
		timer := time.NewTimer(time.Hour)
		timer.Stop()
		for k := 0; ; k++ {
			due := start.Add(time.Duration(k) * time.Second / writerRate)
			if wait := time.Until(due); wait > 0 {
				timer.Reset(wait)
				select {
				case <-quit:
					timer.Stop()
					return
				case <-timer.C:
				}
			} else {
				select {
				case <-quit:
					return
				default:
				}
			}
			if e.nextOp/2 >= len(e.writerSeq) {
				return // reserved ids exhausted: the pass overran badly
			}
			begin := time.Now()
			op, id := e.nextOp, e.writerSeq[e.nextOp/2]
			e.nextOp++
			var err error
			name := "write.remove"
			if op%2 == 0 {
				name = "write.add"
				e.addsStarted.Store(int32(op/2) + 1)
				var ref repo.Ref
				ref, err = e.wclient.Put(ctx, e.st.storage[(op/2)%len(e.st.storage)],
					repo.Object{ID: id, Data: payloadFor(e.seed, id)})
				if err == nil {
					err = e.wclient.Add(ctx, cluster.DirNode, collName, ref)
				}
			} else {
				_, err = e.wclient.Remove(ctx, cluster.DirNode, collName, id)
			}
			end := time.Now()
			if err != nil {
				log.failed++
			}
			log.latency = append(log.latency, end.Sub(due))
			log.late = append(log.late, begin.Sub(due))
			if tr != nil {
				log.spans = append(log.spans, span{name, tr.at(begin), tr.at(end), -1, -1})
			}
		}
	}()
	return func() writerLog {
		close(quit)
		wg.Wait()
		return log
	}
}

// pass is one timed window of closed-loop runs from the single reader.
type pass struct {
	wall   time.Duration
	good   []runResult // verified runs, in order
	failed int
	why    string // the first failed run's reason
	writer writerLog
	delta  counters // after minus before, over the whole process
	tr     *trace
	ref    []refSample // the host yardstick, sampled between runs
}

func (p *pass) attempted() int { return len(p.good) + p.failed + len(p.writer.latency) }
func (p *pass) failures() int  { return p.failed + p.writer.failed }

// runPass repeats the workload for d, stopping between two runs every
// refEvery to time the host yardstick. Counters are snapshotted before
// the writer starts and after it has stopped, so per-run figures are
// whole numbers of operations on both sides.
func (e *env) runPass(ctx context.Context, d time.Duration, traced bool) *pass {
	p := &pass{}
	if traced {
		p.tr = newTrace()
	}
	if e.wl.writer {
		// Twice the schedule's need: the pass overruns d by up to a run.
		e.reserveWriterIDs(int(d.Seconds()*writerRate) + 64)
	}
	runtime.GC() // start every pass from the same heap state
	before := e.snapshot()
	stopWriter := func() writerLog { return writerLog{} }
	if e.wl.writer {
		stopWriter = e.startWriter(ctx, p.tr)
	}
	start := time.Now()
	for time.Since(start) < d {
		if len(p.ref) == 0 || time.Since(p.ref[len(p.ref)-1].at) >= refEvery {
			p.ref = append(p.ref, e.ref.sample())
		}
		r := e.run(ctx, p.tr)
		if r.ok {
			p.good = append(p.good, r)
		} else {
			if p.failed == 0 {
				p.why = r.why
			}
			p.failed++
		}
	}
	p.wall = time.Since(start)
	p.writer = stopWriter()
	p.delta = e.snapshot().sub(before)
	p.delta.mallocs -= uint64(len(p.ref)) * e.ref.mallocs
	p.delta.allocBytes -= uint64(len(p.ref)) * e.ref.allocBytes
	for i := range p.good {
		p.good[i].scale = refScaleAt(p.ref, p.good[i].start)
	}
	if p.tr != nil {
		p.tr.spans = append(p.tr.spans, p.writer.spans...)
	}
	return p
}

// counters is every cumulative count the benchmark reads off the
// process and the stack's layers; sub turns two snapshots into a delta.
type counters struct {
	mallocs, allocBytes uint64

	// Transport, summed over the gateways. Read* cover the methods a
	// reader's run issues (everything but the writer's mutations and
	// lease upkeep); the rest cover all traffic.
	readCalls, readBytes     int64
	calls, failures          int64
	bytesSent, bytesRecv     int64
	reconnects, maxInflight  int64
	getBatchCalls            int64
	callTime                 time.Duration // Σ per-method count × mean RTT
	storeOps                 int64
	storeBusy                time.Duration // Σ per-op count × mean latency
	batchedGets, notModified int64

	lease repo.LeaseStats
}

// notReaderMethod lists what the churn writer and lease upkeep send on
// the shared gateways; every other method is part of a reader's run.
var notReaderMethod = map[string]bool{
	repo.MethodPut: true, repo.MethodAdd: true, repo.MethodRemove: true,
	repo.MethodCreate: true, repo.MethodLease: true,
}

func (e *env) snapshot() counters {
	var c counters
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes = ms.Mallocs, ms.TotalAlloc
	for _, gw := range e.st.gateways {
		ts := gw.Stats()
		c.calls += ts.Calls
		c.failures += ts.Failures
		c.bytesSent += ts.BytesSent
		c.bytesRecv += ts.BytesReceived
		c.reconnects += ts.Reconnects
		c.maxInflight = max(c.maxInflight, ts.MaxInFlight)
		for _, m := range ts.Methods {
			c.callTime += time.Duration(m.Count) * m.Mean
			if m.Method == repo.MethodGetBatch {
				c.getBatchCalls += m.Count
			}
			if !notReaderMethod[m.Method] {
				c.readCalls += m.Count
				c.readBytes += m.BytesSent + m.BytesReceived
			}
		}
	}
	for _, srv := range e.st.servers {
		es := srv.Store().Stats()
		c.batchedGets += es.Batch.BatchedGets
		c.notModified += es.Batch.NotModified
		for _, op := range es.Ops {
			c.storeOps += op.Count
			c.storeBusy += time.Duration(op.Count) * op.Mean
		}
	}
	if e.lease != nil {
		c.lease = e.lease.Stats()
	}
	return c
}

func (c counters) sub(b counters) counters {
	c.mallocs -= b.mallocs
	c.allocBytes -= b.allocBytes
	c.readCalls -= b.readCalls
	c.readBytes -= b.readBytes
	c.calls -= b.calls
	c.failures -= b.failures
	c.bytesSent -= b.bytesSent
	c.bytesRecv -= b.bytesRecv
	c.reconnects -= b.reconnects
	c.getBatchCalls -= b.getBatchCalls
	c.callTime -= b.callTime
	c.storeOps -= b.storeOps
	c.storeBusy -= b.storeBusy
	c.batchedGets -= b.batchedGets
	c.notModified -= b.notModified
	c.lease.Invalidations -= b.lease.Invalidations
	c.lease.Breaks -= b.lease.Breaks
	return c
}
