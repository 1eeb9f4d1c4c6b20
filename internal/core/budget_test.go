package core

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"weaksets/internal/cluster"
	"weaksets/internal/obs"
	"weaksets/internal/repo"
)

// TestRunAllocBudget is the run-state allocation guard, the whole-run
// companion of internal/repo's TestAllocBudget: a warm 10k snapshot run,
// a leased 1k current-state run and a warm 2k dynamic run with one of the
// four storage nodes isolated, served without moving element bytes, and
// a cold 10k snapshot run with the cache off, every element fetched in a
// batch, all on the in-process bus, must allocate no more
// bytes and no more objects per element than the ceilings checked in as
// BENCH_budget.json (bytesPerElem, allocsPerElem), nor make more GetBatch
// calls in a run than getBatchPerRun, an exact count. What is left is
// bookkeeping — on the cold run, per batch, not per element, since the
// store hands out the objects it holds — so a change that puts a
// per-member map, copy or small allocation back on the path, or narrows
// the batches, fails here — as does a stepper that goes back to
// O(members) per invocation while a node is down (dynOneDown2k); `make
// bench-iter` runs it.
// The counters are the whole process's, so each figure is the least of
// three windows of ten runs: what a background goroutine allocates (a
// lease renewal, say) only ever adds, and is a few KB, while the runs'
// own cost is the same in every window.
func TestRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation volumes are not meaningful under -race instrumentation")
	}
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_budget.json"))
	if err != nil {
		t.Fatalf("alloc budget file: %v", err)
	}
	var budget struct {
		BytesPerElem   map[string]float64 `json:"bytesPerElem"`
		AllocsPerElem  map[string]float64 `json:"allocsPerElem"`
		GetBatchPerRun map[string]int64   `json:"getBatchPerRun"`
	}
	if err := json.Unmarshal(raw, &budget); err != nil {
		t.Fatalf("alloc budget file: %v", err)
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name    string
		sem     Semantics
		members int
		leased  bool
		cold    bool // the cache is off: every element is fetched
		oneDown bool // an OpenDyn run with Storage[1] isolated throughout
	}{
		{"snapWarm10k", Snapshot, 10_000, false, false, false},
		{"curLeased1k", GrowOnly, 1_000, true, false, false},
		{"snapCold10k", Snapshot, 10_000, false, true, false},
		{"dynOneDown2k", Immutable, 2_000, false, false, true},
	} {
		maxBytes, ok := budget.BytesPerElem[tc.name]
		maxAllocs, ok2 := budget.AllocsPerElem[tc.name]
		maxBatches, ok3 := budget.GetBatchPerRun[tc.name]
		if !ok || !ok2 || !ok3 {
			t.Fatalf("no bytesPerElem, allocsPerElem or getBatchPerRun budget for %q in BENCH_budget.json", tc.name)
		}
		w := newTestWorld(t, tc.members)
		if tc.leased {
			leaseWorld(t, w)
		}
		if !tc.cold {
			w.c.Client.UseCache(repo.NewCache(2 * tc.members)) // every member stays cached
		}
		s := w.set(t, Options{Semantics: tc.sem})
		open := s.Elements
		yields := tc.members
		if tc.oneDown {
			w.c.Net.Isolate(w.c.Storage[1])
			open = func(ctx context.Context) (*Iterator, error) {
				return OpenDyn(ctx, w.c.Client, cluster.DirNode, "set", DynOptions{})
			}
			yields = tc.members * 3 / 4
		}
		var gotBatches int64 // the most GetBatch calls one measured run made
		run := func() obs.WeaknessReport {
			batches := w.c.Bus.MethodCalls(repo.MethodGetBatch)
			it, err := open(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for it.Next(ctx) {
			}
			_ = it.Close(ctx)
			gotBatches = max(gotBatches, w.c.Bus.MethodCalls(repo.MethodGetBatch)-batches)
			if it.Err() != nil || it.Yielded() != yields {
				t.Fatalf("%s: yielded %d, err %v; want %d", tc.name, it.Yielded(), it.Err(), yields)
			}
			return it.Weakness()
		}
		run() // fills the cache, if any, and publishes the listing
		if tc.leased {
			run()
			awaitLease(t, w, w.c.Client.Leases())
		}
		gotBatches = 0
		const runs = 10
		elems := float64(runs * yields)
		gotBytes, gotAllocs := math.Inf(1), math.Inf(1)
		for window := 0; window < 3; window++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				wk := run()
				if !tc.cold && wk.CacheHits != int64(yields) || tc.leased && wk.LeaseServed == 0 {
					t.Fatalf("%s: %d cache hits, %d lease-served invocations: the run moved element bytes", tc.name, wk.CacheHits, wk.LeaseServed)
				}
			}
			runtime.ReadMemStats(&after)
			gotBytes = min(gotBytes, float64(after.TotalAlloc-before.TotalAlloc)/elems)
			gotAllocs = min(gotAllocs, float64(after.Mallocs-before.Mallocs)/elems)
		}
		t.Logf("%s: %.2f B/element (budget %.2f), %.4f allocations/element (budget %.4f), %d GetBatch/run (budget %d)",
			tc.name, gotBytes, maxBytes, gotAllocs, maxAllocs, gotBatches, maxBatches)
		if gotBytes > maxBytes || gotAllocs > maxAllocs || gotBatches > maxBatches {
			t.Errorf("%s allocates %.0f B and %.3f objects per element in up to %d GetBatch calls a run, budget is %.0f, %.3f and %d — "+
				"BENCH_budget.json is the regression gate; fix the run state or raise the budget deliberately",
				tc.name, gotBytes, gotAllocs, gotBatches, maxBytes, maxAllocs, maxBatches)
		}
	}
}

// BenchmarkWarmRun is the warm invocation's layer benchmark: whole runs
// that move no element bytes, on the in-process bus — a warm 10k Snapshot
// run, which opens on the set's held pinned listing, and a leased 1k
// GrowOnly run — timed per element (ns/elem), so that a move in the
// end-to-end snap_warm_10k or cur_leased_1k has a layer that explains
// it. `make bench-iter` runs it once. On a 2-vCPU host (five runs of
// 200, interleaved with the code before it) snapshot10k reads 35–37 ns
// an element and leased1k 85–89 — 85–94 and 129–140 while the warm serve
// went through prefetcher.fetch and the yield looked its id up — at
// 2 192 B and 15 allocations, and 1 511 B and 6, a run, before and after.
func BenchmarkWarmRun(b *testing.B) {
	ctx := context.Background()
	for _, tc := range []struct {
		name    string
		sem     Semantics
		members int
		leased  bool
	}{
		{"snapshot10k", Snapshot, 10_000, false},
		{"leased1k", GrowOnly, 1_000, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			w := newTestWorld(b, tc.members)
			if tc.leased {
				leaseWorld(b, w)
			}
			w.c.Client.UseCache(repo.NewCache(2 * tc.members))
			s := w.set(b, Options{Semantics: tc.sem})
			run := func() {
				it, err := s.Elements(ctx)
				if err != nil {
					b.Fatal(err)
				}
				for it.Next(ctx) {
				}
				_ = it.Close(ctx)
				if wk := it.Weakness(); it.Err() != nil || it.Yielded() != tc.members || wk.CacheHits != int64(tc.members) {
					b.Fatalf("yielded %d, %d from the cache, err %v; want %d, all", it.Yielded(), wk.CacheHits, it.Err(), tc.members)
				}
			}
			for i := 0; i < 2; i++ { // fill the cache, publish the listing, land the grant
				_, _ = s.Collect(ctx)
			}
			if tc.leased {
				awaitLease(b, w, w.c.Client.Leases())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tc.members), "ns/elem")
		})
	}
}
