package core

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// settlesAt polls until the process is back at no more than baseline
// goroutines: everything a run started — its listing stream, its fetch
// batches — must have an owner that stops it, and Close is that owner.
func settlesAt(t *testing.T, baseline int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines, %d before the run\n%s", what, runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCloseReturnsGoroutinesToBaseline opens runs, abandons them at
// different points and requires the goroutine count back where it was:
// a snapshot run closed after one element (its opening stream and its
// first prefetch window still in flight), one closed mid-stream, one run
// to completion, and a current-state run served under a lease.
func TestCloseReturnsGoroutinesToBaseline(t *testing.T) {
	ctx := context.Background()
	const n = 3000 // several prefetch windows, so an early Close finds work in flight
	w := newTestWorld(t, n)
	ls := leaseWorld(t, w)
	leased := w.set(t, Options{Semantics: GrowOnly})
	for i := 0; i < 2; i++ { // publish the listing, land the grant
		if _, err := leased.Collect(ctx); err != nil {
			t.Fatal(err)
		}
	}
	awaitLease(t, w, ls)

	for _, tc := range []struct {
		name string
		set  *Set
		take int
	}{
		{"snapshot, one element", w.set(t, Options{Semantics: Snapshot}), 1},
		{"snapshot, closed mid-stream", w.set(t, Options{Semantics: Snapshot}), n / 2},
		{"snapshot, to completion", w.set(t, Options{Semantics: Snapshot}), n + 1},
		{"leased current-state, one element", leased, 1},
		{"leased current-state, to completion", leased, n + 1},
	} {
		baseline := runtime.NumGoroutine()
		it, err := tc.set.Elements(ctx)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		took := 0
		for took < tc.take && it.Next(ctx) {
			took++
		}
		if want := min(tc.take, n); took != want || it.Err() != nil {
			t.Fatalf("%s: took %d of %d, err %v", tc.name, took, want, it.Err())
		}
		if tc.set == leased && it.Weakness().LeaseServed == 0 {
			t.Fatalf("%s: the run was not lease-served", tc.name)
		}
		if err := it.Close(ctx); err != nil {
			t.Fatal(err)
		}
		settlesAt(t, baseline, tc.name)
	}
}
