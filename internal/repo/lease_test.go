package repo

import (
	"context"
	"testing"
	"time"

	"weaksets/internal/netsim"
	"weaksets/internal/rpc"
	"weaksets/internal/store"
)

func startLeases(t *testing.T, w *world, colls ...string) *LeaseState {
	t.Helper()
	ls := NewLeaseState(w.client, "dir", colls...)
	if err := ls.Start(context.Background()); err != nil {
		t.Fatalf("lease start: %v", err)
	}
	t.Cleanup(ls.Stop)
	return ls
}

func TestLeaseGrantCertifiesVersion(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	w.mustColl(t, "c")
	ref := w.mustPut(t, "s1", "a", "A")
	if err := w.client.Add(ctx, "dir", "c", ref); err != nil {
		t.Fatal(err)
	}
	_, wantVer, err := w.client.List(ctx, "dir", "c")
	if err != nil {
		t.Fatal(err)
	}

	ls := startLeases(t, w, "c")
	v, age, ok := ls.Serveable("c")
	if !ok {
		t.Fatal("lease not serveable after Start")
	}
	if v != wantVer {
		t.Fatalf("certified version = %d, want %d", v, wantVer)
	}
	if age < 0 {
		t.Fatalf("age = %v", age)
	}
	st := ls.Stats()
	if !st.Active || st.Held != 1 || st.Grants != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLeaseUnknownCollectionNotGranted(t *testing.T) {
	w := newWorld(t)
	ls := startLeases(t, w, "nope")
	if _, _, ok := ls.Serveable("nope"); ok {
		t.Fatal("lease granted on unknown collection")
	}
	if st := ls.Stats(); st.Held != 0 {
		t.Fatalf("held = %d, want 0", st.Held)
	}
}

func TestLeasePushAdvancesVersion(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	w.mustColl(t, "c")
	ls := startLeases(t, w, "c")
	v0, _, ok := ls.Serveable("c")
	if !ok {
		t.Fatal("lease not serveable")
	}

	ref := w.mustPut(t, "s1", "a", "A")
	if err := w.client.Add(ctx, "dir", "c", ref); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		v, _, ok := ls.Serveable("c")
		return ok && v > v0
	})
	if st := ls.Stats(); st.Invalidations == 0 {
		t.Fatalf("stats = %+v, want pushed invalidations", st)
	}
}

// TestLeaseGrantRaceWithWrite pins the ordering soundness rule: a write
// committed concurrently with the grant must be visible to the holder,
// either in the granted version or as a push — never silently missed.
func TestLeaseGrantRaceWithWrite(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	w.mustColl(t, "c")
	ls := startLeases(t, w, "c")

	for i := 0; i < 20; i++ {
		ref := w.mustPut(t, "s1", ObjectID(string(rune('a'+i))), "x")
		if err := w.client.Add(ctx, "dir", "c", ref); err != nil {
			t.Fatal(err)
		}
	}
	wantVer, err := w.dirSrv.Store().ListVersion("c")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		v, _, ok := ls.Serveable("c")
		return ok && v >= wantVer
	})
}

func TestLeaseCoalescesPending(t *testing.T) {
	// Hub-level: many bumps on one partition with no consumer collapse to
	// one pending invalidation carrying the latest version.
	hub := newLeaseHub(time.Minute)
	st := store.NewSharded(store.Config{})
	if err := st.CreateCollection("c"); err != nil {
		t.Fatal(err)
	}
	hub.grant("home", []string{"c"}, st)
	for v := uint64(1); v <= 50; v++ {
		hub.invalidate(store.ChangeEvent{Coll: "c", Part: 3, Version: v})
	}
	h := hub.holder("home")
	h.mu.Lock()
	pending, queued := len(h.pending), len(h.order)
	inv := h.pending[invKey{coll: "c", part: 3}]
	h.mu.Unlock()
	if pending != 1 || queued != 1 {
		t.Fatalf("pending = %d queued = %d, want 1/1", pending, queued)
	}
	if inv.Version != 50 {
		t.Fatalf("coalesced version = %d, want 50", inv.Version)
	}
}

func TestLeaseExpiryStopsPushes(t *testing.T) {
	hub := newLeaseHub(10 * time.Millisecond)
	st := store.NewSharded(store.Config{})
	if err := st.CreateCollection("c"); err != nil {
		t.Fatal(err)
	}
	hub.grant("home", []string{"c"}, st)
	time.Sleep(25 * time.Millisecond)
	hub.invalidate(store.ChangeEvent{Coll: "c", Part: 0, Version: 9})
	h := hub.holder("home")
	h.mu.Lock()
	pending := len(h.pending)
	_, stillLeased := h.leases["c"]
	h.mu.Unlock()
	if pending != 0 {
		t.Fatalf("pending = %d after expiry, want 0", pending)
	}
	if stillLeased {
		t.Fatal("expired lease not reaped")
	}
}

func TestLeaseServerCloseBreaksLeases(t *testing.T) {
	w := newWorld(t)
	w.mustColl(t, "c")
	ls := startLeases(t, w, "c")
	if _, _, ok := ls.Serveable("c"); !ok {
		t.Fatal("lease not serveable")
	}

	w.dirSrv.Close()
	waitFor(t, 5*time.Second, func() bool {
		_, _, ok := ls.Serveable("c")
		return !ok
	})
	if st := ls.Stats(); st.Active || st.Breaks == 0 {
		t.Fatalf("stats = %+v, want inactive with breaks", st)
	}
}

func TestLeaseStopBreaksLeases(t *testing.T) {
	w := newWorld(t)
	w.mustColl(t, "c")
	ls := startLeases(t, w, "c")
	ls.Stop()
	if _, _, ok := ls.Serveable("c"); ok {
		t.Fatal("serveable after Stop")
	}
	// Stopped state can re-arm.
	if err := ls.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		_, _, ok := ls.Serveable("c")
		return ok
	})
}

// TestLeaseOldPeerDegrades pins the degradation: a node that does not
// serve the lease protocol answers ErrNoMethod and the client runs
// leaseless, with no error surfaced.
func TestLeaseOldPeerDegrades(t *testing.T) {
	w := newWorld(t)
	w.net.AddNode("old")
	// A server with no handlers at all: every method is ErrNoMethod.
	if err := w.bus.Register(rpc.NewServer(netsim.NodeID("old"))); err != nil {
		t.Fatal(err)
	}
	ls := NewLeaseState(w.client, "old", "c")
	if err := ls.Start(context.Background()); err != nil {
		t.Fatalf("start against a leaseless node: %v", err)
	}
	if st := ls.Stats(); st.Active {
		t.Fatalf("stats = %+v, want inactive", st)
	}
	if _, _, ok := ls.Serveable("c"); ok {
		t.Fatal("serveable with no lease protocol")
	}
}

func TestLeaseWatchSupersede(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	w.mustColl(t, "c")

	out1, _, err := w.bus.Call(ctx, "home", "dir", MethodWatch, WatchReq{})
	if err != nil {
		t.Fatal(err)
	}
	st1 := out1.(rpc.Streamer)
	out2, _, err := w.bus.Call(ctx, "home", "dir", MethodWatch, WatchReq{})
	if err != nil {
		t.Fatal(err)
	}
	st2 := out2.(rpc.Streamer)

	// The superseded stream ends cleanly; the new one still delivers.
	if _, ok := st1.Next(); ok {
		t.Fatal("superseded stream delivered a chunk")
	}
	w.dirSrv.leases.grant("home", []string{"c"}, w.dirSrv.Store())
	ref := w.mustPut(t, "s1", "a", "A")
	if err := w.client.Add(ctx, "dir", "c", ref); err != nil {
		t.Fatal(err)
	}
	chunk, ok := st2.Next()
	if !ok {
		t.Fatalf("live stream ended: %v", st2.Err())
	}
	inv := chunk.(Invalidation)
	if inv.Coll != "c" || inv.Version == 0 {
		t.Fatalf("invalidation = %+v", inv)
	}
}

// heldLease returns a lease state holding one lease on coll, confirmed
// now for term, as a grant installs it: no server and no stream.
func heldLease(coll string, term time.Duration) *LeaseState {
	ls := NewLeaseState(nil, "dir")
	now := time.Now()
	ls.leases.Store(&map[string]leaseEntry{coll: {version: 7, confirmed: now, expiry: now.Add(term)}})
	return ls
}

// TestServeableTakesNoLock holds the writers' lock across a Serveable:
// the hot-path read must not wait for a grant or a push in progress.
func TestServeableTakesNoLock(t *testing.T) {
	ls := heldLease("c", time.Minute)
	ls.mu.Lock()
	defer ls.mu.Unlock()
	done := make(chan bool, 1)
	go func() {
		_, _, ok := ls.Serveable("c")
		done <- ok
	}()
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("a held lease was not serveable")
		}
	case <-time.After(time.Second):
		t.Fatal("Serveable waited on the writers' lock")
	}
}

// TestServeableExpiresOnTheClientClock holds the one-clock-read expiry
// test to the rule it replaces: serveable while the age is inside the
// term, with 0 <= age < term, and not once the term has run out; an entry
// whose expiry precedes its confirmation (a push confirmed a version
// after the lease had lapsed) is never serveable; an inactive state
// serves nothing.
func TestServeableExpiresOnTheClientClock(t *testing.T) {
	const term = 5 * time.Millisecond
	ls := heldLease("c", term)
	start := time.Now()
	v, age, ok := ls.Serveable("c")
	if elapsed := time.Since(start); !ok && elapsed < term/2 {
		t.Fatalf("not serveable %v into a %v term", elapsed, term)
	}
	if ok && (v != 7 || age < 0 || age >= term) {
		t.Fatalf("served version %d at age %v, want 7 within [0, %v)", v, age, term)
	}
	time.Sleep(2 * term)
	if _, age, ok := ls.Serveable("c"); ok {
		t.Fatalf("served at age %v past a %v term", age, term)
	}

	now := time.Now()
	ls.leases.Store(&map[string]leaseEntry{"c": {version: 7, confirmed: now, expiry: now.Add(-time.Nanosecond)}})
	if _, _, ok := ls.Serveable("c"); ok {
		t.Fatal("served an entry that expired before its confirmation")
	}
	ls.leases.Store(nil)
	if _, _, ok := ls.Serveable("c"); ok || ls.Stats().Active {
		t.Fatal("an inactive state served a lease")
	}
}

// BenchmarkLeaseServeable is the per-invocation cost of the lease check
// a current-state run makes.
func BenchmarkLeaseServeable(b *testing.B) {
	ls := heldLease("set", time.Hour)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, ok := ls.Serveable("set"); !ok {
			b.Fatal("not serveable")
		}
	}
}
