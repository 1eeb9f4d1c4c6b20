package repo

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCacheStressRaw hammers a small-capacity cache from many goroutines
// mixing Put, Get, Len, and Stats, then checks the counter algebra. Run
// with -race this doubles as the data-race check for the eviction ring.
func TestCacheStressRaw(t *testing.T) {
	const (
		capacity = 32
		workers  = 8
		iters    = 2000
		keySpace = 128
	)
	c := NewCache(capacity)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := ObjectID(fmt.Sprintf("k%03d", (i*7+w*13)%keySpace))
				switch i % 3 {
				case 0:
					c.Put(Object{ID: id, Data: []byte{byte(w)}})
				case 1:
					if obj, ok := c.Get(id); ok && obj.ID != id {
						t.Errorf("got %q for key %q", obj.ID, id)
						return
					}
				default:
					if c.Len() > capacity {
						t.Errorf("len %d exceeds cap %d", c.Len(), capacity)
						return
					}
					c.Stats()
				}
			}
		}(w)
	}
	wg.Wait()

	st := c.Stats()
	if c.Len() > capacity {
		t.Fatalf("final len %d exceeds cap %d", c.Len(), capacity)
	}
	// Every store either still resides in the cache or was evicted:
	// Stores − Evictions must equal the live entry count exactly.
	if live := st.Stores - st.Evictions; live != int64(c.Len()) {
		t.Fatalf("stores(%d) − evictions(%d) = %d, but len = %d",
			st.Stores, st.Evictions, live, c.Len())
	}
	if st.StaleServes != 0 || st.Misses != 0 {
		t.Fatalf("raw Put/Get produced fetch counters: %+v", st)
	}
}

// TestCacheStressCoherent hammers the coherence surface — PutValidated,
// ServeFresh, MarkValidated, PutNegative, Version, Drop — from many
// goroutines over a key space larger than capacity, then checks that the
// entry ledger balances: every store is still resident, was evicted, or
// was dropped. With -race this is the data-race check for the stamp maps.
func TestCacheStressCoherent(t *testing.T) {
	const (
		capacity = 32
		workers  = 8
		iters    = 2000
		keySpace = 96
		colls    = 3
	)
	c := NewCache(capacity)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := ObjectID(fmt.Sprintf("k%03d", (i*11+w*17)%keySpace))
				coll := fmt.Sprintf("c%d", (i+w)%colls)
				ver := uint64(i%50 + 1)
				switch i % 6 {
				case 0:
					c.PutValidated(coll, ver, Object{ID: id, Version: ver, Data: []byte{byte(w)}})
				case 1:
					if obj, neg, ok := c.ServeFresh(coll, ver, id); ok && !neg && obj.ID != id {
						t.Errorf("served %q for key %q", obj.ID, id)
						return
					}
				case 2:
					if obj, ok := c.MarkValidated(coll, ver, id); ok && obj.ID != id {
						t.Errorf("validated %q for key %q", obj.ID, id)
						return
					}
				case 3:
					c.PutNegative(coll, ver, id)
				case 4:
					c.Version(id)
					if c.Len() > capacity {
						t.Errorf("len %d exceeds cap %d", c.Len(), capacity)
						return
					}
				default:
					c.Drop(id)
					c.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	st := c.Stats()
	if c.Len() > capacity {
		t.Fatalf("final len %d exceeds cap %d", c.Len(), capacity)
	}
	// Every stored entry is still live, was evicted by capacity, or was
	// dropped by an invalidation — nothing leaks, nothing double-counts.
	if live := st.Stores - st.Evictions - st.Drops; live != int64(c.Len()) {
		t.Fatalf("stores(%d) − evictions(%d) − drops(%d) = %d, but len = %d",
			st.Stores, st.Evictions, st.Drops, live, c.Len())
	}
	if st.StaleServes != 0 || st.Misses != 0 {
		t.Fatalf("coherence ops produced fetch counters: %+v", st)
	}
}

// TestCacheHandleServesNeverStale races serves by position — readers
// walking one shared listing's handles in order, as concurrent runs over
// one held listing do — against everything that unbinds a handle: a
// newer version Put over the entry, eviction by a stream of other ids
// through a cache smaller than the key space, Drop, and a newer missing
// verdict (PutNegativeAt). Each id's writer is one goroutine, so its
// versions rise in order; floor is the least version a serve may return
// once the last Put (or the missing verdict after it) has returned. Under
// -race this is the data-race check for the handles, the entries'
// atomic bits and the lock-free serve. Nothing may serve through a
// second listing's handles, whose layout (8 partitions) no install ever
// stamped.
func TestCacheHandleServesNeverStale(t *testing.T) {
	const (
		capacity = 32
		keySpace = 48
		writers  = 2
		readers  = 4
		iters    = 1500
	)
	c := NewCache(capacity)
	ids := make([]ObjectID, keySpace)
	for i := range ids {
		ids[i] = ObjectID(fmt.Sprintf("k%03d", i))
	}
	at := func(i int, parts int32, ver uint64) Stamp {
		return Stamp{Ver: ver, Part: int32(i) % parts, Parts: parts}
	}
	held, other := make([]Handle, keySpace), make([]Handle, keySpace)
	floor := make([]atomic.Uint64, keySpace)
	var served, bound atomic.Int64
	var stop atomic.Bool
	var wg, writing sync.WaitGroup
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			next := make([]uint64, keySpace)
			for n := 0; n < iters; n++ {
				i := (n*7 + w) % keySpace
				if i%writers != w {
					i = (i + 1) % keySpace
				}
				if n%9 == 8 {
					// A missing verdict newer than every stamp before it, so
					// it replaces the positive entry.
					c.PutNegativeAt(nil, "c", at(i, 4, 11+uint64(n)), ids[i])
					floor[i].Store(next[i] + 1)
					continue
				}
				next[i]++
				v := next[i]
				c.PutAt(nil, "c", at(i, 4, 10), Object{ID: ids[i], Version: v, Data: []byte(fmt.Sprint(v))})
				floor[i].Store(v)
				if n%16 == 0 {
					// Let the readers bind and serve between writes.
					time.Sleep(20 * time.Microsecond)
				}
			}
		}(w)
	}
	wg.Add(2)
	go func() { // evicts: other ids through the cache
		defer wg.Done()
		for n := 0; !stop.Load(); n++ {
			c.Put(Object{ID: ObjectID(fmt.Sprintf("f%04d", n%256)), Version: 1})
		}
	}()
	go func() { // drops
		defer wg.Done()
		for n := 0; !stop.Load(); n++ {
			c.Drop(ids[(n*5)%keySpace])
			time.Sleep(10 * time.Microsecond)
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				for i, id := range ids {
					least := floor[i].Load()
					if held[i].entry() != nil {
						bound.Add(1)
					}
					obj, neg, ok := c.ServeAt(&held[i], "c", at(i, 4, 10), id, nil)
					if ok && !neg {
						served.Add(1)
						if obj.ID != id || obj.Version < least || string(obj.Data) != fmt.Sprint(obj.Version) {
							t.Errorf("served %q v%d (data %q) for %q, whose Put of v%d had returned", obj.ID, obj.Version, obj.Data, id, least)
							return
						}
					}
					if _, _, ok := c.ServeAt(&other[i], "c", at(i, 8, 10), id, nil); ok {
						t.Errorf("served %q under a layout no install stamped", id)
						return
					}
				}
			}
		}()
	}
	writing.Wait()
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if served.Load() == 0 || bound.Load() == 0 {
		t.Fatalf("%d positive serves, %d through a bound handle: the race exercised nothing", served.Load(), bound.Load())
	}
	st := c.Stats()
	if live := st.Stores - st.Evictions - st.Drops; live != int64(c.Len()) {
		t.Fatalf("stores(%d) − evictions(%d) − drops(%d) = %d, but len = %d",
			st.Stores, st.Evictions, st.Drops, live, c.Len())
	}
}

// TestLeaseStressPushExpiryRace soaks the lease protocol under -race: a
// tiny server TTL keeps grant, piggyback renewal, client renewal, lazy
// expiry reaping, and invalidation pushes all racing, while reader
// goroutines hammer the hot-path surface (Serveable/Track/Stats) the
// way concurrent iterators on one shared client do. The invariant under
// all that churn: the certified version each reader observes never goes
// backwards, and the counter algebra stays coherent.
func TestLeaseStressPushExpiryRace(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	const (
		readers = 6
		writes  = 300
	)
	w.mustColl(t, "c")
	// 20ms TTL: short enough that the writer's quiet gaps (30ms, below)
	// lapse the lease server-side and exercise lazy expiry reaping, long
	// enough that the client's TTL/2 renewals keep it alive in between.
	w.dirSrv.SetLeaseTTL(20 * time.Millisecond)
	ls := NewLeaseState(w.client, "dir", "c")
	if err := ls.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer ls.Stop()

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for i := 0; i < writes; i++ {
			id := ObjectID(fmt.Sprintf("s%04d", i))
			ref := w.mustPut(t, "s1", id, "x")
			if err := w.client.Add(ctx, "dir", "c", ref); err != nil {
				t.Errorf("add %s: %v", id, err)
				return
			}
			if i%32 == 0 {
				// Go quiet past a full TTL so server-side reaping actually
				// fires (piggyback renewal on the writes otherwise keeps
				// the lease alive throughout).
				time.Sleep(30 * time.Millisecond)
			}
		}
	}()
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var last uint64
			for i := 0; !stop.Load(); i++ {
				v, age, ok := ls.Serveable("c")
				if ok {
					if v < last {
						t.Errorf("reader %d: certified version went backwards: %d after %d", g, v, last)
						return
					}
					last = v
					if age < 0 {
						t.Errorf("reader %d: negative lease age %v", g, age)
						return
					}
				}
				if i%8 == 0 {
					ls.Track("c")
					ls.Stats()
				}
				// Yield the processor each pass: on a small GOMAXPROCS a
				// spin loop would starve the renew/consume goroutines and
				// turn the soak into a clock test instead of a race test.
				time.Sleep(50 * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Quiesce, then check the ledger: the final listing version must be
	// catchable through the lease alone (re-grant or push), and the
	// counters must reflect real traffic.
	wantVer, err := w.dirSrv.Store().ListVersion("c")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		v, _, ok := ls.Serveable("c")
		return ok && v >= wantVer
	})
	st := ls.Stats()
	if !st.Active || st.Held != 1 {
		t.Fatalf("post-soak stats = %+v, want active with 1 held", st)
	}
	if st.Grants == 0 || st.Invalidations == 0 {
		t.Fatalf("soak exercised nothing: %+v", st)
	}
}
