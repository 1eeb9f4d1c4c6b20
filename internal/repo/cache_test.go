package repo

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

func TestCachePutGetLRU(t *testing.T) {
	c := NewCache(2)
	c.Put(Object{ID: "a", Data: []byte("1")})
	c.Put(Object{ID: "b", Data: []byte("2")})
	// Touch a so b becomes the LRU victim.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	c.Put(Object{ID: "c", Data: []byte("3")})
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted despite recent use")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	st := c.Stats()
	if st.Stores != 3 || st.Evictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheUpdateInPlace(t *testing.T) {
	c := NewCache(4)
	c.Put(Object{ID: "a", Data: []byte("old")})
	c.Put(Object{ID: "a", Data: []byte("new")})
	got, ok := c.Get("a")
	if !ok || string(got.Data) != "new" {
		t.Fatalf("got %v %q", ok, got.Data)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestCacheClonesEntries(t *testing.T) {
	c := NewCache(2)
	obj := Object{ID: "a", Data: []byte("abc")}
	c.Put(obj)
	obj.Data[0] = 'X'
	got, _ := c.Get("a")
	if string(got.Data) != "abc" {
		t.Fatal("cache aliased the stored object")
	}
	got.Data[0] = 'Y'
	again, _ := c.Get("a")
	if string(again.Data) != "abc" {
		t.Fatal("cache aliased the returned object")
	}
}

// TestCacheServesItsOwnCopy is the other half of the contract
// TestCacheClonesEntries holds Get to: the serves on the elements path
// hand out the entry itself — one array, however many runs it serves —
// so what goes in must be the cache's own copy, of the data, of the
// attributes and of the id (a decoded id may be a substring of a copy of
// its whole frame, which an entry must not keep alive).
func TestCacheServesItsOwnCopy(t *testing.T) {
	c := NewCache(4)
	frame := "....a...."
	data, attrs := []byte("abc"), map[string]string{"k": "v"}
	c.PutValidated("coll", 1, Object{ID: ObjectID(frame[4:5]), Version: 1, Data: data, Attrs: attrs})
	data[0], attrs["k"] = 'X', "changed"
	first, _, ok := c.ServeFresh("coll", 1, "a")
	if !ok || string(first.Data) != "abc" || first.Attrs["k"] != "v" {
		t.Fatalf("served %q %v after the caller rewrote its buffers", first.Data, first.Attrs)
	}
	if unsafe.StringData(string(first.ID)) == unsafe.StringData(frame[4:5]) {
		t.Fatal("the entry's id is a substring of the caller's frame")
	}
	again, ok := c.MarkValidated("coll", 2, "a")
	if !ok || &again.Data[0] != &first.Data[0] {
		t.Fatal("two serves of one entry did not share its array")
	}

	// A newer version replaces the entry's object whole: what was served
	// before is not written.
	data = []byte("def")
	c.Put(Object{ID: "a", Version: 2, Data: data})
	data[0] = 'X'
	if got, _, _ := c.ServeFresh("coll", 2, "a"); string(got.Data) != "def" || string(first.Data) != "abc" {
		t.Fatalf("after an update the cache serves %q and the earlier serve reads %q", got.Data, first.Data)
	}
}

func TestCacheMinimumCapacity(t *testing.T) {
	c := NewCache(0)
	c.Put(Object{ID: "a"})
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestCachePutVersionAware(t *testing.T) {
	c := NewCache(4)
	c.Put(Object{ID: "a", Version: 2, Data: []byte("v2")})
	// A slow fetch completing late must not clobber the newer copy.
	c.Put(Object{ID: "a", Version: 1, Data: []byte("v1")})
	got, ok := c.Get("a")
	if !ok || string(got.Data) != "v2" || got.Version != 2 {
		t.Fatalf("got %v %q v%d", ok, got.Data, got.Version)
	}
	// Equal or newer versions still update in place.
	c.Put(Object{ID: "a", Version: 3, Data: []byte("v3")})
	if got, _ := c.Get("a"); string(got.Data) != "v3" {
		t.Fatalf("newer put ignored: %q", got.Data)
	}
	if st := c.Stats(); st.Stores != 1 {
		t.Fatalf("in-place updates counted as stores: %+v", st)
	}
}

func TestCacheServeFreshStamps(t *testing.T) {
	c := NewCache(4)
	obj := Object{ID: "a", Version: 7, Data: []byte("data")}
	c.PutValidated("coll", 5, obj)

	// Runs at or below the stamp serve with no RPC.
	got, neg, ok := c.ServeFresh("coll", 5, "a")
	if !ok || neg || string(got.Data) != "data" {
		t.Fatalf("serve at stamp: ok=%v neg=%v data=%q", ok, neg, got.Data)
	}
	if _, _, ok := c.ServeFresh("coll", 3, "a"); !ok {
		t.Fatal("older listing image refused a newer entry")
	}
	// A newer listing image must revalidate.
	if _, _, ok := c.ServeFresh("coll", 6, "a"); ok {
		t.Fatal("served past the stamp")
	}
	// Another collection has no stamp for this entry.
	if _, _, ok := c.ServeFresh("other", 1, "a"); ok {
		t.Fatal("served under a collection that never observed the entry")
	}
	// A zero governing version can never prove freshness.
	if _, _, ok := c.ServeFresh("coll", 0, "a"); ok {
		t.Fatal("served with no governing listing version")
	}

	// NotModified advances the stamp; the same image then serves directly.
	if _, ok := c.MarkValidated("coll", 6, "a"); !ok {
		t.Fatal("MarkValidated refused a live entry")
	}
	if _, _, ok := c.ServeFresh("coll", 6, "a"); !ok {
		t.Fatal("stamp did not advance after validation")
	}

	// Validated under a second collection, the entry keeps both stamps.
	if _, ok := c.MarkValidated("other", 2, "a"); !ok {
		t.Fatal("MarkValidated refused a live entry")
	}
	_, _, underColl := c.ServeFresh("coll", 6, "a")
	_, _, underOther := c.ServeFresh("other", 2, "a")
	if !underColl || !underOther {
		t.Fatalf("serves under coll %v, under other %v: a second collection's stamp displaced the first", underColl, underOther)
	}

	// Bound answers as ServeFresh would and counts nothing.
	bound := func(ver uint64, id ObjectID) bool { return c.Bound(nil, "coll", Stamp{Ver: ver, Parts: 1}, id) }
	if !bound(6, "a") || bound(7, "a") || bound(0, "a") || bound(1, "never-cached") {
		t.Fatal("Bound disagrees with ServeFresh")
	}

	st := c.Stats()
	if st.Hits != 5 || st.ValidatedHits != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if want := int64(7 * len(obj.Data)); st.BytesSaved != want {
		t.Fatalf("bytesSaved = %d, want %d", st.BytesSaved, want)
	}
	if _, ok := c.MarkValidated("coll", 6, "never-cached"); ok {
		t.Fatal("validated an entry that is not cached")
	}
}

func TestCacheNegativeEntries(t *testing.T) {
	c := NewCache(4)
	c.PutNegative("coll", 5, "ghost")

	// A fresh negative entry answers "missing" with no round trip.
	_, neg, ok := c.ServeFresh("coll", 5, "ghost")
	if !ok || !neg {
		t.Fatalf("negative serve: ok=%v neg=%v", ok, neg)
	}
	// Past the stamp it must revalidate like any entry.
	if _, _, ok := c.ServeFresh("coll", 6, "ghost"); ok {
		t.Fatal("negative entry served past its stamp")
	}
	// Plain Get wants data, not a membership verdict.
	if _, ok := c.Get("ghost"); ok {
		t.Fatal("Get answered from a negative entry")
	}
	if _, ok := c.Version("ghost"); ok {
		t.Fatal("negative entry offered a version to validate")
	}
	if _, ok := c.MarkValidated("coll", 6, "ghost"); ok {
		t.Fatal("MarkValidated treated a negative entry as data")
	}

	// A missing report older than the cached validation must not win.
	c.PutValidated("coll", 8, Object{ID: "live", Version: 2, Data: []byte("x")})
	c.PutNegative("coll", 7, "live")
	if _, neg, ok := c.ServeFresh("coll", 8, "live"); !ok || neg {
		t.Fatalf("older missing report downgraded a newer entry: ok=%v neg=%v", ok, neg)
	}
	// A newer missing report does win, and a later resurrection wins again.
	c.PutNegative("coll", 9, "live")
	if _, neg, _ := c.ServeFresh("coll", 9, "live"); !neg {
		t.Fatal("newer missing report ignored")
	}
	c.PutValidated("coll", 10, Object{ID: "live", Version: 3, Data: []byte("y")})
	got, neg, ok := c.ServeFresh("coll", 10, "live")
	if !ok || neg || string(got.Data) != "y" {
		t.Fatalf("resurrected entry: ok=%v neg=%v data=%q", ok, neg, got.Data)
	}

	if st := c.Stats(); st.NegativeHits != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheDoCoalesces(t *testing.T) {
	c := NewCache(4)
	const callers = 8
	var executions atomic.Int64
	gate := make(chan struct{})
	results := make(chan int, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _ := c.Do("key", func() any {
				executions.Add(1)
				<-gate // hold the flight open until every caller has arrived
				return 42
			})
			results <- v.(int)
		}()
	}
	// Wait until the leader is inside fn, then give joiners time to queue.
	for executions.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(gate)
	wg.Wait()
	close(results)
	for v := range results {
		if v != 42 {
			t.Fatalf("joiner got %d", v)
		}
	}
	if n := executions.Load(); n != 1 {
		t.Fatalf("fn ran %d times", n)
	}
	// Everyone but the leader joined the flight.
	if st := c.Stats(); st.Coalesces != callers-1 {
		t.Fatalf("coalesces = %d, want %d", st.Coalesces, callers-1)
	}
	// Distinct keys do not coalesce.
	if _, shared := c.Do("other", func() any { return 1 }); shared {
		t.Fatal("fresh key reported shared")
	}
}

// TestCacheFallback pins the fallback role: an unreachable owner's member
// is answered from the cached copy and counted a stale serve, or counted
// a miss when nothing (or only a "missing" verdict) is cached.
func TestCacheFallback(t *testing.T) {
	c := NewCache(8)
	c.Put(Object{ID: "warm", Data: []byte("payload"), Version: 3})
	c.PutNegative("coll", 1, "ghost")

	obj, ok := c.Fallback("warm")
	if !ok || string(obj.Data) != "payload" || obj.Version != 3 {
		t.Fatalf("warm fallback = %+v, %v", obj, ok)
	}
	if _, ok := c.Fallback("never-fetched"); ok {
		t.Fatal("cold fallback answered")
	}
	if _, ok := c.Fallback("ghost"); ok {
		t.Fatal("a negative entry answered a fallback with data")
	}
	if st := c.Stats(); st.StaleServes != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 1 stale serve and 2 misses", st)
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache(16)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		g := g
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				id := ObjectID(fmt.Sprintf("o%d", (g*7+i)%32))
				c.Put(Object{ID: id, Data: []byte{byte(i)}})
				c.Get(id)
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if c.Len() > 16 {
		t.Fatalf("len = %d exceeds capacity", c.Len())
	}
}

// checkRing holds the CLOCK ring to its invariants: every entry sits in
// it once, at the slot it records, and the hand points into it.
func checkRing(t *testing.T, c *Cache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.ring) != len(c.entries) || len(c.ring) > c.cap {
		t.Fatalf("ring holds %d entries, the map %d, capacity %d", len(c.ring), len(c.entries), c.cap)
	}
	if c.hand != 0 && c.hand >= len(c.ring) {
		t.Fatalf("hand %d outside a ring of %d", c.hand, len(c.ring))
	}
	for i, e := range c.ring {
		if e.slot != i || c.entries[e.id] != e {
			t.Fatalf("ring slot %d holds %q recorded at slot %d", i, e.id, e.slot)
		}
	}
}

// cached reports which of ids the cache holds, touching no used bit.
func cached(c *Cache, ids ...ObjectID) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var b []byte
	for _, id := range ids {
		if _, ok := c.entries[id]; ok {
			b = append(b, id...)
		}
	}
	return string(b)
}

// TestCacheSecondChance walks the CLOCK eviction through a scripted
// sequence: an entry used since the hand last passed survives one sweep,
// an untouched one goes first, the hand wraps, a mid-ring Drop refills
// without an eviction, and Bound protects nothing.
func TestCacheSecondChance(t *testing.T) {
	c := NewCache(3)
	for _, id := range []ObjectID{"a", "b", "c"} {
		c.PutValidated("coll", 1, Object{ID: id, Version: 1, Data: []byte(id)})
	}
	checkRing(t, c)
	if _, _, ok := c.ServeFresh("coll", 1, "a"); !ok {
		t.Fatal("a not served")
	}
	// The hand clears a's bit and takes b, the oldest untouched entry.
	c.Put(Object{ID: "d"})
	if got := cached(c, "a", "b", "c", "d"); got != "acd" {
		t.Fatalf("after d the cache holds %q, want acd", got)
	}
	// Then c, untouched; the hand wraps to a's slot.
	c.Put(Object{ID: "e"})
	if got := cached(c, "a", "c", "d", "e"); got != "ade" || c.hand != 0 {
		t.Fatalf("after e the cache holds %q, hand %d; want ade, 0", got, c.hand)
	}
	checkRing(t, c)
	// a's second chance is spent: with d used, f takes a's slot.
	if _, ok := c.Get("d"); !ok {
		t.Fatal("d missing")
	}
	c.Put(Object{ID: "f"})
	if got := cached(c, "a", "d", "e", "f"); got != "def" {
		t.Fatalf("after f the cache holds %q, want def", got)
	}
	// The hand passes d, whose bit it clears, and takes e.
	c.Put(Object{ID: "g"})
	if got := cached(c, "d", "e", "f", "g"); got != "dfg" {
		t.Fatalf("after g the cache holds %q, want dfg", got)
	}
	checkRing(t, c)

	// A mid-ring Drop moves the last entry into its slot; the next insert
	// takes a new slot, no eviction.
	c.Drop("d")
	checkRing(t, c)
	c.Put(Object{ID: "h"})
	if got := cached(c, "f", "g", "h"); got != "fgh" || c.Stats().Evictions != 4 {
		t.Fatalf("after a drop and h the cache holds %q, %d evictions; want fgh, 4", got, c.Stats().Evictions)
	}
	checkRing(t, c)
	// Dropping the slot the hand points at leaves the hand inside the ring.
	c.mu.Lock()
	c.hand = len(c.ring) - 1
	last := c.ring[c.hand].id
	c.mu.Unlock()
	c.Drop(last)
	checkRing(t, c)

	// Bound answers without using the entry: it is the next victim all the
	// same.
	c = NewCache(2)
	c.PutValidated("coll", 1, Object{ID: "p", Version: 1})
	c.PutValidated("coll", 1, Object{ID: "q", Version: 1})
	if !c.Bound(nil, "coll", Stamp{Ver: 1, Parts: 1}, "p") {
		t.Fatal("p not fresh")
	}
	c.Put(Object{ID: "r"})
	if got := cached(c, "p", "q", "r"); got != "qr" {
		t.Fatalf("after a Bound probe of p the cache holds %q, want qr", got)
	}

	// Capacity 1: a used entry gets its chance, the hand wraps onto it
	// and takes it.
	c = NewCache(1)
	c.Put(Object{ID: "x"})
	c.Get("x")
	c.Put(Object{ID: "y"})
	if got := cached(c, "x", "y"); got != "y" || c.Stats().Evictions != 1 {
		t.Fatalf("capacity 1 holds %q after %d evictions; want y, 1", got, c.Stats().Evictions)
	}
	checkRing(t, c)

	// Negative entries take part like any other: a served one survives,
	// a new one starts with its bit clear.
	c = NewCache(2)
	c.PutNegative("coll", 1, "ghost")
	c.PutValidated("coll", 1, Object{ID: "live", Version: 1})
	if _, neg, ok := c.ServeFresh("coll", 1, "ghost"); !ok || !neg {
		t.Fatal("ghost not served negative")
	}
	c.PutNegative("coll", 1, "ghost2")
	if got := cached(c, "ghost", "live", "ghost2"); got != "ghostghost2" {
		t.Fatalf("after ghost2 the cache holds %q, want ghost and ghost2", got)
	}
	// Served again, ghost outlives ghost2, which was never served.
	c.ServeFresh("coll", 1, "ghost")
	c.Put(Object{ID: "z"})
	if got := cached(c, "ghost", "ghost2", "z"); got != "ghostz" {
		t.Fatalf("after z the cache holds %q, want ghost and z", got)
	}
	checkRing(t, c)
	if st := c.Stats(); st.Stores-st.Evictions-st.Drops != int64(c.Len()) {
		t.Fatalf("ledger: %+v, len %d", st, c.Len())
	}
}

// benchCache fills a cache with n entries fresh under ("set", 1), each
// with a 256-byte payload, and returns their ids.
func benchCache(n int) (*Cache, []ObjectID) {
	c := NewCache(n)
	ids := make([]ObjectID, n)
	for i := range ids {
		ids[i] = ObjectID(fmt.Sprintf("e%05d", i))
		c.PutValidated("set", 1, Object{ID: ids[i], Version: 1, Data: make([]byte, 256)})
	}
	return c, ids
}

// BenchmarkCacheServeFresh is the per-element cost of a warm run's serve
// over a 10 000-entry cache, ids in listing order: a set large enough
// that the entries do not all sit in the core's cache, so the probe's
// misses show.
func BenchmarkCacheServeFresh(b *testing.B) {
	c, ids := benchCache(10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := c.ServeFresh("set", 1, ids[i%len(ids)]); !ok {
			b.Fatal("miss")
		}
	}
}

// benchHandles binds a handle per id of a benchCache, as a warm run's
// first serves bind a held listing's: one listing partition, in order.
func benchHandles(c *Cache, ids []ObjectID) []Handle {
	hs := make([]Handle, len(ids))
	for i, id := range ids {
		if !c.Bound(&hs[i], "set", whole(1), id) {
			panic("benchCache entry not fresh")
		}
	}
	return hs
}

// BenchmarkCacheServeAt is BenchmarkCacheServeFresh by position: the same
// 10 000 entries walked in listing order through bound handles, which is
// what a warm run over its held listing pays per element.
func BenchmarkCacheServeAt(b *testing.B) {
	c, ids := benchCache(10_000)
	hs := benchHandles(c, ids)
	var tally Tally
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(ids)
		if _, _, ok := c.ServeAt(&hs[k], "set", whole(1), ids[k], &tally); !ok {
			b.Fatal("miss")
		}
	}
	b.StopTimer()
	c.Count(tally)
}
