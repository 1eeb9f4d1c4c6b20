package core

import (
	"fmt"
	"slices"
	"testing"

	"weaksets/internal/netsim"
	"weaksets/internal/repo"
	"weaksets/internal/sim"
	"weaksets/internal/spec"
)

// newListing is a one-partition listing of refs at version.
func newListing(version uint64, refs []repo.Ref) *listing {
	l, err := (*listing)(nil).with([]repo.PartListing{{Partitions: 1, Members: refs, Version: version}})
	if err != nil {
		panic(err)
	}
	return l
}

// cursorIDs lists the table's cursor — every unyielded member in yield
// order — without moving it.
func cursorIDs(it *Iterator) []repo.ObjectID {
	var ids []repo.ObjectID
	for _, ref := range it.Skipped() {
		ids = append(ids, ref.ID)
	}
	return ids
}

// mapRun is the run state as it was kept before the run table — a member
// map, a ref map, a merged id cursor and a yielded map, all keyed by id —
// with the fold, adopt and cursor-skipping code that maintained them. It
// stays here as the reference the table is held to.
type mapRun struct {
	members     map[repo.ObjectID]bool
	refs        map[repo.ObjectID]repo.Ref
	cursor      []repo.ObjectID
	at          int // head's position in cursor
	yielded     map[repo.ObjectID]bool
	yieldedGone int
	suppressed  int64
}

func newMapRun() *mapRun {
	return &mapRun{members: map[repo.ObjectID]bool{}, refs: map[repo.ObjectID]repo.Ref{}, yielded: map[repo.ObjectID]bool{}}
}

func (m *mapRun) fold(refs []repo.Ref) {
	var fresh []repo.ObjectID
	for _, ref := range refs {
		if m.members[ref.ID] {
			continue
		}
		m.members[ref.ID] = true
		m.refs[ref.ID] = ref
		fresh = append(fresh, ref.ID)
	}
	slices.Sort(fresh)
	merged := make([]repo.ObjectID, 0, len(m.cursor)+len(fresh))
	i, j := 0, 0
	for i < len(m.cursor) && j < len(fresh) {
		if m.cursor[i] <= fresh[j] {
			merged = append(merged, m.cursor[i])
			i++
		} else {
			merged = append(merged, fresh[j])
			j++
		}
	}
	m.cursor = append(append(merged, m.cursor[i:]...), fresh[j:]...)
	m.at = 0
}

func (m *mapRun) adopt(refs []repo.Ref) {
	m.members, m.refs = map[repo.ObjectID]bool{}, map[repo.ObjectID]repo.Ref{}
	order := make([]repo.ObjectID, 0, len(refs))
	for _, ref := range refs {
		m.members[ref.ID] = true
		m.refs[ref.ID] = ref
		order = append(order, ref.ID)
	}
	slices.Sort(order)
	m.yieldedGone = 0
	for id := range m.yielded {
		if !m.members[id] {
			m.yieldedGone++
		}
	}
	m.suppressed += int64(len(m.yielded) - m.yieldedGone)
	m.cursor = slices.DeleteFunc(order, func(id repo.ObjectID) bool { return m.yielded[id] })
	m.at = 0
}

// head is the smallest unyielded member not on node down.
func (m *mapRun) head(down netsim.NodeID) (repo.Ref, bool) {
	for m.at < len(m.cursor) && (m.yielded[m.cursor[m.at]] || m.refs[m.cursor[m.at]].Node == down) {
		m.at++
	}
	if m.at == len(m.cursor) {
		return repo.Ref{}, false
	}
	return m.refs[m.cursor[m.at]], true
}

// order is the cursor proper: what head would walk.
func (m *mapRun) order() []repo.ObjectID {
	var out []repo.ObjectID
	for _, id := range m.cursor {
		if !m.yielded[id] {
			out = append(out, id)
		}
	}
	return out
}

func (m *mapRun) unreachableSkipped() int { return len(m.members) - len(m.yielded) + m.yieldedGone }

// tableVsOracle drives a bare Iterator's run table and the map oracle
// through one script, side by side. down is the node (of testRefs' four)
// every reachability sample finds down — none on even seeds — so the
// table's down-node counts are built once and then kept by fold and
// yield through the script.
type tableVsOracle struct {
	t      *testing.T
	rnd    *sim.Rand
	it     *Iterator
	oracle *mapRun
	down   netsim.NodeID
	step   int
}

// sample is the table's reachability sample, as Iterator.decide takes it
// before every decision: taken afresh only when fold or adopt changed the
// node set, since the topology never moves.
func (p *tableVsOracle) sample() { p.it.tab.allReachable(1, p.reachable) }

func (p *tableVsOracle) reachable(node netsim.NodeID) bool { return node != p.down }

func newTableVsOracle(t *testing.T, seed int64) *tableVsOracle {
	p := &tableVsOracle{t: t, rnd: sim.NewRand(seed), it: &Iterator{}, oracle: newMapRun()}
	if seed%2 == 1 {
		p.down = "n3"
	}
	return p
}

func (p *tableVsOracle) fold(part, partitions int, refs []repo.Ref) {
	p.t.Helper()
	if err := p.it.fold(repo.PartListing{Part: part, Partitions: partitions, Version: 1, Members: refs}); err != nil {
		p.t.Fatal(err)
	}
	p.oracle.fold(refs)
	p.step++
}

func (p *tableVsOracle) adopt(version uint64, refs []repo.Ref) {
	p.it.adopt(newListing(version, refs))
	p.oracle.adopt(refs)
	p.step++
}

// yields takes n members on both sides: the cursor's head, or one time in
// eight a member chosen by id from further down, as a landed batch
// stands in for the head, and once only members on the down node are
// left, those, as a dynamic run settles them.
func (p *tableVsOracle) yields(n int) {
	p.t.Helper()
	for ; n > 0; n-- {
		p.sample()
		want, ok := p.oracle.head(p.down)
		got, gotOK := p.it.tab.head()
		if got != want || gotOK != ok {
			p.t.Fatalf("step %d: head %v %v, oracle %v %v (down %q)", p.step, got, gotOK, want, ok, p.down)
		}
		if !ok {
			for _, ref := range p.it.Skipped() {
				p.it.tab.yield(ref.ID)
				p.oracle.yielded[ref.ID] = true
			}
			p.step++
			return
		}
		id := want.ID
		if p.rnd.Intn(8) == 0 {
			for _, further := range p.oracle.cursor[p.rnd.Intn(len(p.oracle.cursor)):] {
				if !p.oracle.yielded[further] {
					id = further
					break
				}
			}
			if run, i := p.it.tab.find(id); run == nil || run.refs[i] != p.oracle.refs[id] {
				p.t.Fatalf("step %d: find(%q) misses, oracle has %v", p.step, id, p.oracle.refs[id])
			}
		}
		p.it.tab.yield(id)
		p.oracle.yielded[id] = true
		p.step++
	}
}

// agree requires what a run can observe of its state to be equal on both
// sides: cursor order, the yielded set, yieldedGone, DuplicatesSuppressed
// and what a terminal decision would count as UnreachableSkipped — and
// the table's decision under each figure's clause, over its sample, to
// be Step's over the oracle's maps, yielding the smallest reachable
// unyielded member.
func (p *tableVsOracle) agree() {
	p.t.Helper()
	tab := &p.it.tab
	if got, want := cursorIDs(p.it), p.oracle.order(); !slices.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		p.t.Fatalf("step %d: cursor has %d ids, oracle %d; they part at %d:\n table  %v\n oracle %v", p.step, len(got), len(want), i, got[i:min(i+4, len(got))], want[i:min(i+4, len(want))])
	}
	wantYielded := make([]repo.ObjectID, 0, len(p.oracle.yielded))
	for id := range p.oracle.yielded {
		wantYielded = append(wantYielded, id)
	}
	slices.Sort(wantYielded)
	got := tab.yieldedIDs()
	slices.Sort(got)
	if !slices.Equal(got, wantYielded) || tab.yieldedCount() != len(wantYielded) {
		p.t.Fatalf("step %d: yielded %d ids (count %d), oracle %d", p.step, len(got), tab.yieldedCount(), len(wantYielded))
	}
	if len(tab.gone) != p.oracle.yieldedGone {
		p.t.Fatalf("step %d: yieldedGone %d, oracle %d", p.step, len(tab.gone), p.oracle.yieldedGone)
	}
	if p.it.wk.DuplicatesSuppressed != p.oracle.suppressed {
		p.t.Fatalf("step %d: DuplicatesSuppressed %d, oracle %d", p.step, p.it.wk.DuplicatesSuppressed, p.oracle.suppressed)
	}
	before := p.it.wk.UnreachableSkipped
	p.it.countSkipped()
	if got := int(p.it.wk.UnreachableSkipped - before); got != p.oracle.unreachableSkipped() {
		p.t.Fatalf("step %d: UnreachableSkipped %d, oracle %d", p.step, got, p.oracle.unreachableSkipped())
	}
	p.sample()
	pre := spec.State{Members: map[spec.ElemID]bool{}, Reach: map[spec.ElemID]bool{}}
	for id := range p.oracle.members {
		pre.Members[spec.ElemID(id)] = true
		if p.oracle.refs[id].Node != p.down {
			pre.Reach[spec.ElemID(id)] = true
		}
	}
	if got := tab.preState(); !sameSet(got.Members, pre.Members) || !sameSet(got.Reach, pre.Reach) {
		p.t.Fatalf("step %d: a recorded pre-state has %d members, %d reachable; oracle %d, %d", p.step, len(got.Members), len(got.Reach), len(pre.Members), len(pre.Reach))
	}
	yielded := make(map[spec.ElemID]bool, len(p.oracle.yielded))
	for id := range p.oracle.yielded {
		yielded[spec.ElemID(id)] = true
	}
	for _, sem := range []Semantics{Snapshot, GrowOnly, Optimistic} { // Figs. 3–4, 5 and 6
		if got, want := tab.decide(sem, 1, p.reachable), Step(sem, pre, pre, yielded); got != want.Kind {
			p.t.Fatalf("step %d: %s run table decides %v, kernel %v (down %q)", p.step, sem, got, want, p.down)
		}
	}
	want, wantOK := p.oracle.head(p.down)
	if got, ok := tab.head(); got != want || ok != wantOK {
		p.t.Fatalf("step %d: cursor at %v %v, oracle %v %v (down %q)", p.step, got, ok, want, wantOK, p.down)
	}
}

func testRefs(n int) []repo.Ref {
	refs := make([]repo.Ref, n)
	for i := range refs {
		refs[i] = repo.Ref{ID: repo.ObjectID(fmt.Sprintf("m%06d", i)), Node: netsim.NodeID(fmt.Sprintf("n%d", i%4))}
	}
	return refs
}

// partitionLayouts are the ways an opening listing reaches fold: a pin's
// contiguous ranges in and out of order, the live listing's hash
// partitions (interleaved ids) in arrival order, and a layout where half
// the partitions are empty. Each returns the frames in fold order.
var partitionLayouts = map[string]func(rnd *sim.Rand, refs []repo.Ref, partitions int) [][]repo.Ref{
	"ranges in order": func(_ *sim.Rand, refs []repo.Ref, partitions int) [][]repo.Ref {
		return rangeParts(refs, partitions)
	},
	"ranges reversed": func(_ *sim.Rand, refs []repo.Ref, partitions int) [][]repo.Ref {
		parts := rangeParts(refs, partitions)
		slices.Reverse(parts)
		return parts
	},
	"hash partitions": func(rnd *sim.Rand, refs []repo.Ref, partitions int) [][]repo.Ref {
		return hashParts(rnd, refs, partitions, partitions)
	},
	"empty partitions": func(rnd *sim.Rand, refs []repo.Ref, partitions int) [][]repo.Ref {
		return hashParts(rnd, refs, partitions, (partitions+1)/2)
	},
}

func rangeParts(refs []repo.Ref, partitions int) [][]repo.Ref {
	parts := make([][]repo.Ref, partitions)
	for p := range parts {
		parts[p] = refs[p*len(refs)/partitions : (p+1)*len(refs)/partitions]
	}
	return parts
}

// hashParts deals refs over the first used of partitions by a
// multiplicative hash of their position and shuffles the arrival order.
func hashParts(rnd *sim.Rand, refs []repo.Ref, partitions, used int) [][]repo.Ref {
	parts := make([][]repo.Ref, partitions)
	for i, ref := range refs {
		p := int(uint32(i)*2654435761>>16) % used
		parts[p] = append(parts[p], ref)
	}
	shuffled := make([][]repo.Ref, partitions)
	for i, p := range rnd.Perm(partitions) {
		shuffled[i] = parts[p]
	}
	return shuffled
}

// TestRunTableMatchesMapOracleFolding plays opening listings into the
// table and the oracle partition by partition, with yields between the
// folds, and requires them equal after every fold and every burst of
// yields, through to the drained cursor.
func TestRunTableMatchesMapOracleFolding(t *testing.T) {
	for name, layout := range partitionLayouts {
		layout := layout
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 40; seed++ {
				p := newTableVsOracle(t, seed)
				n, partitions := p.rnd.Intn(300), 1+p.rnd.Intn(16)
				for part, refs := range layout(p.rnd, testRefs(n), partitions) {
					p.fold(part, partitions, refs)
					p.agree()
					p.yields(p.rnd.Intn(40))
					p.agree()
				}
				p.yields(n + 1)
				p.agree()
				if p.it.tab.unyielded() != 0 {
					t.Fatalf("seed %d: %d members left after the drain", seed, p.it.tab.unyielded())
				}
			}
		})
	}
}

// TestRunTableMatchesMapOracleAtScale folds 70 001 members as 16 hash
// partitions — past the size at which the run state used to switch to
// pre-sized maps built on a goroutine of their own — with yields between
// the folds, and drains the cursor against the oracle's.
func TestRunTableMatchesMapOracleAtScale(t *testing.T) {
	const n, partitions = 70_001, 16
	p := newTableVsOracle(t, 1)
	for part, refs := range hashParts(p.rnd, testRefs(n), partitions, partitions) {
		p.fold(part, partitions, refs)
		p.yields(1500)
		p.agree()
	}
	p.yields(n)
	p.agree()
	if p.it.tab.members != n || p.it.tab.unyielded() != 0 {
		t.Fatalf("%d members, %d unyielded; want %d, 0", p.it.tab.members, p.it.tab.unyielded(), n)
	}
}

// TestRunTableMatchesMapOracleAdopting re-bases both sides on a sequence
// of whole listings, as a current-state run's observations do, with
// yields in between: yielded ids leave the listing, come back, and ids
// smaller than everything yielded so far appear.
func TestRunTableMatchesMapOracleAdopting(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		p := newTableVsOracle(t, seed)
		universe := testRefs(120)
		listed := make(map[repo.ObjectID]bool)
		// Start in the upper half, so smaller ids can appear later.
		for _, ref := range universe[60:] {
			if p.rnd.Intn(3) > 0 {
				listed[ref.ID] = true
			}
		}
		for version := uint64(1); version <= 12; version++ {
			for _, ref := range universe {
				switch {
				case p.oracle.yielded[ref.ID] && p.rnd.Intn(4) == 0:
					listed[ref.ID] = !listed[ref.ID] // a yielded id leaves, or returns
				case !p.oracle.yielded[ref.ID] && p.rnd.Intn(8) == 0:
					listed[ref.ID] = !listed[ref.ID] // smaller ids included
				}
			}
			var refs []repo.Ref
			for _, i := range p.rnd.Perm(len(universe)) { // newListing sorts what it is given
				if listed[universe[i].ID] {
					refs = append(refs, universe[i])
				}
			}
			p.adopt(version, refs)
			p.agree()
			p.yields(p.rnd.Intn(25))
			p.agree()
		}
		p.yields(len(universe))
		p.agree()
	}
}

// BenchmarkRunTable is the layer's own microbenchmark: one warm 10k run's
// worth of membership bookkeeping and nothing else — an opening listing
// folded as 16 hash partitions of 625 refs, 10 000 yields off the cursor,
// and one adopt of the whole listing when half are yielded.
// TestReachabilitySampleFollowsTheNodeSet holds the half of the gate the
// network's generation cannot see: the node set a sample ranges over. With
// the topology standing still, a listing adopted over as many nodes but
// not the same ones, and a partition folded in from a node not yet held,
// must each be sampled afresh; a fold over nodes already held must not.
func TestReachabilitySampleFollowsTheNodeSet(t *testing.T) {
	net := netsim.New(netsim.Config{})
	for _, n := range []netsim.NodeID{"n1", "n2", "n3"} {
		net.AddNode(n)
	}
	net.Crash("n3")
	gen, samples := net.Generation(), 0
	reachable := func(n netsim.NodeID) bool { samples++; return net.Reachable("n1", n) }
	on := func(id string, n netsim.NodeID) repo.Ref { return repo.Ref{ID: repo.ObjectID(id), Node: n} }

	var cur runTable
	cur.adopt(newListing(1, []repo.Ref{on("a", "n1"), on("b", "n2")}))
	if !cur.allReachable(gen, reachable) {
		t.Fatal("n1 and n2 are up")
	}
	cur.adopt(newListing(2, []repo.Ref{on("a", "n1"), on("c", "n3")}))
	if cur.allReachable(gen, reachable) {
		t.Fatal("adopted a listing over {n1, n3} with n3 down: the sample over {n1, n2} was kept")
	}

	var snap runTable
	snap.fold([]repo.Ref{on("a", "n1"), on("b", "n2")})
	if !snap.allReachable(gen, reachable) {
		t.Fatal("n1 and n2 are up")
	}
	samples = 0
	snap.fold([]repo.Ref{on("d", "n2")})
	if !snap.allReachable(gen, reachable) || samples != 0 {
		t.Fatalf("a fold that admitted no node cost %d reachability probes", samples)
	}
	snap.fold([]repo.Ref{on("c", "n3")})
	if snap.allReachable(gen, reachable) {
		t.Fatal("folded in a partition on n3, which is down: the sample over {n1, n2} was kept")
	}
}

func BenchmarkRunTable(b *testing.B) {
	const n, partitions = 10_000, 16
	refs := testRefs(n)
	parts := hashParts(sim.NewRand(1), refs, partitions, partitions)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := &Iterator{}
		for part, members := range parts {
			if err := it.fold(repo.PartListing{Part: part, Partitions: partitions, Version: 1, Members: members}); err != nil {
				b.Fatal(err)
			}
		}
		for y := 0; y < n; y++ {
			if y == n/2 {
				it.adopt(newListing(2, refs))
			}
			head, ok := it.tab.head()
			if !ok {
				b.Fatalf("cursor empty after %d yields", y)
			}
			it.tab.yield(head.ID)
		}
		if it.tab.unyielded() != 0 || it.wk.DuplicatesSuppressed != n/2 {
			b.Fatalf("%d unyielded, %d suppressed", it.tab.unyielded(), it.wk.DuplicatesSuppressed)
		}
	}
}
