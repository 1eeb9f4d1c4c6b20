package core

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"weaksets/internal/netsim"
	"weaksets/internal/repo"
	"weaksets/internal/sim"
	"weaksets/internal/spec"
	"weaksets/internal/store"
)

// newListing is a one-partition listing of refs at version.
func newListing(version uint64, refs []repo.Ref) *listing {
	l, err := (*listing)(nil).with([]repo.PartListing{{Partitions: 1, Members: refs, Version: version}}, nil)
	if err != nil {
		panic(err)
	}
	return l
}

// listedRefs lists l's members in yield order.
func listedRefs(l *listing) []repo.Ref { return slices.Concat(l.parts...) }

// yieldedIDs lists the history object yielded, in no order.
func yieldedIDs(t *runTable) []repo.ObjectID {
	out := slices.Clone(t.gone)
	for p, refs := range t.parts {
		for i, ref := range refs {
			if t.isTaken(p, i) {
				out = append(out, ref.ID)
			}
		}
	}
	return out
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
// map, a ref map, a merged cursor and a yielded map, all keyed by id —
// with the fold, adopt and cursor-skipping code that maintained them, and
// each member's partition, which orders the cursor partition-major. It
// stays here as the reference the table is held to.
type mapRun struct {
	members     map[repo.ObjectID]bool
	refs        map[repo.ObjectID]repo.Ref
	part        map[repo.ObjectID]int
	cursor      []repo.ObjectID
	at          int // head's position in cursor
	yielded     map[repo.ObjectID]bool
	yieldedGone int
	suppressed  int64
}

func newMapRun() *mapRun {
	return &mapRun{members: map[repo.ObjectID]bool{}, refs: map[repo.ObjectID]repo.Ref{}, part: map[repo.ObjectID]int{}, yielded: map[repo.ObjectID]bool{}}
}

// cmp orders ids in yield order: by partition, then id.
func (m *mapRun) cmp(a, b repo.ObjectID) int {
	if c := cmp.Compare(m.part[a], m.part[b]); c != 0 {
		return c
	}
	return cmp.Compare(a, b)
}

func (m *mapRun) fold(part int, refs []repo.Ref) {
	var fresh []repo.ObjectID
	for _, ref := range refs {
		if m.members[ref.ID] {
			continue
		}
		m.members[ref.ID] = true
		m.refs[ref.ID] = ref
		m.part[ref.ID] = part
		fresh = append(fresh, ref.ID)
	}
	slices.Sort(fresh)
	merged := make([]repo.ObjectID, 0, len(m.cursor)+len(fresh))
	i, j := 0, 0
	for i < len(m.cursor) && j < len(fresh) {
		if m.cmp(m.cursor[i], fresh[j]) <= 0 {
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

// adopt re-bases the oracle on refs, each in partition partOf(id).
func (m *mapRun) adopt(refs []repo.Ref, partOf func(repo.ObjectID) int) {
	m.members, m.refs, m.part = map[repo.ObjectID]bool{}, map[repo.ObjectID]repo.Ref{}, map[repo.ObjectID]int{}
	order := make([]repo.ObjectID, 0, len(refs))
	for _, ref := range refs {
		m.members[ref.ID] = true
		m.refs[ref.ID] = ref
		m.part[ref.ID] = partOf(ref.ID)
		order = append(order, ref.ID)
	}
	slices.SortFunc(order, m.cmp)
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

// head is the first unyielded member, in yield order, not on node down.
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
// yield through the script. held is the listing the run last adopted.
type tableVsOracle struct {
	t      *testing.T
	rnd    *sim.Rand
	it     *Iterator
	oracle *mapRun
	down   netsim.NodeID
	step   int
	held   *listing
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
	p.oracle.fold(part, refs)
	p.step++
}

// adopt re-bases both sides on refs, listed in partitions as the store
// places them: the table on the held listing with the partitions whose
// members changed replaced, as a gated read ships them, in the order
// given.
func (p *tableVsOracle) adopt(version uint64, partitions int, refs []repo.Ref) {
	p.t.Helper()
	frames := make([]repo.PartListing, partitions)
	for i := range frames {
		frames[i] = repo.PartListing{Part: i, Partitions: partitions, Version: version}
	}
	for _, ref := range refs {
		f := &frames[store.PartOf(ref.ID, partitions)]
		f.Members = append(f.Members, ref)
	}
	moved := frames[:0]
	for _, f := range frames {
		if p.held == nil || len(p.held.parts) != partitions || !sameMembers(f.Members, p.held.parts[f.Part]) {
			moved = append(moved, f)
		}
	}
	l, err := p.held.with(moved, nil)
	if err != nil {
		p.t.Fatal(err)
	}
	if l != p.held { // an observation that moved nothing adopts nothing
		p.it.adopt(l)
		p.held = l
		p.oracle.adopt(refs, func(id repo.ObjectID) int { return store.PartOf(id, partitions) })
	}
	p.step++
}

// sameMembers reports whether refs, in any order, are the members of
// part.
func sameMembers(refs, part []repo.Ref) bool {
	sorted := slices.Clone(refs)
	slices.SortFunc(sorted, func(a, b repo.Ref) int { return cmp.Compare(a.ID, b.ID) })
	return slices.Equal(sorted, part)
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
		got, part, gotOK := p.it.tab.head()
		if got != want || gotOK != ok || ok && part != p.oracle.part[want.ID] {
			p.t.Fatalf("step %d: head %v (partition %d) %v, oracle %v %v (down %q)", p.step, got, part, gotOK, want, ok, p.down)
		}
		if !ok {
			for _, m := range p.it.tab.remaining() {
				p.it.tab.yield(int(m.part), int(m.at))
				p.oracle.yielded[m.ID] = true
			}
			p.step++
			return
		}
		id, i := want.ID, int(p.it.tab.at[part].pos)
		if p.rnd.Intn(8) == 0 {
			for _, further := range p.oracle.cursor[p.rnd.Intn(len(p.oracle.cursor)):] {
				if !p.oracle.yielded[further] {
					id = further
					break
				}
			}
			if part, i, ok = p.it.tab.find(id); !ok || p.it.tab.parts[part][i] != p.oracle.refs[id] {
				p.t.Fatalf("step %d: find(%q) misses, oracle has %v", p.step, id, p.oracle.refs[id])
			}
		}
		p.it.tab.yield(part, i)
		p.oracle.yielded[id] = true
		p.step++
	}
}

// agree requires what a run can observe of its state to be equal on both
// sides: cursor order, the yielded set, yieldedGone, DuplicatesSuppressed
// and what a terminal decision would count as UnreachableSkipped — and
// the table's decision under each figure's clause, over its sample, to
// be Step's over the oracle's maps, yielding the first reachable
// unyielded member in yield order.
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
	got := yieldedIDs(tab)
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
	if got := historyRun(GrowOnly, []invocation{{parts: tab.parts, down: tab.down}}).First(); !sameSet(got.Members, pre.Members) || !sameSet(got.Reach, pre.Reach) {
		p.t.Fatalf("step %d: a recorded pre-state has %d members, %d reachable; oracle %d, %d", p.step, len(got.Members), len(got.Reach), len(pre.Members), len(pre.Reach))
	}
	yielded := make(map[spec.ElemID]bool, len(p.oracle.yielded))
	for id := range p.oracle.yielded {
		yielded[spec.ElemID(id)] = true
	}
	for _, sem := range []Semantics{Snapshot, GrowOnly, Optimistic} { // Figs. 3–4, 5 and 6
		if got, want := tab.decide(sem, false, 1, p.reachable), Step(sem, pre, pre, yielded); got != want.Kind {
			p.t.Fatalf("step %d: %s run table decides %v, kernel %v (down %q)", p.step, sem, got, want, p.down)
		}
	}
	want, wantOK := p.oracle.head(p.down)
	if got, _, ok := tab.head(); got != want || ok != wantOK {
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
// smaller than everything yielded so far appear. The listings are in up
// to seven partitions, of which mostly one moves at a time, so adopt keeps
// the others as they were; some seeds change the partition count midway.
func TestRunTableMatchesMapOracleAdopting(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		p := newTableVsOracle(t, seed)
		universe := testRefs(120)
		partitions := 1 + 2*int(seed%4)
		listed := make(map[repo.ObjectID]bool)
		// Start in the upper half, so smaller ids can appear later.
		for _, ref := range universe[60:] {
			if p.rnd.Intn(3) > 0 {
				listed[ref.ID] = true
			}
		}
		for version := uint64(1); version <= 12; version++ {
			if version == 7 && seed%5 == 4 {
				partitions = 1 + (partitions+2)%8
			}
			moving := p.rnd.Intn(partitions) // every partition, one listing in four
			for _, ref := range universe {
				if version%4 != 0 && store.PartOf(ref.ID, partitions) != moving {
					continue
				}
				switch {
				case p.oracle.yielded[ref.ID] && p.rnd.Intn(4) == 0:
					listed[ref.ID] = !listed[ref.ID] // a yielded id leaves, or returns
				case !p.oracle.yielded[ref.ID] && p.rnd.Intn(8) == 0:
					listed[ref.ID] = !listed[ref.ID] // smaller ids included
				}
			}
			var refs []repo.Ref
			for _, i := range p.rnd.Perm(len(universe)) { // admit sorts what a frame lists
				if listed[universe[i].ID] {
					refs = append(refs, universe[i])
				}
			}
			p.adopt(version, partitions, refs)
			p.agree()
			p.yields(p.rnd.Intn(25))
			p.agree()
		}
		p.yields(len(universe))
		p.agree()
	}
}

// TestAdoptRebasesOnlyTheMovedPartition: a 10 000-member table over 16
// partitions, half yielded, adopts a listing in which one partition moved
// (a member added): the other 15 stay the listing's own refs with their
// taken bits unchanged, the moved one's yielded members are taken again,
// and the adopt allocates at most twice — the new bitmap and, at most once,
// the ids it looks up again — with no sort and no pass over the others'
// members.
func TestAdoptRebasesOnlyTheMovedPartition(t *testing.T) {
	const n, partitions, moved = 10_000, 16, 10
	frames := make([]repo.PartListing, partitions)
	for p := range frames {
		frames[p] = repo.PartListing{Part: p, Partitions: partitions, Version: 1}
	}
	for _, ref := range testRefs(n) {
		f := &frames[store.PartOf(ref.ID, partitions)]
		f.Members = append(f.Members, ref)
	}
	l0, err := (*listing)(nil).with(frames, nil)
	if err != nil {
		t.Fatal(err)
	}
	added := repo.Ref{ID: "zz-added", Node: "n0"}
	grown := slices.Clone(l0.parts[store.PartOf(added.ID, partitions)])
	if store.PartOf(added.ID, partitions) != moved {
		t.Fatalf("%q is in partition %d, want %d", added.ID, store.PartOf(added.ID, partitions), moved)
	}
	l1, err := l0.with([]repo.PartListing{{Part: moved, Partitions: partitions, Version: 2, Members: append(grown, added)}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var tab runTable
	tab.adopt(l0)
	for i, ref := range testRefs(n) {
		if i%2 == 0 {
			p, at, _ := tab.find(ref.ID)
			tab.yield(p, at)
		}
	}
	taken := func() [][]bool {
		out := make([][]bool, partitions)
		for p, refs := range tab.parts {
			for i := range refs {
				out[p] = append(out[p], tab.isTaken(p, i))
			}
		}
		return out
	}
	before := taken()
	if got := tab.adopt(l1); got != n/2 || tab.yieldedCount() != n/2 || tab.members != n+1 {
		t.Fatalf("adopt suppressed %d, %d yielded of %d members; want %d, %d of %d", got, tab.yieldedCount(), tab.members, n/2, n/2, n+1)
	}
	after := taken()
	for p := range tab.parts {
		if p != moved && (!sameRefs(tab.parts[p], l0.parts[p]) || !slices.Equal(before[p], after[p])) {
			t.Fatalf("partition %d did not move, but adopt replaced its refs or changed its taken bits", p)
		}
	}
	if want := append(slices.Clone(before[moved]), false); !slices.Equal(after[moved], want) {
		t.Fatal("the moved partition's yielded members were not taken again")
	}
	if raceEnabled {
		return // allocation counts are not meaningful under -race
	}
	next, other := l0, l1
	if allocs := testing.AllocsPerRun(20, func() {
		tab.adopt(next)
		next, other = other, next
	}); allocs > 2 {
		t.Fatalf("an adopt with one partition moved allocated %.1f times, want at most 2", allocs)
	}
}

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
	snap.fold(0, 3, []repo.Ref{on("a", "n1"), on("b", "n2")})
	if !snap.allReachable(gen, reachable) {
		t.Fatal("n1 and n2 are up")
	}
	samples = 0
	snap.fold(2, 3, []repo.Ref{on("d", "n2")})
	if !snap.allReachable(gen, reachable) || samples != 0 {
		t.Fatalf("a fold that admitted no node cost %d reachability probes", samples)
	}
	snap.fold(1, 3, []repo.Ref{on("c", "n3")})
	if snap.allReachable(gen, reachable) {
		t.Fatal("folded in a partition on n3, which is down: the sample over {n1, n2} was kept")
	}
}

// BenchmarkRunTable is the layer's own microbenchmark: one warm 10k run's
// worth of membership bookkeeping and nothing else — an opening listing
// folded as its 16 partitions of ~625 refs, 10 000 yields off the cursor,
// and, when half are yielded, one adopt of a listing in which every
// partition moved (each re-shipped as a copy). On a 2-vCPU host it reads
// 0.37–0.56 ms, 4 672 B and 12 allocations an op; the adopt marks the
// 5 000 yielded members of the moved partitions straight from their taken
// bits, so it allocates only the new listing's bits.
func BenchmarkRunTable(b *testing.B) {
	const n, partitions = 10_000, 16
	frames := make([]repo.PartListing, partitions)
	for p := range frames {
		frames[p] = repo.PartListing{Part: p, Partitions: partitions, Version: 1}
	}
	for _, ref := range testRefs(n) {
		f := &frames[store.PartOf(ref.ID, partitions)]
		f.Members = append(f.Members, ref)
	}
	moved := make([]repo.PartListing, partitions)
	for p, f := range frames {
		moved[p] = repo.PartListing{Part: p, Partitions: partitions, Version: 2, Members: slices.Clone(f.Members)}
	}
	relisted, err := (*listing)(nil).with(moved, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := &Iterator{}
		for _, f := range frames {
			if err := it.fold(f); err != nil {
				b.Fatal(err)
			}
		}
		for y := 0; y < n; y++ {
			if y == n/2 {
				it.adopt(relisted)
			}
			_, part, ok := it.tab.head()
			if !ok {
				b.Fatalf("cursor empty after %d yields", y)
			}
			it.tab.yield(part, int(it.tab.at[part].pos))
		}
		if it.tab.unyielded() != 0 || it.wk.DuplicatesSuppressed != n/2 {
			b.Fatalf("%d unyielded, %d suppressed", it.tab.unyielded(), it.wk.DuplicatesSuppressed)
		}
	}
}
