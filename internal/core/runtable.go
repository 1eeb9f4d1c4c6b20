package core

import (
	"cmp"
	"slices"

	"weaksets/internal/netsim"
	"weaksets/internal/repo"
	"weaksets/internal/store"
)

// runTable is the membership state of one run of the elements iterator —
// the paper's s_first (or s_pre) and its history object yielded, Figs.
// 3–6 — held as what the wire delivered: the listing's partitions, each
// ascending by id, which a run walks partition-major, so its order key
// (partition, id) is a function of the ref. The cursor is a partition and
// a position in each, yielded one bitmap; nothing is keyed by id but the
// nodes. The table decides every invocation (decide) from a few counts
// and its cursor, and builds none of the kernel's maps: a test checks a
// run against its figure from the history of its decisions
// (Iterator.hist). A snapshot run grows its table a partition at a time
// (fold), a current-state run re-bases it on each listing it observes
// (adopt); a table is one or the other, since adopt aliases the
// listing's partitions, which fold writes.
type runTable struct {
	// version is the membership's listing version, which a lease
	// certifies.
	version uint64
	// parts holds the members by partition, each strictly ascending by id
	// and never written (a shared listing's, or the store's); at is each
	// partition's place in taken, a bit per member, set once yielded; cands
	// is the candidate window one replan hands the prefetcher
	// (Iterator.cursorCandidates), rewritten by the next. A run takes at,
	// taken and cands from its set at open and gives them back at Close
	// (Set.takeTable), so a set's runs allocate them once.
	parts [][]repo.Ref
	at    []partAt
	taken []uint64
	cands []member
	// cur is the cursor's partition, len(parts) when the cursor is empty:
	// its head is parts[cur][at[cur].pos].
	cur     int
	members int // refs across parts
	yielded int // of those, yielded
	// gone holds the yielded ids a current-state listing no longer lists
	// (yielded ⊆ s_first otherwise).
	gone []repo.ObjectID
	// nodes is the distinct nodes holding members: the domain of one
	// reachability sample.
	nodes map[netsim.NodeID]bool
	// down is the nodes the last sample found unreachable, nil when it
	// found all of them up, and reachGen the network generation read
	// before it was taken; the cursor is valid for that sample. sampled is
	// false until the first sample and again whenever nodes changes: a
	// fold that admits a node, and adopt, which takes the listing's node
	// set (a listing of as many nodes need not list the same ones).
	// downYielded counts the yielded members on down nodes.
	down        map[netsim.NodeID]bool
	reachGen    uint64
	sampled     bool
	downYielded int
}

// partAt is one partition's place in the table: off is the word of taken
// its bits start at, pos its cursor — the first index neither taken nor
// on a down node.
type partAt struct{ off, pos int32 }

// member is a ref with the partition the run table holds it in and its
// index there, which the walk that lists it carries along: (part, ID) is
// a run's yield order, and ordering two members hashes no id; (part, at)
// is its handle on the element cache in the listing the walk read.
type member struct {
	repo.Ref
	part, at int32
}

// same reports whether a and b are one member: one ref in one partition,
// wherever two listings of it placed it.
func same(a, b *member) bool { return a.part == b.part && a.Ref == b.Ref }

// before reports whether a comes before b in yield order; it takes
// pointers, since a member, at 40 bytes, is copied through memory.
func before(a, b *member) bool { return a.part < b.part || a.part == b.part && a.ID < b.ID }

// cmpMember orders members in yield order.
func cmpMember(a, b member) int {
	if c := cmp.Compare(a.part, b.part); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

func bitWords(n int) int { return (n + 63) / 64 }

func (t *runTable) isTaken(p, i int) bool {
	return t.taken[int(t.at[p].off)+i>>6]>>(i&63)&1 != 0
}

func (t *runTable) mark(p, i int) { t.taken[int(t.at[p].off)+i>>6] |= 1 << (i & 63) }

// skip moves partition p's cursor past taken members and members on down
// nodes.
func (t *runTable) skip(p int) {
	refs, a := t.parts[p], &t.at[p]
	for int(a.pos) < len(refs) && (t.isTaken(p, int(a.pos)) || t.down != nil && t.down[refs[a.pos].Node]) {
		a.pos++
	}
}

// advance moves the cursor's partition from cur on to the first whose
// cursor has a member left.
func (t *runTable) advance() {
	for t.cur < len(t.parts) && int(t.at[t.cur].pos) == len(t.parts[t.cur]) {
		t.cur++
	}
}

// admit notes the nodes holding refs and returns refs strictly ascending
// by id: as given when they already are — every partition the store
// ships — otherwise a sorted, de-duplicated copy, because the order comes
// from outside the program and the slice may not be ours to write.
func admit(nodes map[netsim.NodeID]bool, refs []repo.Ref) []repo.Ref {
	noteNodes(nodes, refs)
	for i := 1; i < len(refs); i++ {
		if refs[i-1].ID >= refs[i].ID {
			refs = slices.Clone(refs)
			slices.SortFunc(refs, func(a, b repo.Ref) int { return cmp.Compare(a.ID, b.ID) })
			return slices.CompactFunc(refs, func(a, b repo.Ref) bool { return a.ID == b.ID })
		}
	}
	return refs
}

// noteNodes adds the nodes holding refs to nodes. Nodes are few, so the
// map is written about once per node, not per ref: a ref's node is first
// compared with the last one noted under its name's final byte.
func noteNodes(nodes map[netsim.NodeID]bool, refs []repo.Ref) {
	var noted [256]netsim.NodeID
	for _, ref := range refs {
		last := byte(0)
		if n := len(ref.Node); n > 0 {
			last = ref.Node[n-1]
		}
		if noted[last] != ref.Node || ref.Node == "" {
			nodes[ref.Node], noted[last] = true, ref.Node
		}
	}
}

// resized returns buf at length n, cleared, in buf's own array when that
// is large enough.
func resized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// fold adds partition part of a stream's partitions to the table, moving
// the cursor back to it when it lies below. Partitions are disjoint — the
// store places an id in one (store.PartOf) — so no ref is looked up.
func (t *runTable) fold(part, partitions int, refs []repo.Ref) {
	if t.parts == nil {
		t.parts, t.at, t.cur = make([][]repo.Ref, partitions), resized(t.at, partitions), partitions
	}
	if t.nodes == nil {
		t.nodes = make(map[netsim.NodeID]bool, 8)
	}
	held := len(t.nodes)
	refs = admit(t.nodes, refs)
	t.sampled = t.sampled && len(t.nodes) == held
	t.parts[part], t.at[part] = refs, partAt{off: int32(len(t.taken))}
	t.taken = append(t.taken, make([]uint64, bitWords(len(refs)))...)
	t.members += len(refs)
	if t.skip(part); int(t.at[part].pos) < len(refs) {
		t.cur = min(t.cur, part)
	}
}

// adopt re-bases the table on l. A partition l shares with the table
// (listing.with keeps every one that did not move) keeps its taken bits
// and cursor; a moved one's yielded members are marked in l's copy of it
// straight from the old bits (carry), and only the ids it no longer lists
// — with those gone earlier — are looked up in the others (find): taken
// again where l lists them, gone otherwise. A listing of another partition
// count looks up every yielded id. It reports how many yielded ids l lists
// — the duplicates suppressed.
func (t *runTable) adopt(l *listing) (suppressed int) {
	aligned, again, n := len(t.parts) == len(l.parts), t.gone, 0
	for p := 0; !aligned && p < len(t.parts); p++ {
		again = t.carry(p, nil, t.parts[p], t.taken[t.at[p].off:], again)
	}
	was, wasParts, wasDown := t.taken, t.parts, t.down != nil
	for _, refs := range l.parts {
		n += bitWords(len(refs))
	}
	if t.parts == nil {
		t.taken = resized(t.taken, n) // a new run's table: nothing to carry
	} else {
		t.taken = make([]uint64, n)
	}
	t.members, n = 0, 0
	if !aligned {
		t.at = resized(t.at, len(l.parts))
	}
	for p, refs := range l.parts {
		a, words := &t.at[p], bitWords(len(refs))
		off, kept := a.off, aligned && sameRefs(wasParts[p], refs)
		a.off = int32(n)
		switch {
		case kept:
			copy(t.taken[n:n+words], was[off:])
		case aligned:
			again = t.carry(p, refs, wasParts[p], was[off:], again)
		}
		if !kept || wasDown {
			a.pos = 0
		}
		n, t.members = n+words, t.members+len(refs)
	}
	t.version, t.parts, t.nodes, t.cur = l.version, l.parts, l.nodes, len(l.parts) // no head while re-basing
	t.down, t.sampled, t.downYielded = nil, false, 0
	t.gone = again[:0]
	for _, id := range again {
		if p, i, ok := t.find(id); !ok {
			t.gone = append(t.gone, id)
		} else if !t.isTaken(p, i) {
			t.mark(p, i)
			t.yielded++
		}
	}
	for p := range t.parts {
		t.skip(p)
	}
	t.cur = 0
	t.advance()
	return t.yielded
}

// carry marks in refs — partition p of the listing adopt re-bases on,
// its bits at t.at[p].off — the yielded members of old, p's members
// before, their bits at bits[0]: both ascend by id, so it is one merge.
// It appends to again the yielded ids refs lacks.
func (t *runTable) carry(p int, refs, old []repo.Ref, bits []uint64, again []repo.ObjectID) []repo.ObjectID {
	j := 0
	for i := range old {
		if bits[i>>6]>>(i&63)&1 == 0 {
			continue
		}
		for j < len(refs) && refs[j].ID < old[i].ID {
			j++
		}
		if j < len(refs) && refs[j].ID == old[i].ID {
			t.mark(p, j)
		} else {
			again = append(again, old[i].ID)
			t.yielded--
		}
	}
	return again
}

// sameRefs reports whether a and b are one slice of refs.
func sameRefs(a, b []repo.Ref) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

func (t *runTable) yieldedCount() int { return t.yielded + len(t.gone) }

// unyielded is the cursor's length.
func (t *runTable) unyielded() int { return t.members - t.yielded }

// head is the cursor: the first unyielded member, in yield order, on a
// node the last sample found up — what the run yields next — and its
// partition, at index at[part].pos there. (A member, at 40 bytes, would
// be built in memory, not in registers, on every invocation.)
func (t *runTable) head() (ref repo.Ref, part int, ok bool) {
	if t.cur == len(t.parts) {
		return repo.Ref{}, 0, false
	}
	return t.parts[t.cur][t.at[t.cur].pos], t.cur, true
}

// find locates member id by binary search of its partition (store.PartOf)
// — or of the others, should a listing have placed it elsewhere: how
// adopt re-homes the yielded ids a re-based partition no longer lists. A
// yield looks nothing up: it is given its member's position.
func (t *runTable) find(id repo.ObjectID) (p, i int, ok bool) {
	if len(t.parts) == 0 {
		return 0, 0, false
	}
	home := store.PartOf(id, len(t.parts))
	if i, ok := t.search(home, id); ok {
		return home, i, true
	}
	for p := range t.parts {
		if i, ok := t.search(p, id); ok {
			return p, i, true
		}
	}
	return 0, 0, false
}

// search binary-searches partition p for id.
func (t *runTable) search(p int, id repo.ObjectID) (int, bool) {
	return slices.BinarySearchFunc(t.parts[p], id, func(ref repo.Ref, id repo.ObjectID) int { return cmp.Compare(ref.ID, id) })
}

// accepts reports whether m is an unyielded member on a node the last
// sample found up — what the figures' Yield may take in place of the head
// — and its index in m's partition, which the yield then marks. m is
// found at the position the walk that listed it read (m.at) while its
// partition still holds it there — checked by content — and searched for
// in a re-based one.
func (t *runTable) accepts(m member) (int32, bool) {
	p, i, ok := int(m.part), int(m.at), int(m.part) < len(t.parts)
	if ok && (i >= len(t.parts[p]) || t.parts[p][i].ID != m.ID) {
		i, ok = t.search(p, m.ID)
	}
	return int32(i), ok && t.parts[p][i] == m.Ref && !t.isTaken(p, i) && !t.down[m.Node]
}

// yield records member i of partition p as yielded and moves the cursor
// off it.
func (t *runTable) yield(p, i int) {
	if t.isTaken(p, i) {
		return
	}
	t.yielded++
	if t.down != nil && t.down[t.parts[p][i].Node] { // a dynamic run settling
		t.downYielded++
	}
	t.mark(p, i)
	if i == int(t.at[p].pos) {
		t.skip(p)
		t.advance()
	}
}

// remaining lists, in yield order with their places, the members not
// yielded: those a dynamic run settles, and Skipped's.
func (t *runTable) remaining() []member {
	out := make([]member, 0, t.unyielded())
	for p, refs := range t.parts {
		for i, ref := range refs {
			if !t.isTaken(p, i) {
				out = append(out, member{ref, int32(p), int32(i)})
			}
		}
	}
	return out
}

// window appends to out, in yield order from the cursor on, the unyielded
// members on nodes the last sample found up, until out holds limit.
func (t *runTable) window(out []member, limit int) []member {
	for p := t.cur; p < len(t.parts) && len(out) < limit; p++ {
		for i := int(t.at[p].pos); i < len(t.parts[p]) && len(out) < limit; i++ {
			if ref := t.parts[p][i]; !t.isTaken(p, i) && (t.down == nil || !t.down[ref.Node]) {
				out = append(out, member{ref, int32(p), int32(i)})
			}
		}
	}
	return out
}

// allReachable reports whether every member-holding node is reachable
// from the client, given the network generation gen read just before the
// call. Reachability is a function of the topology and the node set, so
// while neither has moved since the last sample its answer is the one a
// fresh sample would give, and only a move pays for one — per distinct
// node, not per member. A sample that finds a node down also moves the
// cursor past the members on it and counts the yielded ones, and one
// after such a sample rewinds the cursor over the members it passed: a
// pass over the table per topology move, and none while every node stays
// up. Yields in between take reachable members only (a settling dynamic
// run's aside), so the count stands until the next sample.
func (t *runTable) allReachable(gen uint64, reachable func(netsim.NodeID) bool) bool {
	if t.sampled && t.reachGen == gen {
		return t.down == nil
	}
	t.reachGen, t.sampled = gen, true
	wasDown := t.down != nil
	t.down, t.downYielded = nil, 0
	for node := range t.nodes {
		if !reachable(node) {
			if t.down == nil {
				t.down = make(map[netsim.NodeID]bool, 1)
			}
			t.down[node] = true
		}
	}
	if !wasDown && t.down == nil {
		return true
	}
	for p, refs := range t.parts {
		if wasDown {
			t.at[p].pos = 0
		}
		t.skip(p)
		for i := 0; t.down != nil && i < len(refs); i++ {
			if t.isTaken(p, i) && t.down[refs[i].Node] {
				t.downYielded++
			}
		}
	}
	t.cur = 0
	t.advance()
	return t.down == nil
}

// decide is the invocation's outcome — Figs. 3–6's ensures clauses, as
// Step decides them — over the reachability sample allReachable takes
// (gen, reachable), in O(1): from the unyielded members' count, whether
// the cursor has a head (an unyielded member on a node found up, which a
// yield chooses), and the yielded members on down nodes and gone from the
// listing. The governing membership is the table's: s_first under the
// snapshot semantics, the observed s_pre otherwise, and yielded ⊆
// reachable(governing) holds exactly when no yielded member is down and
// none has gone. An empty cursor decides alike on any sample and takes
// none, so a quiescent run's terminal Return costs nothing.
// ExhaustiveConformance holds it to Step. A dynamic run (dyn, OpenDyn)
// parts from Fig. 3 where a yielded member is out of reach: it yields
// every member it can reach, then settles where Fig. 3 fails.
func (t *runTable) decide(sem Semantics, dyn bool, gen uint64, reachable func(netsim.NodeID) bool) DecisionKind {
	unyielded := t.unyielded()
	if unyielded > 0 {
		t.allReachable(gen, reachable)
	}
	canYield := t.cur < len(t.parts)
	lost := !dyn && (t.downYielded > 0 || len(t.gone) > 0)
	snapshot, optimistic := sem.UsesSnapshot(), sem == Optimistic
	switch {
	case unyielded == 0 && (snapshot || optimistic), lost && snapshot:
		return DecideReturn // all yielded, or (Figs. 3–4) a yielded member out of reach
	case canYield && (!lost || optimistic):
		return DecideYield
	case optimistic:
		return DecideBlock // Fig. 6 never fails
	case unyielded == 0 && len(t.gone) == 0:
		return DecideReturn // Fig. 5: yielded = s_pre
	}
	return DecideFail
}
