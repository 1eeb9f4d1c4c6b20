package core

import (
	"cmp"
	"slices"

	"weaksets/internal/netsim"
	"weaksets/internal/repo"
	"weaksets/internal/spec"
)

// runTable is the membership state of one run of the elements iterator —
// the paper's s_first (or s_pre) and its history object yielded, Figs.
// 3–6 — held as what the wire delivered: sorted runs of refs. The store
// ships every listing and partition ascending by id, so members stay as
// decoded, the cursor is a position per run merged through a heap —
// past the members on down nodes too, while a sample finds one — and
// yielded is a bit per position. Nothing is keyed by id but the nodes.
// The table decides every invocation (decide) from a few counts and its
// cursor; the maps the kernel is specified over are assembled only for a
// Recorder (preState). A snapshot run grows its table a partition at a time
// (fold), a current-state run re-bases it on each whole listing it
// observes (adopt); a table is one or the other, since adopt shares the
// listing's node set, which fold writes.
type runTable struct {
	// version is the membership's listing version, which anchors the
	// cache's freshness check.
	version uint64
	// runs is a min-heap on the id under each run's cursor, exhausted runs
	// last: runs[0] holds the run's cursor, the smallest unyielded member
	// on a node the last sample found up.
	runs    []refRun
	members int // refs across runs
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
	// fold that admits a node, and adopt, which replaces the table (a
	// listing of as many nodes need not list the same ones).
	// downYielded counts the yielded members on down nodes.
	down        map[netsim.NodeID]bool
	reachGen    uint64
	sampled     bool
	downYielded int
	// lastRun and lastAt are find's last by-search hit, checked by
	// content before reuse: ids are unique across runs, so a match is the
	// member whatever reordered the runs since.
	lastRun, lastAt int
}

// refRun is one sorted run of members. refs ascend by id and are never
// written — they may be a shared listing's or, on the in-process bus, the
// store's own; bit i of taken says refs[i] is yielded; pos is the run's
// cursor, the first index neither taken nor on a down node.
type refRun struct {
	refs  []repo.Ref
	taken []uint64
	pos   int
}

func newRefRun(refs []repo.Ref) refRun {
	return refRun{refs: refs, taken: make([]uint64, (len(refs)+63)/64)}
}

func (r *refRun) isTaken(i int) bool { return r.taken[i>>6]>>(i&63)&1 != 0 }

// take marks refs[i] yielded and keeps pos off taken refs and refs on
// down nodes.
func (r *refRun) take(i int, down map[netsim.NodeID]bool) {
	r.taken[i>>6] |= 1 << (i & 63)
	r.skip(down)
}

func (r *refRun) skip(down map[netsim.NodeID]bool) {
	for r.pos < len(r.refs) && (r.isTaken(r.pos) || down != nil && down[r.refs[r.pos].Node]) {
		r.pos++
	}
}

// admit notes the nodes holding refs and returns refs strictly ascending
// by id: as given when they already are — every listing the store ships —
// otherwise a sorted, de-duplicated copy, because the order comes from
// outside the program and the slice may not be ours to write.
func admit(nodes map[netsim.NodeID]bool, refs []repo.Ref) []repo.Ref {
	sorted := true
	for i := range refs {
		sorted = sorted && (i == 0 || refs[i-1].ID < refs[i].ID)
		if i == 0 || refs[i-1].Node != refs[i].Node {
			nodes[refs[i].Node] = true
		}
	}
	if sorted {
		return refs
	}
	refs = slices.Clone(refs)
	slices.SortFunc(refs, func(a, b repo.Ref) int { return cmp.Compare(a.ID, b.ID) })
	return slices.CompactFunc(refs, func(a, b repo.Ref) bool { return a.ID == b.ID })
}

// fold adds one partition's members as one more run under the cursor.
// Partitions are disjoint — an id hashes to one, live or pinned — so no
// ref is looked up.
func (t *runTable) fold(refs []repo.Ref) {
	if t.nodes == nil {
		t.nodes = make(map[netsim.NodeID]bool, 8)
	}
	held := len(t.nodes)
	refs = admit(t.nodes, refs)
	t.sampled = t.sampled && len(t.nodes) == held
	if len(refs) > 0 {
		run := newRefRun(refs)
		run.skip(t.down)
		t.runs = append(t.runs, run)
		t.members += len(refs)
		t.reheap()
	}
}

// adopt re-bases the table on l: l's refs in yield order less what the
// run already yielded, found by walking the two ascending sequences
// together. It reports how many yielded ids l lists again — the
// duplicates the run suppresses.
func (t *runTable) adopt(l *listing) (suppressed int) {
	was := t.yieldedIDs()
	slices.Sort(was)
	*t = runTable{version: l.version, runs: append(t.runs[:0], newRefRun(l.sorted)), members: len(l.sorted), nodes: l.nodes}
	run, i := &t.runs[0], 0
	for _, id := range was {
		for i < len(run.refs) && run.refs[i].ID < id {
			i++
		}
		if i < len(run.refs) && run.refs[i].ID == id {
			run.take(i, nil)
			t.yielded++
		} else {
			t.gone = append(t.gone, id)
		}
	}
	return t.yielded
}

// yieldedIDs lists the history object yielded, in no order.
func (t *runTable) yieldedIDs() []repo.ObjectID {
	out := append(make([]repo.ObjectID, 0, t.yieldedCount()), t.gone...)
	for r := range t.runs {
		for i, ref := range t.runs[r].refs {
			if t.runs[r].isTaken(i) {
				out = append(out, ref.ID)
			}
		}
	}
	return out
}

func (t *runTable) yieldedCount() int { return t.yielded + len(t.gone) }

// unyielded is the cursor's length.
func (t *runTable) unyielded() int { return t.members - t.yielded }

// head is the cursor: the smallest unyielded member on a node the last
// sample found up — what the run yields next.
func (t *runTable) head() (repo.Ref, bool) {
	if len(t.runs) == 0 || t.runs[0].pos == len(t.runs[0].refs) {
		return repo.Ref{}, false
	}
	return t.runs[0].refs[t.runs[0].pos], true
}

// find locates member id: the cursor's head, or the last id found (a
// yield in place of the head is looked up to accept it, then to mark
// it), at no cost; any other by binary search of the runs — one
// on a table opened on a whole listing, a partition's each while a
// stream folds.
func (t *runTable) find(id repo.ObjectID) (run *refRun, i int) {
	if head, ok := t.head(); ok && head.ID == id {
		return &t.runs[0], t.runs[0].pos
	}
	if r, i := t.lastRun, t.lastAt; r < len(t.runs) && i < len(t.runs[r].refs) && t.runs[r].refs[i].ID == id {
		return &t.runs[r], i
	}
	for r := range t.runs {
		if i, ok := slices.BinarySearchFunc(t.runs[r].refs, id, cmpRefID); ok {
			t.lastRun, t.lastAt = r, i
			return &t.runs[r], i
		}
	}
	return nil, 0
}

// cmpRefID orders a ref against an id: the binary search over refs sorted
// by id that the run table and the prefetcher's chunks both do.
func cmpRefID(ref repo.Ref, id repo.ObjectID) int { return cmp.Compare(ref.ID, id) }

// yield records member id as yielded and moves the cursor off it.
func (t *runTable) yield(id repo.ObjectID) {
	run, i := t.find(id)
	if run == nil || run.isTaken(i) {
		return
	}
	t.yielded++
	if t.down[run.refs[i].Node] { // a dynamic run settling
		t.downYielded++
	}
	was := run.pos
	run.take(i, t.down)
	switch {
	case run.pos == was: // ahead of its run's cursor, which will step over it
	case run == &t.runs[0]:
		t.siftDown(0)
	default:
		t.reheap()
	}
}

// window appends to out, in yield order from the cursor on, the unyielded
// members on nodes the last sample found up, until out holds limit. It
// walks the merge itself and then puts the runs back as they were: the
// cursor does not move.
func (t *runTable) window(out []repo.Ref, limit int) []repo.Ref {
	var few [16]refRun
	saved := append(few[:0], t.runs...)
	for ref, ok := t.head(); ok && len(out) < limit; ref, ok = t.head() {
		out = append(out, ref)
		t.runs[0].pos++
		t.runs[0].skip(t.down)
		t.siftDown(0)
	}
	copy(t.runs, saved)
	return out
}

// before orders runs by the id under their cursor, exhausted runs last.
func (t *runTable) before(a, b int) bool {
	ra, rb := &t.runs[a], &t.runs[b]
	return ra.pos < len(ra.refs) && (rb.pos == len(rb.refs) || ra.refs[ra.pos].ID < rb.refs[rb.pos].ID)
}

func (t *runTable) siftDown(h int) {
	for c := 2*h + 1; c < len(t.runs); h, c = c, 2*c+1 {
		if c+1 < len(t.runs) && t.before(c+1, c) {
			c++
		}
		if !t.before(c, h) {
			return
		}
		t.runs[h], t.runs[c] = t.runs[c], t.runs[h]
	}
}

func (t *runTable) reheap() {
	for h := len(t.runs)/2 - 1; h >= 0; h-- {
		t.siftDown(h)
	}
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
	for r := range t.runs {
		run := &t.runs[r]
		if wasDown {
			run.pos = 0
		}
		run.skip(t.down)
		for i := 0; t.down != nil && i < len(run.refs); i++ {
			if run.isTaken(i) && t.down[run.refs[i].Node] {
				t.downYielded++
			}
		}
	}
	t.reheap()
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
// ExhaustiveConformance holds it to Step.
func (t *runTable) decide(sem Semantics, gen uint64, reachable func(netsim.NodeID) bool) DecisionKind {
	unyielded := t.unyielded()
	if unyielded > 0 {
		t.allReachable(gen, reachable)
	}
	_, canYield := t.head()
	lost := t.downYielded > 0 || len(t.gone) > 0
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

// preState is the invocation's pre-state in the shape the figures are
// written over — the membership, and as reachable every member the last
// sample did not find down — which only a Recorder asks for: the one
// place the table is turned into maps.
func (t *runTable) preState() spec.State {
	pre := spec.State{Members: make(map[spec.ElemID]bool, t.members), Reach: make(map[spec.ElemID]bool, t.members)}
	for r := range t.runs {
		for _, ref := range t.runs[r].refs {
			pre.Members[spec.ElemID(ref.ID)] = true
			if !t.down[ref.Node] {
				pre.Reach[spec.ElemID(ref.ID)] = true
			}
		}
	}
	return pre
}
