package core

import (
	"fmt"
	"slices"

	"weaksets/internal/netsim"
	"weaksets/internal/repo"
	"weaksets/internal/spec"
	"weaksets/internal/store"
)

// This file is the exhaustive companion to the randomized model harness:
// for a small universe of elements it enumerates EVERY configuration of
// (s_first, membership, reachability, yielded-history), builds in each
// the run table an Iterator would hold there — its members over two
// partitions, as the store places them, so the cursor crosses a
// partition, a snapshot's partitions fold in either order (the second
// below the cursor, once), and a current-state run re-bases on a listing
// with one or both partitions moved — and checks the table's decision —
// the one every run ships — against the kernel Step, the figures'
// executable form, and both against the figure's ensures clause via
// spec.CheckInvocation: the same kind of decision, and a yield the figure
// allows, not necessarily Step's. A decision reads only the
// configuration it is taken in, so where the property tests sample,
// this proves: within the bound, no interleaving of mutations, failures
// and repairs can make a run decide anything its specification forbids.

// mcWorld is a bitmask-encoded model-check configuration. Bit i stands for
// element i of the universe.
type mcWorld struct {
	members uint16
	reach   uint16
	yielded uint16
	first   uint16 // membership at the run's first invocation
}

func (w mcWorld) String() string {
	return fmt.Sprintf("world members=%04b reach=%04b yielded=%04b first=%04b", w.members, w.reach, w.yielded, w.first)
}

// ExhaustiveResult reports what an exhaustive check covered.
type ExhaustiveResult struct {
	Elements int
	States   int // configurations checked: one decision each, the table's against Step's
}

// ExhaustiveConformance model-checks the semantics over every world of n
// elements (n <= 8): every membership, every reachability mask and every
// yielded set — a snapshot run's drawn from every s_first, since it
// yields from s_first only; the current-state semantics never read
// s_first. It returns the first specification violation or table/kernel
// disagreement found, or the coverage counts.
func ExhaustiveConformance(sem Semantics, n int) (ExhaustiveResult, error) {
	if n < 1 || n > 8 {
		return ExhaustiveResult{}, fmt.Errorf("core: exhaustive check supports 1..8 elements, got %d", n)
	}
	res := ExhaustiveResult{Elements: n}
	full, firsts := uint16(1<<n)-1, uint16(0)
	if sem.UsesSnapshot() {
		firsts = full
	}
	for first := uint16(0); first <= firsts; first++ {
		for members := uint16(0); members <= full; members++ {
			for reach := uint16(0); reach <= full; reach++ {
				for yielded := uint16(0); yielded <= full; yielded++ {
					if sem.UsesSnapshot() && yielded&^first != 0 {
						continue
					}
					res.States++
					if err := checkWorld(sem, mcWorld{members, reach, yielded, first}, n); err != nil {
						return res, err
					}
				}
			}
		}
	}
	return res, nil
}

// checkWorld holds the run table's decision in w to Step's, and both to
// the figure: a snapshot run's table built in either fold order.
func checkWorld(sem Semantics, w mcWorld, n int) error {
	first := spec.State{Members: maskSet(w.first, n)} // reachability irrelevant for first
	pre := spec.State{Members: maskSet(w.members, n), Reach: maskSet(w.reach, n)}
	yielded := maskSet(w.yielded, n)
	want := Step(sem, first, pre, yielded)
	reachable := func(node netsim.NodeID) bool { return pre.Reach[spec.ElemID(node)] }
	for _, reverse := range []bool{false, sem.UsesSnapshot()} {
		tab := worldTable(sem, w, n, reverse, yielded, reachable)
		got := Decision{Kind: tab.decide(sem, false, 0, reachable)}
		if got.Kind != want.Kind {
			return fmt.Errorf("%v (folded in reverse: %v): run table decides %v, kernel %v", w, reverse, got.Kind, want)
		}
		if got.Kind == DecideYield {
			ref, _, ok := tab.head()
			if !ok {
				return fmt.Errorf("%v: the run table decides a yield with no reachable member", w)
			}
			got.Elem = spec.ElemID(ref.ID)
		}
		for _, d := range []Decision{want, got} {
			if err := spec.CheckInvocation(sem.Figure(), first.Members, yielded, 1, specInvocation(pre, d)); err != nil {
				return fmt.Errorf("%v (folded in reverse: %v): %w", w, reverse, err)
			}
		}
	}
	return nil
}

// specInvocation is decision d taken in pre-state pre, as the figures
// record it.
func specInvocation(pre spec.State, d Decision) spec.Invocation {
	inv := spec.Invocation{Pre: pre}
	switch d.Kind {
	case DecideYield:
		inv.Outcome, inv.Yield, inv.HasYield = spec.Suspended, d.Elem, true
	case DecideReturn:
		inv.Outcome = spec.Returned
	case DecideFail:
		inv.Outcome = spec.Failed
	case DecideBlock:
		inv.Outcome = spec.Blocked
	}
	return inv
}

func elemID(i int) spec.ElemID { return spec.ElemID(fmt.Sprintf("e%d", i)) }

// worldFrames is the listing of the elements of mask — each on a node of
// its own named after it, so a reach mask is the set of nodes up — as the
// store ships it in two partitions (store.PartOf places e0, e2, … in the
// first and e1, e3, … in the second), each ascending, at version.
func worldFrames(mask uint16, n int, version uint64) []repo.PartListing {
	frames := []repo.PartListing{{Part: 0, Partitions: 2, Version: version}, {Part: 1, Partitions: 2, Version: version}}
	for i := 0; i < n; i++ { // elemID(i) ascends with i
		if id := repo.ObjectID(elemID(i)); mask&(1<<i) != 0 {
			f := &frames[store.PartOf(id, 2)]
			f.Members = append(f.Members, repo.Ref{ID: id, Node: netsim.NodeID(id)})
		}
	}
	return frames
}

// worldTable builds the run table an Iterator holds in world w, through
// the production fold, yield and adopt, with one reachability sample
// taken midway, as an earlier invocation's. A snapshot run folds s_first
// a partition at a time — the second first when reverse, so the first
// lands below the cursor — yielding from each as it lands. A
// current-state run adopted a listing of the members and the yielded
// ids, yielded, and has adopted the current membership: a listing with
// the partitions that moved replaced, so what it yielded and the set has
// dropped is gone. The frames are well-formed, so with never errs.
func worldTable(sem Semantics, w mcWorld, n int, reverse bool, yielded map[spec.ElemID]bool, reachable func(netsim.NodeID) bool) *runTable {
	var tab runTable
	yield := func(p int) {
		for i, ref := range tab.parts[p] {
			if yielded[spec.ElemID(ref.ID)] {
				tab.yield(p, i)
			}
		}
	}
	if sem.UsesSnapshot() {
		frames := worldFrames(w.first, n, 1)
		if reverse {
			slices.Reverse(frames)
		}
		for k, f := range frames {
			tab.fold(f.Part, f.Partitions, f.Members)
			if yield(f.Part); k == 0 {
				tab.allReachable(0, reachable)
			}
		}
		return &tab
	}
	l, _ := (*listing)(nil).with(worldFrames(w.members|w.yielded, n, 1), nil)
	tab.adopt(l)
	tab.allReachable(0, reachable)
	for p := range l.parts {
		yield(p)
	}
	var moved []repo.PartListing
	for _, f := range worldFrames(w.members, n, 2) {
		if !slices.Equal(f.Members, l.parts[f.Part]) {
			moved = append(moved, f)
		}
	}
	if next, _ := l.with(moved, nil); next != l {
		tab.adopt(next)
	}
	return &tab
}

func maskSet(mask uint16, n int) map[spec.ElemID]bool {
	out := make(map[spec.ElemID]bool)
	for i := 0; i < n; i++ {
		if mask&(1<<i) != 0 {
			out[elemID(i)] = true
		}
	}
	return out
}
