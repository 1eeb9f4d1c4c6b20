package core

import (
	"fmt"
	"math/bits"

	"weaksets/internal/spec"
)

// This file is the exhaustive companion to the randomized model harness:
// for a small universe of elements it enumerates EVERY reachable
// configuration of (membership, reachability, yielded-history) under the
// environment discipline a semantics' constraint clause allows, drives the
// kernel in each, and checks every decision against the figure's ensures
// clause via spec.CheckInvocation. Where the property tests sample, this
// proves: within the bound, no interleaving of mutations, failures and
// repairs can make the kernel violate its specification — nor make the
// Iterator's cursor stepper (fastDecide), wherever it claims to apply,
// decide anything but what the kernel decides.

// mcWorld is a bitmask-encoded model-check configuration. Bit i stands for
// element i of the universe.
type mcWorld struct {
	members uint16
	reach   uint16
	yielded uint16
	first   uint16 // membership at the run's first invocation
}

// ExhaustiveResult reports what an exhaustive check covered.
type ExhaustiveResult struct {
	Elements    int
	States      int // distinct configurations visited
	Invocations int // kernel decisions checked
	FastDecided int // of those, decided by the cursor stepper too, identically
}

// ExhaustiveConformance model-checks the semantics over every world of n
// elements (n <= 8): all initial (membership, reachability) pairs, closed
// under every environment mutation the constraint discipline permits,
// every reachability flip, and every kernel invocation. It returns the
// first specification violation or cursor/kernel disagreement found, or
// the coverage counts.
func ExhaustiveConformance(sem Semantics, n int) (ExhaustiveResult, error) {
	if n < 1 || n > 8 {
		return ExhaustiveResult{}, fmt.Errorf("core: exhaustive check supports 1..8 elements, got %d", n)
	}
	var (
		res     ExhaustiveResult
		full    = uint16(1<<n) - 1
		visited = make(map[mcWorld]bool)
		queue   []mcWorld
	)
	res.Elements = n

	push := func(w mcWorld) {
		if !visited[w] {
			visited[w] = true
			queue = append(queue, w)
		}
	}

	// Every initial world: any membership, any reachability, nothing
	// yielded, s_first = the initial membership.
	for members := uint16(0); members <= full; members++ {
		for reach := uint16(0); reach <= full; reach++ {
			push(mcWorld{members: members, reach: reach, yielded: 0, first: members})
		}
	}

	for len(queue) > 0 {
		w := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		res.States++

		// Kernel invocation from this world.
		first := maskStateWithReach(w.first, full, n) // reachability irrelevant for first
		pre := maskStateWithReach(w.members, w.reach, n)
		yielded := maskSet(w.yielded, n)
		d := Step(sem, first, pre, yielded)

		// The cursor stepper, fed what an Iterator would hold in this
		// world: the governing membership minus yielded in yield order,
		// whether all of it is reachable, how many yielded ids left it.
		governing := w.members
		if sem.UsesSnapshot() {
			governing = w.first
		}
		var cursor []spec.ElemID
		for i := 0; i < n; i++ { // elemID(i) ascends with i
			if governing&^w.yielded&(1<<i) != 0 {
				cursor = append(cursor, elemID(i))
			}
		}
		if fd, ok := fastDecide(sem, cursor, governing&^w.reach == 0, bits.OnesCount16(w.yielded&^governing)); ok {
			if fd != d {
				return res, fmt.Errorf("world members=%03b reach=%03b yielded=%03b first=%03b: cursor decides %v, kernel %v",
					w.members, w.reach, w.yielded, w.first, fd, d)
			}
			res.FastDecided++
		}

		inv := spec.Invocation{Pre: pre}
		next := w
		switch d.Kind {
		case DecideYield:
			inv.Outcome = spec.Suspended
			inv.Yield = d.Elem
			inv.HasYield = true
			bit, ok := elemBit(d.Elem, n)
			if !ok {
				return res, fmt.Errorf("core: kernel yielded unknown element %q", d.Elem)
			}
			next.yielded |= bit
		case DecideReturn:
			inv.Outcome = spec.Returned
		case DecideFail:
			inv.Outcome = spec.Failed
		case DecideBlock:
			inv.Outcome = spec.Blocked
		}
		res.Invocations++
		if err := spec.CheckInvocation(sem.Figure(), first.Members, yielded, res.Invocations, inv); err != nil {
			return res, fmt.Errorf("world members=%03b reach=%03b yielded=%03b first=%03b: %w",
				w.members, w.reach, w.yielded, w.first, err)
		}
		// The run continues only after a yield; terminal decisions end it.
		// Blocking leaves the world to the environment.
		if d.Kind == DecideYield {
			push(next)
		}

		// Environment transitions: reachability may flip freely; membership
		// mutates per the constraint discipline.
		for i := 0; i < n; i++ {
			bit := uint16(1) << i
			flipped := w
			flipped.reach ^= bit
			push(flipped)

			switch sem.Constraint() {
			case spec.ConstraintImmutable, spec.ConstraintImmutablePerRun:
				// No membership mutation during the run.
			case spec.ConstraintGrowOnly, spec.ConstraintGrowOnlyPerRun:
				if w.members&bit == 0 {
					grown := w
					grown.members |= bit
					push(grown)
				}
			default:
				mutated := w
				mutated.members ^= bit
				push(mutated)
			}
		}
	}
	return res, nil
}

func elemID(i int) spec.ElemID { return spec.ElemID(fmt.Sprintf("e%d", i)) }

func elemBit(id spec.ElemID, n int) (uint16, bool) {
	for i := 0; i < n; i++ {
		if elemID(i) == id {
			return uint16(1) << i, true
		}
	}
	return 0, false
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

func maskStateWithReach(members, reach uint16, n int) spec.State {
	return spec.State{Members: maskSet(members, n), Reach: maskSet(reach, n)}
}
