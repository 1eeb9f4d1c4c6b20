package core

import (
	"weaksets/internal/spec"
)

// DecisionKind classifies what the iterator must do at one invocation.
type DecisionKind int

// Decision kinds.
const (
	// DecideYield suspends after yielding Decision.Elem.
	DecideYield DecisionKind = iota + 1
	// DecideReturn terminates the iterator normally.
	DecideReturn
	// DecideFail terminates with the failure exception (pessimistic
	// semantics only).
	DecideFail
	// DecideBlock waits for a repair and retries (optimistic semantics
	// only).
	DecideBlock
)

// String implements fmt.Stringer.
func (k DecisionKind) String() string {
	switch k {
	case DecideYield:
		return "yield"
	case DecideReturn:
		return "return"
	case DecideFail:
		return "fail"
	case DecideBlock:
		return "block"
	default:
		return "decision(?)"
	}
}

// Decision is the outcome of one kernel step.
type Decision struct {
	Kind DecisionKind
	Elem spec.ElemID // set when Kind == DecideYield
}

// Step is the pure semantic kernel: given the membership at the first
// invocation (first; used only by snapshot-based semantics), the current
// pre-state (membership plus reachability), and the yielded history object,
// it decides the invocation's outcome exactly as the corresponding figure's
// ensures clause dictates. Among eligible elements it picks the
// lexicographically smallest, making runs deterministic for a fixed
// environment.
func Step(sem Semantics, first spec.State, pre spec.State, yielded map[spec.ElemID]bool) Decision {
	switch sem {
	case Immutable, ImmutablePerRun, Snapshot:
		return stepSnapshot(first.Members, pre, yielded)
	case GrowOnly, GrowOnlyPerRun:
		return stepGrowPessimistic(pre, yielded)
	case Optimistic:
		return stepOptimistic(pre, yielded)
	default:
		return Decision{Kind: DecideFail}
	}
}

// Step is O(members) and no Iterator runs it: every decision of a run is
// its run table's (runTable.decide, O(1)), which ExhaustiveConformance
// holds to Step in every world of a few elements. Step is the figures'
// executable form — the oracle, and RunModel's and speccheck's kernel —
// and must not allocate: the reachable subsets (reachable(s_first),
// reachable(s_pre)) are folded into single counting scans instead of
// materialized maps.

// stepSnapshot implements the shared ensures clause of Figures 3 and 4:
// everything is judged against s_first, with reachability sampled now.
func stepSnapshot(first map[spec.ElemID]bool, pre spec.State, yielded map[spec.ElemID]bool) Decision {
	// One scan over s_first sizes reachFirst = reachable(s_first) and finds
	// its minimal unyielded element.
	reachCount, min, _ := scanReachable(first, pre.Reach, yielded)
	inReachFirst := true
	for e := range yielded {
		if !first[e] || !pre.Reach[e] {
			inReachFirst = false
			break
		}
	}
	if inReachFirst && len(yielded) < reachCount {
		// yielded ⊊ reachFirst: a strict subset always leaves a candidate.
		return Decision{Kind: DecideYield, Elem: min}
	}
	if inReachFirst && len(yielded) == reachCount && len(yielded) < len(first) {
		// yielded == reachFirst ⊊ first: members remain but none reachable.
		return Decision{Kind: DecideFail}
	}
	return Decision{Kind: DecideReturn}
}

// stepGrowPessimistic implements Fig. 5: judged against the current
// pre-state; anything known-but-unreachable is a failure.
func stepGrowPessimistic(pre spec.State, yielded map[spec.ElemID]bool) Decision {
	reachCount, min, _ := scanReachable(pre.Members, pre.Reach, yielded)
	inReachPre := true
	for e := range yielded {
		if !pre.Members[e] || !pre.Reach[e] {
			inReachPre = false
			break
		}
	}
	if inReachPre && len(yielded) < reachCount {
		return Decision{Kind: DecideYield, Elem: min}
	}
	if sameSet(yielded, pre.Members) {
		return Decision{Kind: DecideReturn}
	}
	return Decision{Kind: DecideFail}
}

// stepOptimistic implements Fig. 6: while any member remains unyielded the
// iterator must make progress or wait; it never fails.
func stepOptimistic(pre spec.State, yielded map[spec.ElemID]bool) Decision {
	anyUnyielded := false
	var min spec.ElemID
	haveMin := false
	for e := range pre.Members {
		if yielded[e] {
			continue
		}
		anyUnyielded = true
		if pre.Reach[e] && (!haveMin || e < min) {
			min, haveMin = e, true
		}
	}
	if !anyUnyielded {
		return Decision{Kind: DecideReturn}
	}
	if haveMin {
		return Decision{Kind: DecideYield, Elem: min}
	}
	return Decision{Kind: DecideBlock}
}

// scanReachable sizes {e ∈ members : reach[e]} and locates its smallest
// element not in yielded, in one pass and without allocating.
func scanReachable(members, reach, yielded map[spec.ElemID]bool) (count int, min spec.ElemID, haveMin bool) {
	for e := range members {
		if !reach[e] {
			continue
		}
		count++
		if !yielded[e] && (!haveMin || e < min) {
			min, haveMin = e, true
		}
	}
	return count, min, haveMin
}

// sameSet reports a == b.
func sameSet(a, b map[spec.ElemID]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for e := range a {
		if !b[e] {
			return false
		}
	}
	return true
}
