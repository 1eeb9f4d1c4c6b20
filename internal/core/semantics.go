// Package core implements weak sets — the paper's primary contribution: a
// set abstraction over a distributed object repository whose membership is
// observed through an `elements` iterator, offered at every point of the
// paper's design space (§3):
//
//   - Immutable (Fig. 3): the set never changes; failures are pessimistic.
//   - ImmutablePerRun (§3.1 relaxation): mutation allowed between runs;
//     each run holds a distributed read lock.
//   - Snapshot (Fig. 4): mutation allowed; the run iterates an atomic
//     snapshot taken at the first invocation and so "loses" mutations.
//   - GrowOnly (Fig. 5): the set only grows; failures are pessimistic.
//   - GrowOnlyPerRun (§3.3 relaxation): arbitrary mutation between runs;
//     during a run deletions are deferred as ghost copies.
//   - Optimistic (Fig. 6): the set grows and shrinks; the iterator never
//     fails, blocking until unreachable elements become reachable again.
//
// Every run yields in completion order, fetching in parallel, closest
// first (§1.1). A *dynamic set* (OpenDyn), the abstraction the authors
// built, is one such run: Immutable, over one membership read, that
// returns what is reachable where Fig. 3 would fail.
//
// The semantic decision logic has an executable form, the pure kernel Step
// the model-level conformance tests check against the specifications in
// internal/spec, and the form the distributed iterators run, their run
// table's O(1) decision, which ExhaustiveConformance proves equal to Step
// in every world of a few elements.
package core

import (
	"fmt"

	"weaksets/internal/spec"
)

// Semantics selects a point in the paper's design space.
type Semantics int

// The design-space points.
const (
	// Immutable is the Fig. 3 semantics: an immutable set with pessimistic
	// failure handling. Global immutability is assumed of the environment
	// (the constraint clause), not enforced.
	Immutable Semantics = iota + 1
	// ImmutablePerRun relaxes Fig. 3 per §3.1: mutations may occur between
	// runs; each run holds a distributed read lock to exclude writers.
	ImmutablePerRun
	// Snapshot is the Fig. 4 semantics: the run iterates an atomic
	// membership snapshot taken at the first invocation, losing later
	// mutations.
	Snapshot
	// GrowOnly is the Fig. 5 semantics: each invocation consults the
	// current membership; the environment is assumed to only add.
	GrowOnly
	// GrowOnlyPerRun relaxes Fig. 5 per §3.3: deletions during a run are
	// deferred server-side as ghost copies reclaimed at termination.
	GrowOnlyPerRun
	// Optimistic is the Fig. 6 semantics: the weakest point; never fails,
	// blocks on unreachable elements, misses no additions, may yield
	// elements that are subsequently deleted.
	Optimistic
)

// AllSemantics lists every implemented semantics in design-space order,
// strongest first.
func AllSemantics() []Semantics {
	return []Semantics{Immutable, ImmutablePerRun, Snapshot, GrowOnly, GrowOnlyPerRun, Optimistic}
}

// String implements fmt.Stringer.
func (s Semantics) String() string {
	switch s {
	case Immutable:
		return "immutable"
	case ImmutablePerRun:
		return "immutable-per-run"
	case Snapshot:
		return "snapshot"
	case GrowOnly:
		return "grow-only"
	case GrowOnlyPerRun:
		return "grow-only-per-run"
	case Optimistic:
		return "optimistic"
	default:
		return fmt.Sprintf("semantics(%d)", int(s))
	}
}

// Figure maps the semantics to the specification figure whose ensures
// clause its iterator satisfies.
func (s Semantics) Figure() spec.Figure {
	switch s {
	case Immutable, ImmutablePerRun:
		return spec.Fig3
	case Snapshot:
		return spec.Fig4
	case GrowOnly, GrowOnlyPerRun:
		return spec.Fig5
	case Optimistic:
		return spec.Fig6
	default:
		return 0
	}
}

// Constraint maps the semantics to the environment obligation its type
// specification carries.
func (s Semantics) Constraint() spec.Constraint {
	switch s {
	case Immutable:
		return spec.ConstraintImmutable
	case ImmutablePerRun:
		return spec.ConstraintImmutablePerRun
	case GrowOnly:
		return spec.ConstraintGrowOnly
	case GrowOnlyPerRun:
		return spec.ConstraintGrowOnlyPerRun
	default:
		return spec.ConstraintTrue
	}
}

// UsesSnapshot reports whether the semantics evaluates membership against
// s_first rather than the current state.
func (s Semantics) UsesSnapshot() bool {
	switch s {
	case Immutable, ImmutablePerRun, Snapshot:
		return true
	default:
		return false
	}
}

// Valid reports whether s is one of the defined semantics.
func (s Semantics) Valid() bool {
	return s >= Immutable && s <= Optimistic
}

// SemanticsByName resolves a semantics from its String form (e.g.
// "optimistic", "grow-only-per-run").
func SemanticsByName(name string) (Semantics, bool) {
	for _, sem := range AllSemantics() {
		if sem.String() == name {
			return sem, true
		}
	}
	return 0, false
}
