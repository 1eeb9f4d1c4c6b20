package spec

import "fmt"

// Constraint names one of the paper's constraint clauses — history
// properties that every process touching the set must uphold, formulated
// over pairs of states of a computation (§2.2).
type Constraint int

// The constraint clauses appearing in the paper.
const (
	// ConstraintTrue is the trivial constraint of Figures 4 and 6: the set
	// may change arbitrarily.
	ConstraintTrue Constraint = iota + 1
	// ConstraintImmutable is s_i = s_j for all i < j (Figures 1 and 3).
	ConstraintImmutable
	// ConstraintGrowOnly is s_i ⊆ s_j for all i < j (Figure 5).
	ConstraintGrowOnly
	// ConstraintImmutablePerRun is the §3.1 relaxation: the set may change
	// between runs of the iterator but not between invocations of any one
	// run.
	ConstraintImmutablePerRun
	// ConstraintGrowOnlyPerRun is the §3.3 relaxation: arbitrary mutation
	// between runs, growth only during a run.
	ConstraintGrowOnlyPerRun
)

// String implements fmt.Stringer.
func (c Constraint) String() string {
	switch c {
	case ConstraintTrue:
		return "true"
	case ConstraintImmutable:
		return "immutable"
	case ConstraintGrowOnly:
		return "grow-only"
	case ConstraintImmutablePerRun:
		return "immutable-per-run"
	case ConstraintGrowOnlyPerRun:
		return "grow-only-per-run"
	default:
		return "constraint(?)"
	}
}

// ConstraintOf reports the constraint clause attached to each figure's type
// specification.
func ConstraintOf(fig Figure) Constraint {
	switch fig {
	case Fig1, Fig3:
		return ConstraintImmutable
	case Fig5:
		return ConstraintGrowOnly
	default:
		return ConstraintTrue
	}
}

// CheckStates verifies a constraint over an observed sequence of states.
// For the per-run variants the sequence is taken to be the states observed
// *within* one run (between its first and last invocation); callers enforce
// the between-runs freedom by checking each run's states separately.
// Because both the equality and subset relations are transitive, checking
// consecutive pairs establishes the property for all i < j.
func CheckStates(c Constraint, states []State) error {
	switch c {
	case ConstraintTrue:
		return nil
	case ConstraintImmutable, ConstraintImmutablePerRun:
		for i := 1; i < len(states); i++ {
			if !states[i-1].SameMembers(states[i]) {
				return violatef(0, i, "constraint %s: membership changed from %s to %s",
					c, formatSet(states[i-1].Members), formatSet(states[i].Members))
			}
		}
		return nil
	case ConstraintGrowOnly, ConstraintGrowOnlyPerRun:
		for i := 1; i < len(states); i++ {
			if !states[i-1].MembersSubsetOf(states[i]) {
				return violatef(0, i, "constraint %s: membership shrank: %s then %s",
					c, formatSet(states[i-1].Members), formatSet(states[i].Members))
			}
		}
		return nil
	default:
		return violatef(0, 0, "unknown constraint %d", int(c))
	}
}

// CheckRunConstraint verifies a constraint against the pre-states a run
// observed. This is the observational form: it can refute immutability or
// growth discipline from the iterator's own samples even without a global
// state log.
func CheckRunConstraint(c Constraint, run Run) error {
	states := make([]State, len(run.Invocations))
	for i, inv := range run.Invocations {
		states[i] = inv.Pre
	}
	return CheckStates(c, states)
}

// CheckRuns verifies a constraint across several successive runs of the
// iterator. For the global constraints every observed state across every
// run must satisfy the relation; for the per-run relaxations (§3.1, §3.3)
// each run is checked in isolation — "mutations may occur between
// different uses of the iterator, but not between invocations of any one
// use".
func CheckRuns(c Constraint, runs []Run) error {
	switch c {
	case ConstraintImmutablePerRun, ConstraintGrowOnlyPerRun:
		for i, run := range runs {
			if err := CheckRunConstraint(c, run); err != nil {
				return fmt.Errorf("run %d: %w", i, err)
			}
		}
		return nil
	default:
		var states []State
		for _, run := range runs {
			for _, inv := range run.Invocations {
				states = append(states, inv.Pre)
			}
		}
		return CheckStates(c, states)
	}
}
