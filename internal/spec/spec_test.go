package spec

import (
	"errors"
	"strings"
	"testing"

	"weaksets/internal/sim"
)

func st(members, reach string) State {
	return NewState(split(members), split(reach))
}

func split(s string) []ElemID {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]ElemID, 0, len(parts))
	for _, p := range parts {
		out = append(out, ElemID(p))
	}
	return out
}

func yieldInv(pre State, e ElemID) Invocation {
	return Invocation{Pre: pre, Yield: e, HasYield: true, Outcome: Suspended}
}

func endInv(pre State, o Outcome) Invocation {
	return Invocation{Pre: pre, Outcome: o}
}

func TestStateAlgebra(t *testing.T) {
	s := st("a,b,c", "a,b")
	if got := s.ReachableMembers(); len(got) != 2 || !got["a"] || !got["b"] {
		t.Fatalf("ReachableMembers = %v", got)
	}
	other := map[ElemID]bool{"b": true, "z": true}
	if got := s.ReachableOf(other); len(got) != 1 || !got["b"] {
		t.Fatalf("ReachableOf = %v", got)
	}
	if !s.SameMembers(st("c,b,a", "")) {
		t.Fatal("SameMembers order-sensitive")
	}
	if s.SameMembers(st("a,b", "")) {
		t.Fatal("SameMembers wrong on different sets")
	}
	if !st("a", "").MembersSubsetOf(s) {
		t.Fatal("subset wrong")
	}
	if s.MembersSubsetOf(st("a", "")) {
		t.Fatal("superset claimed subset")
	}
}

func TestStateCloneIndependent(t *testing.T) {
	s := st("a", "a")
	c := s.Clone()
	c.Members["b"] = true
	delete(c.Reach, "a")
	if s.Members["b"] || !s.Reach["a"] {
		t.Fatal("clone aliases original")
	}
}

func TestRunHelpers(t *testing.T) {
	pre := st("a,b", "a,b")
	run := Run{Invocations: []Invocation{
		yieldInv(pre, "a"),
		yieldInv(pre, "b"),
		endInv(pre, Returned),
	}}
	if got := run.First(); !got.SameMembers(pre) {
		t.Fatalf("First = %v", got)
	}
	if y := run.Yielded(2); len(y) != 2 || !y["a"] || !y["b"] {
		t.Fatalf("Yielded(2) = %v", y)
	}
	if !run.Terminated() {
		t.Fatal("Terminated = false")
	}
	if (Run{}).Terminated() {
		t.Fatal("empty run terminated")
	}
}

func TestFig1Conforming(t *testing.T) {
	pre := st("a,b", "a,b")
	run := Run{Invocations: []Invocation{
		yieldInv(pre, "a"),
		yieldInv(pre, "b"),
		endInv(pre, Returned),
	}}
	if err := CheckRun(Fig1, run); err != nil {
		t.Fatal(err)
	}
}

func TestFig1Violations(t *testing.T) {
	pre := st("a,b", "a,b")
	tests := []struct {
		name string
		run  Run
	}{
		{"early return", Run{Invocations: []Invocation{endInv(pre, Returned)}}},
		{"duplicate yield", Run{Invocations: []Invocation{yieldInv(pre, "a"), yieldInv(pre, "a")}}},
		{"foreign yield", Run{Invocations: []Invocation{yieldInv(pre, "z")}}},
		{"yield after done", Run{Invocations: []Invocation{yieldInv(pre, "a"), yieldInv(pre, "b"), yieldInv(st("a,b,c", "c"), "c")}}},
		{"fails though no failures modeled", Run{Invocations: []Invocation{endInv(pre, Failed)}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := CheckRun(Fig1, tt.run)
			if !errors.Is(err, ErrViolation) {
				t.Fatalf("err = %v, want violation", err)
			}
		})
	}
}

func TestFig3ConformingWithFailure(t *testing.T) {
	// s_first = {a,b,c}; b becomes unreachable; after yielding the
	// reachable a and c, the iterator must fail.
	s0 := st("a,b,c", "a,c")
	run := Run{Invocations: []Invocation{
		yieldInv(s0, "a"),
		yieldInv(s0, "c"),
		endInv(s0, Failed),
	}}
	if err := CheckRun(Fig3, run); err != nil {
		t.Fatal(err)
	}
}

func TestFig3ConformingFullReturn(t *testing.T) {
	s0 := st("a,b", "a,b")
	run := Run{Invocations: []Invocation{
		yieldInv(s0, "a"),
		yieldInv(s0, "b"),
		endInv(s0, Returned),
	}}
	if err := CheckRun(Fig3, run); err != nil {
		t.Fatal(err)
	}
}

func TestFig3RepairAllowsCompletion(t *testing.T) {
	// b unreachable at first; reachability returns before the iterator
	// exhausts the rest, so it can finish normally.
	broken := st("a,b", "a")
	healed := st("a,b", "a,b")
	run := Run{Invocations: []Invocation{
		yieldInv(broken, "a"),
		yieldInv(healed, "b"),
		endInv(healed, Returned),
	}}
	if err := CheckRun(Fig3, run); err != nil {
		t.Fatal(err)
	}
}

func TestFig3Violations(t *testing.T) {
	s0 := st("a,b,c", "a,c")
	tests := []struct {
		name string
		run  Run
	}{
		{"returns instead of fail", Run{Invocations: []Invocation{
			yieldInv(s0, "a"), yieldInv(s0, "c"), endInv(s0, Returned),
		}}},
		{"fails too early", Run{Invocations: []Invocation{
			yieldInv(s0, "a"), endInv(s0, Failed),
		}}},
		{"yields unreachable", Run{Invocations: []Invocation{
			yieldInv(s0, "b"),
		}}},
		{"yield on fail", Run{Invocations: []Invocation{
			yieldInv(s0, "a"), yieldInv(s0, "c"),
			{Pre: s0, Yield: "b", HasYield: true, Outcome: Failed},
		}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := CheckRun(Fig3, tt.run); !errors.Is(err, ErrViolation) {
				t.Fatalf("err = %v, want violation", err)
			}
		})
	}
}

func TestFig4IgnoresLaterMutations(t *testing.T) {
	// s_first = {a,b}; c is added and a removed mid-run; the snapshot
	// semantics still iterates {a,b} and never sees c.
	s0 := st("a,b", "a,b")
	s1 := st("b,c", "a,b,c")
	run := Run{Invocations: []Invocation{
		yieldInv(s0, "a"),
		yieldInv(s1, "b"),
		endInv(s1, Returned),
	}}
	if err := CheckRun(Fig4, run); err != nil {
		t.Fatal(err)
	}
	// Yielding the added element violates Fig 4 (it is outside s_first).
	bad := Run{Invocations: []Invocation{
		yieldInv(s0, "a"),
		yieldInv(s1, "c"),
	}}
	if err := CheckRun(Fig4, bad); !errors.Is(err, ErrViolation) {
		t.Fatalf("err = %v, want violation", err)
	}
}

func TestFig5ConformingGrowth(t *testing.T) {
	s0 := st("a", "a")
	s1 := st("a,b", "a,b") // grew between invocations
	run := Run{Invocations: []Invocation{
		yieldInv(s0, "a"),
		yieldInv(s1, "b"),
		endInv(s1, Returned),
	}}
	if err := CheckRun(Fig5, run); err != nil {
		t.Fatal(err)
	}
}

func TestFig5PessimisticFailure(t *testing.T) {
	s0 := st("a,b", "a") // b exists but unreachable
	run := Run{Invocations: []Invocation{
		yieldInv(s0, "a"),
		endInv(s0, Failed),
	}}
	if err := CheckRun(Fig5, run); err != nil {
		t.Fatal(err)
	}
	// Returning instead is a violation: yielded != s_pre.
	bad := Run{Invocations: []Invocation{
		yieldInv(s0, "a"),
		endInv(s0, Returned),
	}}
	if err := CheckRun(Fig5, bad); !errors.Is(err, ErrViolation) {
		t.Fatalf("err = %v, want violation", err)
	}
}

func TestFig5MissesNothingCurrent(t *testing.T) {
	// An element added after the first call must still be yielded (unlike
	// Fig 4): returning without it violates Fig 5.
	s0 := st("a", "a")
	s1 := st("a,b", "a,b")
	bad := Run{Invocations: []Invocation{
		yieldInv(s0, "a"),
		endInv(s1, Returned),
	}}
	if err := CheckRun(Fig5, bad); !errors.Is(err, ErrViolation) {
		t.Fatalf("err = %v, want violation", err)
	}
}

func TestFig6ConformingWithBlockingAndRepair(t *testing.T) {
	broken := st("a,b", "a")
	healed := st("a,b", "a,b")
	run := Run{Invocations: []Invocation{
		yieldInv(broken, "a"),
		endInv(broken, Blocked), // b unreachable: block, do not fail
		yieldInv(healed, "b"),   // repair arrived
		endInv(healed, Returned),
	}}
	if err := CheckRun(Fig6, run); err != nil {
		t.Fatal(err)
	}
}

func TestFig6SeesAdditionsAndToleratesDeletions(t *testing.T) {
	s0 := st("a,b", "a,b")
	s1 := st("b,c", "b,c") // a deleted, c added
	run := Run{Invocations: []Invocation{
		yieldInv(s0, "a"), // a was in the set in some state: fine
		yieldInv(s1, "b"),
		yieldInv(s1, "c"), // addition not missed
		endInv(s1, Returned),
	}}
	if err := CheckRun(Fig6, run); err != nil {
		t.Fatal(err)
	}
}

func TestFig6Violations(t *testing.T) {
	broken := st("a,b", "a")
	tests := []struct {
		name string
		run  Run
	}{
		{"fails", Run{Invocations: []Invocation{endInv(broken, Failed)}}},
		{"returns early", Run{Invocations: []Invocation{yieldInv(broken, "a"), endInv(broken, Returned)}}},
		{"blocks while reachable work remains", Run{Invocations: []Invocation{endInv(broken, Blocked)}}},
		{"yields unreachable", Run{Invocations: []Invocation{yieldInv(broken, "b")}}},
		{"yields non-member", Run{Invocations: []Invocation{yieldInv(broken, "z")}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := CheckRun(Fig6, tt.run); !errors.Is(err, ErrViolation) {
				t.Fatalf("err = %v, want violation", err)
			}
		})
	}
}

func TestViolationErrorText(t *testing.T) {
	err := CheckRun(Fig6, Run{Invocations: []Invocation{endInv(st("a", "a"), Failed)}})
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("err = %T", err)
	}
	if v.Fig != Fig6 || v.Index != 0 {
		t.Fatalf("violation = %+v", v)
	}
	if !strings.Contains(v.Error(), "Fig6") {
		t.Fatalf("Error() = %q", v.Error())
	}
}

func TestConstraints(t *testing.T) {
	same := []State{st("a,b", ""), st("a,b", "a"), st("b,a", "")}
	grew := []State{st("a", ""), st("a,b", ""), st("a,b,c", "")}
	shrank := []State{st("a,b", ""), st("a", "")}
	changed := []State{st("a", ""), st("b", "")}

	if err := CheckStates(ConstraintImmutable, same); err != nil {
		t.Fatal(err)
	}
	if err := CheckStates(ConstraintImmutable, grew); !errors.Is(err, ErrViolation) {
		t.Fatalf("immutable accepted growth: %v", err)
	}
	if err := CheckStates(ConstraintGrowOnly, grew); err != nil {
		t.Fatal(err)
	}
	if err := CheckStates(ConstraintGrowOnly, shrank); !errors.Is(err, ErrViolation) {
		t.Fatalf("grow-only accepted shrink: %v", err)
	}
	if err := CheckStates(ConstraintGrowOnly, changed); !errors.Is(err, ErrViolation) {
		t.Fatalf("grow-only accepted replace: %v", err)
	}
	if err := CheckStates(ConstraintTrue, changed); err != nil {
		t.Fatal(err)
	}
	if err := CheckStates(ConstraintImmutablePerRun, same); err != nil {
		t.Fatal(err)
	}
	if err := CheckStates(ConstraintGrowOnlyPerRun, grew); err != nil {
		t.Fatal(err)
	}
}

func TestCheckRunConstraint(t *testing.T) {
	run := Run{Invocations: []Invocation{
		yieldInv(st("a", "a"), "a"),
		endInv(st("a,b", "a,b"), Blocked),
	}}
	if err := CheckRunConstraint(ConstraintGrowOnly, run); err != nil {
		t.Fatal(err)
	}
	if err := CheckRunConstraint(ConstraintImmutable, run); !errors.Is(err, ErrViolation) {
		t.Fatalf("immutable accepted growth: %v", err)
	}
}

func TestConstraintOf(t *testing.T) {
	tests := []struct {
		fig  Figure
		want Constraint
	}{
		{Fig1, ConstraintImmutable},
		{Fig3, ConstraintImmutable},
		{Fig4, ConstraintTrue},
		{Fig5, ConstraintGrowOnly},
		{Fig6, ConstraintTrue},
	}
	for _, tt := range tests {
		if got := ConstraintOf(tt.fig); got != tt.want {
			t.Errorf("ConstraintOf(%s) = %s, want %s", tt.fig, got, tt.want)
		}
	}
}

func TestStringers(t *testing.T) {
	for _, f := range Figures() {
		if f.String() == "" || strings.HasPrefix(f.String(), "figure(") {
			t.Errorf("figure %d has no name", int(f))
		}
	}
	for _, o := range []Outcome{Suspended, Returned, Failed, Blocked} {
		if o.String() == "" {
			t.Errorf("outcome %d has no name", int(o))
		}
	}
	for _, c := range []Constraint{ConstraintTrue, ConstraintImmutable, ConstraintGrowOnly, ConstraintImmutablePerRun, ConstraintGrowOnlyPerRun} {
		if c.String() == "" || c.String() == "constraint(?)" {
			t.Errorf("constraint %d has no name", int(c))
		}
	}
}

func TestEnvDisciplines(t *testing.T) {
	tests := []struct {
		name       string
		discipline Constraint
		check      Constraint
	}{
		{"immutable env", ConstraintImmutable, ConstraintImmutable},
		{"grow-only env", ConstraintGrowOnly, ConstraintGrowOnly},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			env := NewEnv(sim.NewRand(42), 8, tt.discipline)
			states := []State{env.State()}
			for i := 0; i < 200; i++ {
				env.Step()
				states = append(states, env.State())
			}
			if err := CheckStates(tt.check, states); err != nil {
				t.Fatalf("env broke its own discipline: %v", err)
			}
		})
	}
}

func TestEnvUnconstrainedActuallyMutates(t *testing.T) {
	env := NewEnv(sim.NewRand(1), 8, ConstraintTrue)
	initial := env.State()
	changed := false
	for i := 0; i < 100; i++ {
		env.Step()
		if !env.State().SameMembers(initial) {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("unconstrained env never mutated")
	}
}

func TestEnvHealAll(t *testing.T) {
	env := NewEnv(sim.NewRand(3), 8, ConstraintTrue)
	for _, id := range env.Universe() {
		env.SetReach(id, false)
	}
	if got := env.State().ReachableMembers(); len(got) != 0 {
		t.Fatalf("reachable after blackout: %v", got)
	}
	env.HealAll()
	s := env.State()
	for e := range s.Members {
		if !s.Reach[e] {
			t.Fatalf("element %q still unreachable after heal", e)
		}
	}
}

func TestEnvAddRemove(t *testing.T) {
	env := NewEnv(sim.NewRand(5), 4, ConstraintTrue)
	env.Add("x")
	if !env.State().Members["x"] {
		t.Fatal("Add failed")
	}
	env.Remove("x")
	if env.State().Members["x"] {
		t.Fatal("Remove failed")
	}
}

func TestRenderEveryFigure(t *testing.T) {
	for _, fig := range Figures() {
		text := Render(fig)
		if !strings.Contains(text, "elements = iter") {
			t.Errorf("%s rendering missing iterator header:\n%s", fig, text)
		}
		if !strings.Contains(text, "remembers yielded") {
			t.Errorf("%s rendering missing history object", fig)
		}
		if !strings.Contains(text, "constraint") {
			t.Errorf("%s rendering missing constraint clause", fig)
		}
	}
	if Render(Figure(99)) != "unknown figure" {
		t.Error("unknown figure rendering")
	}
	// The optimistic figure has no failure signal; the pessimistic ones do.
	if strings.Contains(Render(Fig6), "signals (failure)") {
		t.Error("Fig6 must not signal failure")
	}
	for _, fig := range []Figure{Fig3, Fig4, Fig5} {
		if !strings.Contains(Render(fig), "signals (failure)") {
			t.Errorf("%s must signal failure", fig)
		}
	}
}

func TestTaxonomyMatchesSection4(t *testing.T) {
	tests := []struct {
		fig  Figure
		cons Consistency
		curr Currency
	}{
		{Fig1, ConsistencyStrong, CurrencyFirstVintage},
		{Fig3, ConsistencyStrong, CurrencyFirstVintage},
		{Fig4, ConsistencyWeak, CurrencyFirstVintage},
		{Fig5, ConsistencyNone, CurrencyFirstBound},
		{Fig6, ConsistencyNone, CurrencyFirstBound},
	}
	for _, tt := range tests {
		cons, curr := Taxonomy(tt.fig)
		if cons != tt.cons || curr != tt.curr {
			t.Errorf("Taxonomy(%s) = (%s, %s), want (%s, %s)", tt.fig, cons, curr, tt.cons, tt.curr)
		}
	}
	if cons, curr := Taxonomy(Figure(99)); cons != 0 || curr != 0 {
		t.Error("unknown figure classified")
	}
	for _, c := range []Consistency{ConsistencyStrong, ConsistencyWeak, ConsistencyNone} {
		if c.String() == "consistency(?)" {
			t.Errorf("consistency %d unnamed", int(c))
		}
	}
	for _, c := range []Currency{CurrencyFirstVintage, CurrencyFirstBound} {
		if c.String() == "currency(?)" {
			t.Errorf("currency %d unnamed", int(c))
		}
	}
}

func TestCheckRunsPerRunRelaxation(t *testing.T) {
	// Two runs: within each the set is constant, but it changed between
	// them. The per-run relaxation accepts this; global immutability does
	// not.
	runA := Run{Invocations: []Invocation{
		yieldInv(st("a", "a"), "a"),
		endInv(st("a", "a"), Returned),
	}}
	runB := Run{Invocations: []Invocation{
		yieldInv(st("b", "b"), "b"),
		endInv(st("b", "b"), Returned),
	}}
	if err := CheckRuns(ConstraintImmutablePerRun, []Run{runA, runB}); err != nil {
		t.Fatalf("per-run relaxation rejected between-run mutation: %v", err)
	}
	if err := CheckRuns(ConstraintImmutable, []Run{runA, runB}); !errors.Is(err, ErrViolation) {
		t.Fatalf("global immutability accepted between-run mutation: %v", err)
	}
	// Mutation *within* a run violates the relaxation too.
	runBad := Run{Invocations: []Invocation{
		yieldInv(st("a", "a"), "a"),
		endInv(st("a,b", "a,b"), Returned),
	}}
	if err := CheckRuns(ConstraintImmutablePerRun, []Run{runBad}); !errors.Is(err, ErrViolation) {
		t.Fatalf("per-run relaxation accepted within-run mutation: %v", err)
	}
	// Grow-only per run: growth within a run is fine, shrink is not.
	grow := Run{Invocations: []Invocation{
		yieldInv(st("a", "a"), "a"),
		endInv(st("a,b", "a,b"), Blocked),
	}}
	if err := CheckRuns(ConstraintGrowOnlyPerRun, []Run{grow, runA}); err != nil {
		t.Fatalf("grow-only per run rejected growth: %v", err)
	}
	shrink := Run{Invocations: []Invocation{
		yieldInv(st("a,b", "a,b"), "a"),
		endInv(st("a", "a"), Returned),
	}}
	if err := CheckRuns(ConstraintGrowOnlyPerRun, []Run{shrink}); !errors.Is(err, ErrViolation) {
		t.Fatalf("grow-only per run accepted shrink: %v", err)
	}
}

func TestCheckersNeverPanicOnArbitraryRuns(t *testing.T) {
	// Property: every checker total-functions over arbitrary (even
	// nonsensical) runs — it returns nil or a violation, never panics.
	rng := sim.NewRand(2718)
	outcomes := []Outcome{Suspended, Returned, Failed, Blocked, Outcome(99)}
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(6)
		run := Run{}
		for i := 0; i < n; i++ {
			var members, reach []ElemID
			for e := 0; e < rng.Intn(5); e++ {
				id := ElemID(string(rune('a' + rng.Intn(4))))
				if rng.Intn(2) == 0 {
					members = append(members, id)
				}
				if rng.Intn(2) == 0 {
					reach = append(reach, id)
				}
			}
			inv := Invocation{
				Pre:      NewState(members, reach),
				Outcome:  outcomes[rng.Intn(len(outcomes))],
				HasYield: rng.Intn(2) == 0,
				Yield:    ElemID(string(rune('a' + rng.Intn(4)))),
			}
			run.Invocations = append(run.Invocations, inv)
		}
		for _, fig := range Figures() {
			_ = CheckRun(fig, run) // must not panic
		}
		for _, c := range []Constraint{ConstraintTrue, ConstraintImmutable, ConstraintGrowOnly, ConstraintImmutablePerRun, ConstraintGrowOnlyPerRun} {
			_ = CheckRunConstraint(c, run)
			_ = CheckRuns(c, []Run{run, run})
		}
	}
}
