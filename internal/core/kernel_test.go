package core

import (
	"errors"
	"fmt"
	"testing"

	"weaksets/internal/sim"
	"weaksets/internal/spec"
)

func mkState(members, reach []spec.ElemID) spec.State {
	return spec.NewState(members, reach)
}

func ids(ss ...string) []spec.ElemID {
	out := make([]spec.ElemID, len(ss))
	for i, s := range ss {
		out[i] = spec.ElemID(s)
	}
	return out
}

func yset(ss ...string) map[spec.ElemID]bool {
	out := make(map[spec.ElemID]bool, len(ss))
	for _, s := range ss {
		out[spec.ElemID(s)] = true
	}
	return out
}

func TestStepSnapshotBranches(t *testing.T) {
	first := mkState(ids("a", "b", "c"), nil)
	tests := []struct {
		name     string
		pre      spec.State
		yielded  map[spec.ElemID]bool
		want     DecisionKind
		wantElem spec.ElemID
	}{
		{
			name:     "yields smallest reachable unyielded",
			pre:      mkState(ids("a", "b", "c"), ids("a", "b", "c")),
			yielded:  yset(),
			want:     DecideYield,
			wantElem: "a",
		},
		{
			name:     "skips unreachable",
			pre:      mkState(ids("a", "b", "c"), ids("b", "c")),
			yielded:  yset(),
			want:     DecideYield,
			wantElem: "b",
		},
		{
			name:    "fails when reachable exhausted but first not covered",
			pre:     mkState(ids("a", "b", "c"), ids("a")),
			yielded: yset("a"),
			want:    DecideFail,
		},
		{
			name:    "returns when everything yielded",
			pre:     mkState(ids("a", "b", "c"), ids("a", "b", "c")),
			yielded: yset("a", "b", "c"),
			want:    DecideReturn,
		},
		{
			name:    "ignores additions outside first",
			pre:     mkState(ids("a", "b", "c", "d"), ids("a", "b", "c", "d")),
			yielded: yset("a", "b", "c"),
			want:    DecideReturn,
		},
	}
	for _, sem := range []Semantics{Immutable, ImmutablePerRun, Snapshot} {
		for _, tt := range tests {
			t.Run(fmt.Sprintf("%s/%s", sem, tt.name), func(t *testing.T) {
				d := Step(sem, first, tt.pre, tt.yielded)
				if d.Kind != tt.want {
					t.Fatalf("kind = %s, want %s", d.Kind, tt.want)
				}
				if tt.want == DecideYield && d.Elem != tt.wantElem {
					t.Fatalf("elem = %q, want %q", d.Elem, tt.wantElem)
				}
			})
		}
	}
}

func TestStepGrowOnlyBranches(t *testing.T) {
	first := mkState(nil, nil) // unused by grow-only
	tests := []struct {
		name     string
		pre      spec.State
		yielded  map[spec.ElemID]bool
		want     DecisionKind
		wantElem spec.ElemID
	}{
		{
			name:     "yields from current state including additions",
			pre:      mkState(ids("a", "b"), ids("a", "b")),
			yielded:  yset("a"),
			want:     DecideYield,
			wantElem: "b",
		},
		{
			name:    "returns only when current state covered",
			pre:     mkState(ids("a"), ids("a")),
			yielded: yset("a"),
			want:    DecideReturn,
		},
		{
			name:    "fails when unreachable members remain",
			pre:     mkState(ids("a", "b"), ids("a")),
			yielded: yset("a"),
			want:    DecideFail,
		},
		{
			name:    "fails fast with nothing yielded",
			pre:     mkState(ids("a"), nil),
			yielded: yset(),
			want:    DecideFail,
		},
	}
	for _, sem := range []Semantics{GrowOnly, GrowOnlyPerRun} {
		for _, tt := range tests {
			t.Run(fmt.Sprintf("%s/%s", sem, tt.name), func(t *testing.T) {
				d := Step(sem, first, tt.pre, tt.yielded)
				if d.Kind != tt.want {
					t.Fatalf("kind = %s, want %s", d.Kind, tt.want)
				}
				if tt.want == DecideYield && d.Elem != tt.wantElem {
					t.Fatalf("elem = %q, want %q", d.Elem, tt.wantElem)
				}
			})
		}
	}
}

func TestStepOptimisticBranches(t *testing.T) {
	first := mkState(nil, nil)
	tests := []struct {
		name     string
		pre      spec.State
		yielded  map[spec.ElemID]bool
		want     DecisionKind
		wantElem spec.ElemID
	}{
		{
			name:     "yields reachable",
			pre:      mkState(ids("a", "b"), ids("a", "b")),
			yielded:  yset(),
			want:     DecideYield,
			wantElem: "a",
		},
		{
			name:    "blocks instead of failing",
			pre:     mkState(ids("a", "b"), ids("a")),
			yielded: yset("a"),
			want:    DecideBlock,
		},
		{
			name:    "returns when covered",
			pre:     mkState(ids("a"), ids("a")),
			yielded: yset("a"),
			want:    DecideReturn,
		},
		{
			name:    "returns even after deletions shrink the set",
			pre:     mkState(ids("a"), ids("a")),
			yielded: yset("a", "b", "c"),
			want:    DecideReturn,
		},
		{
			name:     "sees additions",
			pre:      mkState(ids("a", "z"), ids("a", "z")),
			yielded:  yset("a"),
			want:     DecideYield,
			wantElem: "z",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d := Step(Optimistic, first, tt.pre, tt.yielded)
			if d.Kind != tt.want {
				t.Fatalf("kind = %s, want %s", d.Kind, tt.want)
			}
			if tt.want == DecideYield && d.Elem != tt.wantElem {
				t.Fatalf("elem = %q, want %q", d.Elem, tt.wantElem)
			}
		})
	}
}

func TestStepInvalidSemantics(t *testing.T) {
	d := Step(Semantics(99), mkState(nil, nil), mkState(ids("a"), ids("a")), yset())
	if d.Kind != DecideFail {
		t.Fatalf("invalid semantics decided %s, want fail", d.Kind)
	}
}

func TestStepEmptySet(t *testing.T) {
	empty := mkState(nil, nil)
	for _, sem := range AllSemantics() {
		if d := Step(sem, empty, empty, yset()); d.Kind != DecideReturn {
			t.Errorf("%s on empty set decided %s, want return", sem, d.Kind)
		}
	}
}

func TestStepDeterminism(t *testing.T) {
	pre := mkState(ids("c", "a", "b"), ids("c", "a", "b"))
	for i := 0; i < 10; i++ {
		d := Step(Optimistic, mkState(nil, nil), pre, yset())
		if d.Elem != "a" {
			t.Fatalf("nondeterministic pick: %q", d.Elem)
		}
	}
}

func TestSemanticsMetadata(t *testing.T) {
	tests := []struct {
		sem        Semantics
		fig        spec.Figure
		constraint spec.Constraint
		snapshot   bool
	}{
		{Immutable, spec.Fig3, spec.ConstraintImmutable, true},
		{ImmutablePerRun, spec.Fig3, spec.ConstraintImmutablePerRun, true},
		{Snapshot, spec.Fig4, spec.ConstraintTrue, true},
		{GrowOnly, spec.Fig5, spec.ConstraintGrowOnly, false},
		{GrowOnlyPerRun, spec.Fig5, spec.ConstraintGrowOnlyPerRun, false},
		{Optimistic, spec.Fig6, spec.ConstraintTrue, false},
	}
	for _, tt := range tests {
		if got := tt.sem.Figure(); got != tt.fig {
			t.Errorf("%s.Figure() = %s, want %s", tt.sem, got, tt.fig)
		}
		if got := tt.sem.Constraint(); got != tt.constraint {
			t.Errorf("%s.Constraint() = %s, want %s", tt.sem, got, tt.constraint)
		}
		if got := tt.sem.UsesSnapshot(); got != tt.snapshot {
			t.Errorf("%s.UsesSnapshot() = %v, want %v", tt.sem, got, tt.snapshot)
		}
		if !tt.sem.Valid() {
			t.Errorf("%s.Valid() = false", tt.sem)
		}
	}
	if Semantics(0).Valid() || Semantics(99).Valid() {
		t.Error("invalid semantics claimed valid")
	}
	if len(AllSemantics()) != 6 {
		t.Errorf("AllSemantics() = %v", AllSemantics())
	}
}

// TestModelConformance is the central property test: for many random
// environments, a model run of each semantics — under the environment
// discipline its constraint clause demands — must satisfy its own figure's
// ensures clause.
func TestModelConformance(t *testing.T) {
	const seeds = 300
	for _, sem := range AllSemantics() {
		sem := sem
		t.Run(sem.String(), func(t *testing.T) {
			for seed := int64(0); seed < seeds; seed++ {
				env := spec.NewEnv(sim.NewRand(seed), 8, sem.Constraint())
				run, _ := RunModel(sem, env, ModelConfig{
					MaxSteps:        150,
					HealAfterBlocks: 3,
					FreezeAfter:     60,
				})
				if err := spec.CheckRun(sem.Figure(), run); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if err := spec.CheckRunConstraint(sem.Constraint(), run); err != nil {
					t.Fatalf("seed %d: environment broke discipline: %v", seed, err)
				}
			}
		})
	}
}

// TestModelTermination checks that under a frozen environment with repairs
// every semantics eventually terminates, and pessimistic semantics
// terminate even without repairs (by failing).
func TestModelTermination(t *testing.T) {
	for _, sem := range AllSemantics() {
		sem := sem
		t.Run(sem.String(), func(t *testing.T) {
			for seed := int64(0); seed < 100; seed++ {
				env := spec.NewEnv(sim.NewRand(seed), 6, sem.Constraint())
				run, terminated := RunModel(sem, env, ModelConfig{
					MaxSteps:        200,
					HealAfterBlocks: 2,
					FreezeAfter:     50,
				})
				if !terminated {
					t.Fatalf("seed %d: run did not terminate; %d invocations", seed, len(run.Invocations))
				}
			}
		})
	}
}

// TestOptimisticNeverFails checks the paper's Fig. 6 claim directly: the
// optimistic iterator has no fails outcome, under any environment.
func TestOptimisticNeverFails(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		env := spec.NewEnv(sim.NewRand(seed), 10, spec.ConstraintTrue)
		run, _ := RunModel(Optimistic, env, ModelConfig{MaxSteps: 120, HealAfterBlocks: -1, FreezeAfter: -1})
		for i, inv := range run.Invocations {
			if inv.Outcome == spec.Failed {
				t.Fatalf("seed %d: optimistic failed at invocation %d", seed, i)
			}
		}
	}
}

// TestYieldedAlwaysMemberSomewhere checks Fig. 6's guarantee: "any element
// yielded must actually be in the set, for some state of the set between
// the first-state and last-state" — here, in the very pre-state it was
// yielded from.
func TestYieldedAlwaysMemberSomewhere(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		env := spec.NewEnv(sim.NewRand(seed), 10, spec.ConstraintTrue)
		run, _ := RunModel(Optimistic, env, ModelConfig{MaxSteps: 120, HealAfterBlocks: 2, FreezeAfter: -1})
		for i, inv := range run.Invocations {
			if inv.HasYield && !inv.Pre.Members[inv.Yield] {
				t.Fatalf("seed %d: invocation %d yielded non-member %q", seed, i, inv.Yield)
			}
		}
	}
}

// TestSnapshotNeverYieldsOutsideFirst checks Fig. 4: nothing outside
// s_first is ever yielded, no matter how the set mutates.
func TestSnapshotNeverYieldsOutsideFirst(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		env := spec.NewEnv(sim.NewRand(seed), 10, spec.ConstraintTrue)
		run, _ := RunModel(Snapshot, env, ModelConfig{MaxSteps: 120, HealAfterBlocks: 2, FreezeAfter: -1})
		first := run.First().Members
		for i, inv := range run.Invocations {
			if inv.HasYield && !first[inv.Yield] {
				t.Fatalf("seed %d: invocation %d yielded %q outside s_first", seed, i, inv.Yield)
			}
		}
	}
}

// TestConformanceLattice spot-checks the strictness lattice the design
// space forms: under an immutable, fully-reachable environment every
// semantics happens to satisfy the weaker figures' ensures clauses, while
// under mutation the snapshot run violates Fig. 5 (it misses additions)
// and the grow-only run violates Fig. 4 (it yields additions).
func TestConformanceLattice(t *testing.T) {
	t.Run("benign env: immutable run satisfies all figures", func(t *testing.T) {
		env := spec.NewEnv(sim.NewRand(7), 6, spec.ConstraintImmutable)
		env.HealAll()
		env.PFlipReach = 0 // keep everything reachable
		run, _ := RunModel(Immutable, env, ModelConfig{MaxSteps: 100, HealAfterBlocks: 0, FreezeAfter: -1})
		for _, fig := range spec.Figures() {
			if err := spec.CheckRun(fig, run); err != nil {
				t.Errorf("figure %s rejected benign run: %v", fig, err)
			}
		}
	})

	t.Run("mutating env separates Fig4 and Fig5", func(t *testing.T) {
		// Build an environment that grows during the run.
		sawSeparation := false
		for seed := int64(0); seed < 100 && !sawSeparation; seed++ {
			env := spec.NewEnv(sim.NewRand(seed), 6, spec.ConstraintGrowOnly)
			env.HealAll()
			env.PFlipReach = 0
			env.PMutate = 0.8
			run, _ := RunModel(Snapshot, env, ModelConfig{MaxSteps: 60, HealAfterBlocks: 0, FreezeAfter: 20})
			errSnapshotAs5 := spec.CheckRun(spec.Fig5, run)
			if errSnapshotAs5 != nil && spec.CheckRun(spec.Fig4, run) == nil {
				sawSeparation = true
			}
		}
		if !sawSeparation {
			t.Fatal("no seed separated Fig4 from Fig5")
		}
	})
}

// TestRunModelDefaults exercises RunModel's parameter defaults.
func TestRunModelDefaults(t *testing.T) {
	env := spec.NewEnv(sim.NewRand(1), 4, spec.ConstraintImmutable)
	env.HealAll()
	env.PFlipReach = 0
	run, terminated := RunModel(Immutable, env, ModelConfig{HealAfterBlocks: -1, FreezeAfter: -1})
	if !terminated {
		t.Fatal("immutable healthy run did not terminate")
	}
	if err := spec.CheckRun(spec.Fig3, run); err != nil {
		t.Fatal(err)
	}
}

func TestDecisionKindString(t *testing.T) {
	kinds := []DecisionKind{DecideYield, DecideReturn, DecideFail, DecideBlock}
	for _, k := range kinds {
		if k.String() == "decision(?)" || k.String() == "" {
			t.Errorf("kind %d has no name", int(k))
		}
	}
}

func TestErrorsAreDistinct(t *testing.T) {
	if errors.Is(ErrFailure, ErrBlocked) || errors.Is(ErrBlocked, ErrClosed) {
		t.Fatal("sentinel errors alias each other")
	}
}

// TestExhaustiveConformance is the strongest verification in the suite:
// for every semantics, every world of up to 4 elements — every membership,
// every reachability pattern, every yielded set, every mutation/repair
// interleaving the constraint discipline allows — the run table an
// Iterator holds there decides what the kernel Step decides, and both
// decisions satisfy the figure's ensures clause. Within this bound the
// stepper every run ships is *proved* conformant, not just sampled.
func TestExhaustiveConformance(t *testing.T) {
	for _, sem := range AllSemantics() {
		sem := sem
		t.Run(sem.String(), func(t *testing.T) {
			res, err := ExhaustiveConformance(sem, 4)
			if err != nil {
				t.Fatalf("after %d states: %v", res.States, err)
			}
			if res.States < 1<<12 {
				t.Fatalf("suspiciously small state space: %+v", res)
			}
			t.Logf("%s: %d states, the run table's decision in each equal to Step's", sem, res.States)
		})
	}
}

func TestExhaustiveConformanceBounds(t *testing.T) {
	if _, err := ExhaustiveConformance(Optimistic, 0); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := ExhaustiveConformance(Optimistic, 9); err == nil {
		t.Fatal("n=9 accepted")
	}
	res, err := ExhaustiveConformance(Immutable, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elements != 1 || res.States == 0 {
		t.Fatalf("res = %+v", res)
	}
}
