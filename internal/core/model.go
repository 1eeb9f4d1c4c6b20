package core

import (
	"weaksets/internal/spec"
)

// ModelConfig bounds a model-level run.
type ModelConfig struct {
	// MaxSteps caps the number of kernel invocations (an optimistic run
	// over a perpetually growing set never terminates on its own, §3.3).
	MaxSteps int
	// HealAfterBlocks, when >= 0, heals every element's reachability after
	// this many consecutive blocked invocations — modelling the repair the
	// optimistic semantics waits for. Negative leaves failures in place.
	HealAfterBlocks int
	// FreezeAfter, when >= 0, stops environment mutation after this many
	// invocations, letting grow-only runs terminate.
	FreezeAfter int
}

// RunModel drives the pure semantic kernel against a model environment:
// the kernel observes env's state, decides, the run appends the
// invocation, and the environment takes a random step between invocations.
// This is the harness the conformance matrix (experiment E6) and the
// property tests use: the kernel the distributed iterator's run table is
// held to (ExhaustiveConformance), checked against the executable
// specifications with no network noise.
//
// It returns the recorded run and whether the run terminated (returned or
// failed) within cfg.MaxSteps.
func RunModel(sem Semantics, env *spec.Env, cfg ModelConfig) (spec.Run, bool) {
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = 200
	}
	var run spec.Run
	yielded := make(map[spec.ElemID]bool)
	var first spec.State
	blocked := 0
	for step := 0; step < cfg.MaxSteps; step++ {
		pre := env.State() // a fresh state each step: the run keeps it
		if step == 0 {
			first = pre
		}
		d := Step(sem, first, pre, yielded)
		run.Invocations = append(run.Invocations, specInvocation(pre, d))
		switch d.Kind {
		case DecideYield:
			yielded[d.Elem] = true
			blocked = 0
		case DecideReturn, DecideFail:
			return run, true
		case DecideBlock:
			blocked++
			if cfg.HealAfterBlocks >= 0 && blocked > cfg.HealAfterBlocks {
				env.HealAll()
			}
		}
		if cfg.FreezeAfter < 0 || step < cfg.FreezeAfter {
			env.Step()
		}
	}
	return run, false
}
