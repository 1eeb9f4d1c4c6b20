// Specwalk: a guided walk through the executable specifications. It
// prints the paper's Figure 6 spec, drives the optimistic kernel step by
// step through a hand-built scenario — mutation, failure, blocking,
// repair — narrating every invocation, and then checks the recorded run
// against every figure to show where it sits in the design-space lattice.
//
// Run with:
//
//	go run ./examples/specwalk
package main

import (
	"fmt"
	"sort"
	"strings"

	"weaksets/internal/core"
	"weaksets/internal/spec"
)

func main() {
	fmt.Println(spec.Render(spec.Fig6))
	fmt.Println()

	// The world: elements a, b, c; b's node is down at first.
	env := struct {
		members map[spec.ElemID]bool
		reach   map[spec.ElemID]bool
	}{
		members: map[spec.ElemID]bool{"a": true, "b": true, "c": true},
		reach:   map[spec.ElemID]bool{"a": true, "c": true},
	}
	state := func() spec.State {
		var m, r []spec.ElemID
		for e := range env.members {
			m = append(m, e)
		}
		for e := range env.reach {
			r = append(r, e)
		}
		return spec.NewState(m, r)
	}

	var run spec.Run
	yielded := make(map[spec.ElemID]bool)
	first := state()
	step := 0
	invoke := func(note string) {
		step++
		pre := state()
		d := core.Step(core.Optimistic, first, pre, yielded)
		switch d.Kind {
		case core.DecideYield:
			run.Invocations = append(run.Invocations, spec.Invocation{Pre: pre, Outcome: spec.Suspended, Yield: d.Elem, HasYield: true})
			yielded[d.Elem] = true
			fmt.Printf("invocation %d: members=%s reachable=%s -> yield %q, suspends   (%s)\n",
				step, fmtSet(pre.Members), fmtSet(pre.Reach), d.Elem, note)
		case core.DecideBlock:
			run.Invocations = append(run.Invocations, spec.Invocation{Pre: pre, Outcome: spec.Blocked})
			fmt.Printf("invocation %d: members=%s reachable=%s -> BLOCKS             (%s)\n",
				step, fmtSet(pre.Members), fmtSet(pre.Reach), note)
		case core.DecideReturn:
			run.Invocations = append(run.Invocations, spec.Invocation{Pre: pre, Outcome: spec.Returned})
			fmt.Printf("invocation %d: members=%s -> returns                          (%s)\n",
				step, fmtSet(pre.Members), note)
		case core.DecideFail:
			run.Invocations = append(run.Invocations, spec.Invocation{Pre: pre, Outcome: spec.Failed})
			fmt.Printf("invocation %d: FAILS (%s)\n", step, note)
		}
	}

	invoke("fresh start: yields the smallest reachable member")
	env.members["d"] = true // a concurrent writer adds d...
	env.reach["d"] = true
	invoke("a writer added d mid-run; c is still next in order")
	delete(env.members, "c") // ...and deletes c, which was already yielded
	invoke("the mid-run addition d is yielded — Fig 6 must not miss it")
	invoke("only the unreachable b remains: the optimistic iterator waits")
	env.reach["b"] = true // the partition heals
	invoke("the failure was repaired; b is reachable again")
	invoke("everything in the current set has been yielded")

	fmt.Println()
	fmt.Println("checking the recorded run against every figure:")
	for _, fig := range spec.Figures() {
		err := spec.CheckRun(fig, run)
		verdict := "conforms"
		if err != nil {
			verdict = "violates: " + firstLine(err.Error())
		}
		fmt.Printf("  %-22s %s\n", fig.String(), verdict)
	}
	fmt.Println()
	fmt.Println("the run conforms to its own figure (Fig 6) and breaks the stricter")
	fmt.Println("ones — the blocking outcome and the mid-run addition are exactly what")
	fmt.Println("the pessimistic and snapshot specifications forbid.")
}

func fmtSet(s map[spec.ElemID]bool) string {
	ids := make([]string, 0, len(s))
	for e := range s {
		ids = append(ids, string(e))
	}
	sort.Strings(ids)
	return "{" + strings.Join(ids, ",") + "}"
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
