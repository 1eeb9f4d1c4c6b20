package core

import (
	"context"
	"reflect"

	"weaksets/internal/spec"
)

// historyRun is the spec.Run a run's history (Iterator.hist) records, the
// form the figures check. Each entry's pre-state is the membership its
// decision governed — under a snapshot semantics the run's final s_first,
// since terminal decisions wait for the whole stream, and otherwise the
// listing the run held — with as reachable every member not on the nodes
// the entry's sample found down. A snapshot table's entries all hold the
// one partition table fold fills, so the last entry's is the whole
// s_first. Entries over one (partitions, down) share one State.
func historyRun(sem Semantics, hist []invocation) spec.Run {
	type key struct{ parts, down uintptr }
	states := make(map[key]spec.State)
	run := spec.Run{Invocations: make([]spec.Invocation, len(hist))}
	for i, inv := range hist {
		parts := inv.parts
		if sem.UsesSnapshot() {
			parts = hist[len(hist)-1].parts
		}
		k := key{reflect.ValueOf(parts).Pointer(), reflect.ValueOf(inv.down).Pointer()}
		pre, ok := states[k]
		if !ok {
			pre = spec.State{Members: map[spec.ElemID]bool{}, Reach: map[spec.ElemID]bool{}}
			for _, refs := range parts {
				for _, ref := range refs {
					pre.Members[spec.ElemID(ref.ID)] = true
					if !inv.down[ref.Node] {
						pre.Reach[spec.ElemID(ref.ID)] = true
					}
				}
			}
			states[k] = pre
		}
		run.Invocations[i] = specInvocation(pre, Decision{Kind: inv.kind, Elem: spec.ElemID(inv.yield.ID)})
	}
	return run
}

// collectRecorded runs s to its end, as Collect does, with a history
// attached, and returns the history as a spec.Run and the run's error.
func collectRecorded(ctx context.Context, s *Set) (spec.Run, error) {
	it, err := s.Elements(ctx)
	if err != nil {
		return spec.Run{}, err
	}
	defer it.Close(context.Background())
	var hist []invocation
	it.hist = &hist
	for it.Next(ctx) {
	}
	return historyRun(s.Semantics(), hist), it.Err()
}
