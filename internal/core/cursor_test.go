package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"weaksets/internal/cluster"
	"weaksets/internal/netsim"
	"weaksets/internal/obs"
	"weaksets/internal/repo"
	"weaksets/internal/rpc"
	"weaksets/internal/sim"
	"weaksets/internal/spec"
)

// The proof obligations of the run table's stepper (Iterator.decide),
// beyond the exhaustive agreement check in ExhaustiveConformance: the
// table an Iterator actually maintains — folded, adopted, yielded from
// and sampled by the production code — decides what the kernel decides
// over long seeded worlds, and whole scripted runs, recorded or not, come
// out the same and conform to their figures.

func elemNode(id spec.ElemID) netsim.NodeID { return netsim.NodeID("n-" + string(id)) }

// refsOf lists members as refs, one node per element, in map (random)
// order — the listing an Iterator would be handed for that membership.
func refsOf(members map[spec.ElemID]bool) []repo.Ref {
	refs := make([]repo.Ref, 0, len(members))
	for id := range members {
		refs = append(refs, repo.Ref{ID: repo.ObjectID(id), Node: elemNode(id)})
	}
	return refs
}

// cursorVsKernel steps one bare Iterator's run table and the kernel
// side by side over a seeded spec.Env world — adds, removes and
// reachability flips between invocations, healed when blocked and frozen
// after 60 steps like RunModel — and fails on the first invocation where
// the table decides another kind of outcome than Step, or yields a member
// Step could not have. The Iterator has no servers behind it: each
// element lives on its own netsim node, crashed and restarted to mirror
// the Env's reachability, and the test plays observe's part by handing
// the production fold/adopt each new listing. The fault script touches
// only the nodes whose reachability flipped — by crash or by isolation,
// undone by restart or rejoin — so the network's generation stands still
// across the quiet invocations, and at every invocation the gated
// reachability sample must equal a fresh one. It returns how many
// invocations the table decided with a member node down and how many
// samples the gate answered from its last one.
func cursorVsKernel(t *testing.T, sem Semantics, discipline spec.Constraint, seed int64) (down, gated int) {
	t.Helper()
	env := spec.NewEnv(sim.NewRand(seed), 8, discipline)
	net := netsim.New(netsim.Config{Seed: seed})
	net.AddNode("home")
	for _, id := range env.Universe() {
		net.AddNode(elemNode(id))
	}
	it := &Iterator{
		client: repo.NewClient(rpc.NewBus(net), "home"),
		opts:   Options{Semantics: sem},
	}
	var (
		first   spec.State
		held    map[spec.ElemID]bool // the membership the table was last handed
		version uint64
		blocked int
	)
	for step := 0; step < 150; step++ {
		pre := env.State()
		for i, id := range env.Universe() {
			node := elemNode(id)
			switch crash := i%2 == 0; {
			case pre.Reach[id] == net.Reachable("home", node):
			case pre.Reach[id] && crash:
				net.Restart(node)
			case pre.Reach[id]:
				net.Rejoin(node)
			case crash:
				net.Crash(node)
			default:
				net.Isolate(node)
			}
		}
		switch {
		case step == 0 && sem.UsesSnapshot():
			first = pre
			if err := it.fold(repo.PartListing{Partitions: 1, Version: 1, Members: refsOf(pre.Members)}); err != nil {
				t.Fatal(err)
			}
		case !sem.UsesSnapshot() && (step == 0 || !sameSet(pre.Members, held)):
			version++
			held = pre.Members
			it.adopt(newListing(version, refsOf(pre.Members)))
		}

		yielded := make(map[spec.ElemID]bool)
		for _, id := range yieldedIDs(&it.tab) {
			yielded[spec.ElemID(id)] = true
		}
		want := Step(sem, first, pre, yielded)
		fresh := true
		for node := range it.tab.nodes {
			fresh = fresh && net.Reachable("home", node)
		}
		if it.tab.sampled && it.tab.reachGen == net.Generation() {
			gated++
		}
		if got := it.tab.allReachable(net.Generation(), it.client.NodeReachable); got != fresh {
			t.Fatalf("seed %d step %d: gated sample says all reachable = %v, a fresh one %v\nreach=%v", seed, step, got, fresh, pre.Reach)
		}
		if !fresh {
			down++
		}
		d := it.tab.decide(sem, false, net.Generation(), it.client.NodeReachable)
		chosen, part, _ := it.tab.head()
		if d != want.Kind {
			t.Fatalf("seed %d step %d: run table decides %v, kernel %v\nmembers=%v reach=%v yielded=%v",
				seed, step, d, want, pre.Members, pre.Reach, yielded)
		}
		switch governing := pre.Members; d {
		case DecideYield:
			if sem.UsesSnapshot() {
				governing = first.Members
			}
			if id := spec.ElemID(chosen.ID); !governing[id] || !pre.Reach[id] || yielded[id] {
				t.Fatalf("seed %d step %d: run table yields %q, not an unyielded reachable member (kernel %v)\nmembers=%v reach=%v yielded=%v",
					seed, step, id, want, governing, pre.Reach, yielded)
			}
			it.tab.yield(part, int(it.tab.at[part].pos))
			blocked = 0
		case DecideReturn, DecideFail:
			return down, gated
		case DecideBlock:
			if blocked++; blocked > 3 {
				env.HealAll()
			}
		}
		if step < 60 {
			env.Step()
		}
	}
	return down, gated
}

func TestCursorMatchesKernelOverSeededWorlds(t *testing.T) {
	const seeds = 250
	for _, sem := range AllSemantics() {
		// Each semantics under its own constraint discipline and, where it
		// has one, with the constraint broken too: the table must track the
		// kernel even when the environment does not keep its promise (a
		// grow-only set that shrinks is what makes yielded ids vanish).
		disciplines := []spec.Constraint{sem.Constraint()}
		if sem.Constraint() != spec.ConstraintTrue {
			disciplines = append(disciplines, spec.ConstraintTrue)
		}
		for _, discipline := range disciplines {
			sem, discipline := sem, discipline
			t.Run(sem.String()+"/env="+discipline.String(), func(t *testing.T) {
				down, gated := 0, 0
				for seed := int64(0); seed < seeds; seed++ {
					d, g := cursorVsKernel(t, sem, discipline, seed)
					down, gated = down+d, gated+g
				}
				if down == 0 || gated == 0 {
					t.Fatalf("%d invocations had a member node down and the gate answered %d from its last sample: the comparison is vacuous", down, gated)
				}
				t.Logf("every invocation decided by the run table as Step does, %d of them with a member node down; %d reachability samples reused, each equal to a fresh one", down, gated)
			})
		}
	}
}

// leaseWorld attaches an element cache and a started lease state to the
// world's client, as a leased deployment would.
func leaseWorld(t testing.TB, w *testWorld) *repo.LeaseState {
	t.Helper()
	w.c.Client.UseCache(repo.NewCache(64))
	ls := repo.NewLeaseState(w.c.Client, cluster.DirNode, "set")
	if err := ls.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ls.Stop)
	w.c.Client.UseLeases(ls)
	return ls
}

// awaitLease waits until the lease certifies the collection's current
// listing version: the grant, or the push of the last write, has landed.
func awaitLease(t testing.TB, w *testWorld, ls *repo.LeaseState) {
	t.Helper()
	_, want, err := w.c.Client.List(context.Background(), cluster.DirNode, "set")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, _, ok := ls.Serveable("set"); ok && v >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("lease never certified listing version %d", want)
		}
		time.Sleep(time.Millisecond)
	}
}

// scriptedWorld is what a cursorScenario's script acts on. Runs yield in
// completion order, so a script that needs a member yielded or not yet
// yielded picks it from yielded, and records in victims the members it
// took out of the set, which the two arms may pick differently.
type scriptedWorld struct {
	t       *testing.T
	w       *testWorld
	ls      *repo.LeaseState // nil unless the scenario is leased
	bg      sync.WaitGroup
	yielded []repo.Ref
	victims []string
	cut     netsim.NodeID
}

func (sw *scriptedWorld) remove(ref repo.Ref) {
	sw.t.Helper()
	sw.victims = append(sw.victims, string(ref.ID))
	if err := sw.w.c.Client.DeleteMember(context.Background(), cluster.DirNode, "set", ref); err != nil {
		sw.t.Fatal(err)
	}
}

// unyielded returns ref if the run has not yielded it, else the
// highest-id member it has not.
func (sw *scriptedWorld) unyielded(ref repo.Ref) repo.Ref {
	for i := len(sw.w.refs) - 1; slices.Contains(sw.yielded, ref); i-- {
		ref = sw.w.refs[i]
	}
	return ref
}

// cursorScenario is one scripted run: script runs on the test goroutine
// before the k-th Next call (k from 0) and mutates or partitions the
// world; check, if set, holds the unrecorded run to what the scenario
// is about.
type cursorScenario struct {
	name   string
	leased bool
	sems   []Semantics // nil: the four shipped current-state and snapshot points
	script func(sw *scriptedWorld, k int)
	check  func(t *testing.T, sem Semantics, run scriptedRun)
}

type scriptedRun struct {
	ids     []string // in yield order; "(stale)" marks a Fig. 4 ghost yield
	refs    []repo.Ref
	victims []string
	cut     netsim.NodeID
	err     error
	wk      obs.WeaknessReport
}

// settled is the run's yields in id order, less the members the scenario
// took out of the set in either arm (victims): what two runs of one
// scenario must agree on when they yield in completion order.
func (run scriptedRun) settled(victims []string) []string {
	out := slices.DeleteFunc(slices.Clone(run.ids), func(id string) bool {
		return slices.Contains(victims, strings.TrimSuffix(id, "(stale)"))
	})
	slices.Sort(out)
	return out
}

const scriptedMembers = 10

// runScripted plays sc once on a fresh world. With a history attached
// the run — the same stepper as without — is checked against its figure.
func runScripted(t *testing.T, sc cursorScenario, sem Semantics, recorded bool) scriptedRun {
	t.Helper()
	ctx := context.Background()
	sw := &scriptedWorld{t: t, w: newTestWorld(t, scriptedMembers)}
	s := sw.w.set(t, Options{Semantics: sem, BlockRetry: time.Millisecond})
	if sc.leased {
		sw.ls = leaseWorld(t, sw.w)
		for i := 0; i < 2; i++ { // publish the listing, land the grant
			if _, err := s.Collect(ctx); err != nil {
				t.Fatal(err)
			}
		}
		awaitLease(t, sw.w, sw.ls)
	}
	it, err := s.Elements(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close(ctx)
	var hist []invocation
	if recorded {
		it.hist = &hist
	}
	var run scriptedRun
	for k := 0; ; k++ {
		sc.script(sw, k)
		if !it.Next(ctx) {
			break
		}
		id := string(it.Element().Ref.ID)
		if it.Element().Stale {
			id += "(stale)"
		}
		run.ids = append(run.ids, id)
		sw.yielded = append(sw.yielded, it.Element().Ref)
	}
	sw.bg.Wait()
	run.refs, run.victims, run.cut = sw.yielded, sw.victims, sw.cut
	run.err, run.wk = it.Err(), it.Weakness()
	if recorded {
		if err := spec.CheckRun(sem.Figure(), historyRun(sem, hist)); err != nil {
			t.Fatalf("recorded run violates %s: %v", sem.Figure(), err)
		}
	}
	return run
}

var cursorScenarios = []cursorScenario{
	{
		name: "member added mid-run",
		script: func(sw *scriptedWorld, k int) {
			if k == 2 {
				sw.w.addElement(sw.t, 50)
			}
		},
		check: func(t *testing.T, sem Semantics, run scriptedRun) {
			want := scriptedMembers + 1
			if sem == Snapshot {
				want = scriptedMembers // Fig. 4 loses the addition
			}
			if run.err != nil || len(run.ids) != want {
				t.Fatalf("yielded %d (%v), want %d and a normal return", len(run.ids), run.err, want)
			}
		},
	},
	{
		name: "unyielded member removed",
		script: func(sw *scriptedWorld, k int) {
			if k == 2 {
				sw.remove(sw.unyielded(sw.w.refs[7]))
			}
		},
	},
	{
		name: "yielded member removed",
		script: func(sw *scriptedWorld, k int) {
			if k == 3 {
				sw.remove(sw.yielded[0])
			}
		},
		check: func(t *testing.T, sem Semantics, run scriptedRun) {
			switch sem {
			case GrowOnly: // the constraint clause was broken: Fig. 5 fails the run
				if !errors.Is(run.err, ErrFailure) || len(run.ids) != 3 {
					t.Fatalf("yielded %d, err %v; want 3 and ErrFailure", len(run.ids), run.err)
				}
			case Optimistic:
				if run.err != nil || len(run.ids) != scriptedMembers {
					t.Fatalf("yielded %d, err %v; want all %d and a normal return", len(run.ids), run.err, scriptedMembers)
				}
			}
		},
	},
	{
		name: "node partitioned then healed",
		script: func(sw *scriptedWorld, k int) {
			switch k {
			case 1: // one member is yielded; the cut node holds only unyielded ones
				sw.cut = sw.w.c.Storage[3]
				if sw.yielded[0].Node == sw.cut {
					sw.cut = sw.w.c.Storage[2]
				}
				sw.w.c.Net.Isolate(sw.cut)
			case 5:
				sw.w.c.Net.Rejoin(sw.cut)
			}
		},
		check: func(t *testing.T, sem Semantics, run scriptedRun) {
			if run.err != nil || len(run.ids) != scriptedMembers {
				t.Fatalf("yielded %v (%v), want all %d", run.ids, run.err, scriptedMembers)
			}
			for _, ref := range run.refs[1:5] {
				if ref.Node == run.cut {
					t.Fatalf("yielded %v while its node %s was cut: %v", ref.ID, run.cut, run.ids)
				}
			}
		},
	},
	{
		name:   "lease lost mid-run",
		leased: true,
		script: func(sw *scriptedWorld, k int) {
			if k == 4 {
				sw.ls.Stop()
			}
		},
		check: func(t *testing.T, sem Semantics, run scriptedRun) {
			if run.err != nil || len(run.ids) != scriptedMembers {
				t.Fatalf("yielded %d (%v), want all %d", len(run.ids), run.err, scriptedMembers)
			}
			if sem.UsesSnapshot() {
				return
			}
			if run.wk.LeaseServed != 4 || run.wk.ListingSkew != 0 {
				t.Fatalf("leaseServed %d, listingSkew %d; want 4 lease-served invocations, then NotModified ones", run.wk.LeaseServed, run.wk.ListingSkew)
			}
		},
	},
	{
		// The window inside DeleteMember — data gone, id still listed —
		// held open for 20 ms: the run must neither yield e009 nor fail,
		// re-deciding until the listing drops it.
		name: "ErrNotFound on fetch",
		sems: []Semantics{Optimistic},
		script: func(sw *scriptedWorld, k int) {
			if k != 2 {
				return
			}
			victim := sw.unyielded(sw.w.refs[9])
			sw.victims = append(sw.victims, string(victim.ID))
			if err := sw.w.c.Client.Delete(context.Background(), victim); err != nil {
				sw.t.Fatal(err)
			}
			sw.bg.Add(1)
			go func() {
				defer sw.bg.Done()
				time.Sleep(20 * time.Millisecond)
				if _, err := sw.w.c.Client.Remove(context.Background(), cluster.DirNode, "set", victim.ID); err != nil {
					sw.t.Error(err)
				}
			}()
		},
		check: func(t *testing.T, sem Semantics, run scriptedRun) {
			if run.err != nil || len(run.ids) != scriptedMembers-1 {
				t.Fatalf("yielded %d (%v), want %d and a normal return", len(run.ids), run.err, scriptedMembers-1)
			}
			if run.wk.Invocations <= int64(len(run.ids))+1 {
				t.Fatalf("%d invocations for %d yields: the missing member was never re-decided", run.wk.Invocations, len(run.ids))
			}
		},
	},
}

// TestCursorAndKernelRunsAgree plays every scenario twice per semantics —
// once with a history attached, every invocation checked against the
// figure, and once without — and demands the same yields and the same
// end: the history watches the shipped stepper and changes nothing it
// decides. Both yield in completion order, so the yields are compared as
// sets, less the members each arm's script took out of the set, and a run
// that does not return normally by count alone.
func TestCursorAndKernelRunsAgree(t *testing.T) {
	for _, sc := range cursorScenarios {
		sems := sc.sems
		if sems == nil {
			sems = []Semantics{GrowOnly, GrowOnlyPerRun, Optimistic, Snapshot}
		}
		for _, sem := range sems {
			sc, sem := sc, sem
			t.Run(sc.name+"/"+sem.String(), func(t *testing.T) {
				recorded := runScripted(t, sc, sem, true)
				shipped := runScripted(t, sc, sem, false)
				// A run cut short yields whichever members landed first.
				victims := append(slices.Clone(shipped.victims), recorded.victims...)
				returned := shipped.err == nil && recorded.err == nil
				if len(shipped.ids) != len(recorded.ids) || returned && !slices.Equal(shipped.settled(victims), recorded.settled(victims)) {
					t.Fatalf("yields differ:\n unrecorded %v\n recorded   %v", shipped.ids, recorded.ids)
				}
				if fmt.Sprint(shipped.err) != fmt.Sprint(recorded.err) {
					t.Fatalf("runs end differently:\n unrecorded %v\n recorded   %v", shipped.err, recorded.err)
				}
				if sc.check != nil {
					sc.check(t, sem, shipped)
				}
			})
		}
	}
}

// TestQuiescentRunObservesOncePerInvocation holds the invocation count
// of whole runs: a quiescent all-reachable run — current-state, with or
// without a lease, or snapshot — observes its membership n+1 times, the
// terminal one included, and a run with a member node partitioned
// throughout yields every member it can reach and ends as its figure
// says. Their cost is TestRunAllocBudget's: the dynOneDown2k row is a
// partitioned run's.
func TestQuiescentRunObservesOncePerInvocation(t *testing.T) {
	ctx := context.Background()
	const n = 2000
	for _, leased := range []bool{false, true} {
		w := newTestWorld(t, n)
		var ls *repo.LeaseState
		if leased {
			ls = leaseWorld(t, w)
		}
		for _, sem := range []Semantics{GrowOnly, Optimistic, Snapshot} {
			s := w.set(t, Options{Semantics: sem})
			var wantServed int64 // a snapshot run reads no lease
			if leased && !sem.UsesSnapshot() {
				if _, err := s.Collect(ctx); err != nil {
					t.Fatal(err)
				}
				awaitLease(t, w, ls)
				wantServed = n + 1
			}
			it, err := s.Elements(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for it.Next(ctx) {
			}
			_ = it.Close(ctx)
			wk := it.Weakness()
			if it.Err() != nil || wk.Yielded != n || wk.Invocations != n+1 {
				t.Fatalf("%s leased=%v: yielded %d, %d invocations, err %v; want %d, %d, nil",
					sem, leased, wk.Yielded, wk.Invocations, it.Err(), n, n+1)
			}
			if wk.LeaseServed != wantServed {
				t.Fatalf("%s leased=%v: %d lease-served invocations, want %d", sem, leased, wk.LeaseServed, wantServed)
			}
		}
	}

	const m = 200
	w := newTestWorld(t, m)
	w.c.Net.Isolate(w.c.Storage[1])
	for _, tc := range []struct {
		sem     Semantics
		wantErr error
	}{{GrowOnly, ErrFailure}, {Optimistic, ErrBlocked}} {
		s := w.set(t, Options{Semantics: tc.sem, BlockRetry: time.Millisecond, MaxBlock: 2 * time.Millisecond})
		it, err := s.Elements(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for it.Next(ctx) {
			if it.Element().Ref.Node == w.c.Storage[1] {
				t.Fatalf("%s partitioned: yielded %s from the isolated node", tc.sem, it.Element().Ref.ID)
			}
		}
		_ = it.Close(ctx)
		wk := it.Weakness()
		if wk.Yielded != m*3/4 || wk.Invocations <= wk.Yielded || !errors.Is(it.Err(), tc.wantErr) {
			t.Fatalf("%s partitioned: yielded %d, %d invocations, err %v; want %d yields, then %v",
				tc.sem, wk.Yielded, wk.Invocations, it.Err(), m*3/4, tc.wantErr)
		}
	}
}

// TestListingSkewCountedOnLeaseServedRun is the regression test for skew
// dropped on runs that opened from the cross-run listing: a run that has
// observed its listing five times by lease and then sees it move has
// seen within-run skew, exactly as one that observed it by RPC.
func TestListingSkewCountedOnLeaseServedRun(t *testing.T) {
	w := newTestWorld(t, 12)
	ctx := context.Background()
	ls := leaseWorld(t, w)
	s := w.set(t, Options{Semantics: GrowOnly})
	for i := 0; i < 2; i++ {
		if _, err := s.Collect(ctx); err != nil {
			t.Fatal(err)
		}
	}
	awaitLease(t, w, ls)

	it, err := s.Elements(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close(ctx)
	for i := 0; i < 5; i++ {
		if !it.Next(ctx) {
			t.Fatalf("next %d: %v", i, it.Err())
		}
	}
	w.addElement(t, 100)
	awaitLease(t, w, ls)
	for it.Next(ctx) {
	}
	wk := it.Weakness()
	if it.Err() != nil || wk.Yielded != 13 || wk.LeaseServed != 13 {
		t.Fatalf("yielded %d, leaseServed %d, err %v; want 13, 13, nil", wk.Yielded, wk.LeaseServed, it.Err())
	}
	if wk.ListingSkew != 1 {
		t.Fatalf("listingSkew = %d, want 1: the listing moved under a run that had observed it", wk.ListingSkew)
	}
}
