package netsim

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"weaksets/internal/sim"
)

// testNet builds a no-sleep network with nodes a, b, c.
func testNet(t *testing.T, cfg Config) *Network {
	t.Helper()
	n := New(cfg)
	for _, id := range []NodeID{"a", "b", "c"} {
		n.AddNode(id)
	}
	return n
}

func TestReachableBasics(t *testing.T) {
	n := testNet(t, Config{})
	if !n.Reachable("a", "b") {
		t.Fatal("a should reach b")
	}
	if !n.Reachable("a", "a") {
		t.Fatal("a should reach itself")
	}
	if n.Reachable("a", "zz") {
		t.Fatal("unknown node should be unreachable")
	}
	if n.Reachable("zz", "a") {
		t.Fatal("unknown source should be unreachable")
	}
}

func TestCrashAndRestart(t *testing.T) {
	n := testNet(t, Config{})
	n.Crash("b")
	if n.Reachable("a", "b") {
		t.Fatal("crashed node reachable")
	}
	if n.Reachable("b", "a") {
		t.Fatal("crashed node can send")
	}
	if !n.Crashed("b") {
		t.Fatal("Crashed(b) = false")
	}
	n.Restart("b")
	if !n.Reachable("a", "b") {
		t.Fatal("restarted node unreachable")
	}
}

func TestPartitionAndHeal(t *testing.T) {
	n := testNet(t, Config{})
	n.Partition([]NodeID{"a"}, []NodeID{"b", "c"})
	if n.Reachable("a", "b") {
		t.Fatal("a reached across partition")
	}
	if !n.Reachable("b", "c") {
		t.Fatal("b and c share a side")
	}
	n.Heal()
	if !n.Reachable("a", "b") {
		t.Fatal("heal did not restore reachability")
	}
}

func TestIsolateRejoin(t *testing.T) {
	n := testNet(t, Config{})
	n.Isolate("c")
	if n.Reachable("a", "c") || n.Reachable("c", "b") {
		t.Fatal("isolated node still reachable")
	}
	if !n.Reachable("a", "b") {
		t.Fatal("isolation affected other nodes")
	}
	n.Rejoin("c")
	if !n.Reachable("a", "c") {
		t.Fatal("rejoin failed")
	}
}

func TestIsolateTwoNodesSeparately(t *testing.T) {
	n := testNet(t, Config{})
	n.Isolate("a")
	n.Isolate("b")
	if n.Reachable("a", "b") {
		t.Fatal("two isolated nodes should not see each other")
	}
	n.Rejoin("a")
	if !n.Reachable("a", "c") {
		t.Fatal("a should rejoin default group")
	}
	if n.Reachable("a", "b") {
		t.Fatal("b is still isolated")
	}
}

func TestSeverLink(t *testing.T) {
	n := testNet(t, Config{})
	n.SeverLink("a", "b")
	if n.Reachable("a", "b") || n.Reachable("b", "a") {
		t.Fatal("severed link still reachable")
	}
	if !n.Reachable("a", "c") || !n.Reachable("b", "c") {
		t.Fatal("severing a-b affected other links")
	}
	n.RepairLink("b", "a") // order should not matter
	if !n.Reachable("a", "b") {
		t.Fatal("repair failed")
	}
}

func TestTransmitSuccessLatency(t *testing.T) {
	n := testNet(t, Config{DefaultLatency: sim.Fixed(30 * time.Millisecond)})
	lat, err := n.Transmit("a", "b")
	if err != nil {
		t.Fatalf("transmit: %v", err)
	}
	if lat != 30*time.Millisecond {
		t.Fatalf("latency = %v, want 30ms", lat)
	}
}

func TestTransmitSelfIsFree(t *testing.T) {
	n := testNet(t, Config{})
	lat, err := n.Transmit("a", "a")
	if err != nil {
		t.Fatalf("self transmit: %v", err)
	}
	if lat != 0 {
		t.Fatalf("self latency = %v, want 0", lat)
	}
}

func TestTransmitUnreachableCostsDetectTimeout(t *testing.T) {
	n := testNet(t, Config{DetectTimeout: 99 * time.Millisecond})
	n.Isolate("b")
	lat, err := n.Transmit("a", "b")
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	if lat != 99*time.Millisecond {
		t.Fatalf("detection cost = %v, want 99ms", lat)
	}
}

func TestTransmitToUnknownNode(t *testing.T) {
	n := testNet(t, Config{})
	if _, err := n.Transmit("a", "nope"); !errors.Is(err, ErrNoSuchNode) {
		t.Fatalf("err = %v, want ErrNoSuchNode", err)
	}
}

func TestTransmitDrops(t *testing.T) {
	n := testNet(t, Config{DropProb: 1.0})
	if _, err := n.Transmit("a", "b"); !errors.Is(err, ErrDropped) {
		t.Fatalf("err = %v, want ErrDropped", err)
	}
	// Self-sends never drop.
	if _, err := n.Transmit("a", "a"); err != nil {
		t.Fatalf("self transmit dropped: %v", err)
	}
}

func TestTransmitDropProbabilistic(t *testing.T) {
	n := testNet(t, Config{Seed: 1, DropProb: 0.5})
	drops := 0
	const trials = 400
	for i := 0; i < trials; i++ {
		if _, err := n.Transmit("a", "b"); errors.Is(err, ErrDropped) {
			drops++
		}
	}
	if drops < trials/4 || drops > 3*trials/4 {
		t.Fatalf("drop rate %d/%d far from 0.5", drops, trials)
	}
}

func TestEstimateRTT(t *testing.T) {
	n := testNet(t, Config{DefaultLatency: sim.Fixed(10 * time.Millisecond)})
	if got := n.EstimateRTT("a", "b"); got != 20*time.Millisecond {
		t.Fatalf("default RTT = %v, want 20ms", got)
	}
	n.SetLinkLatency("a", "b", sim.Fixed(100*time.Millisecond))
	if got := n.EstimateRTT("a", "b"); got != 200*time.Millisecond {
		t.Fatalf("override RTT = %v, want 200ms", got)
	}
	if got := n.EstimateRTT("b", "a"); got != 200*time.Millisecond {
		t.Fatalf("RTT should be symmetric, got %v", got)
	}
	if got := n.EstimateRTT("a", "a"); got != 0 {
		t.Fatalf("self RTT = %v, want 0", got)
	}
}

func TestPerLinkLatencyUsedByTransmit(t *testing.T) {
	n := testNet(t, Config{DefaultLatency: sim.Fixed(10 * time.Millisecond)})
	n.SetLinkLatency("a", "c", sim.Fixed(70*time.Millisecond))
	lat, err := n.Transmit("a", "c")
	if err != nil {
		t.Fatal(err)
	}
	if lat != 70*time.Millisecond {
		t.Fatalf("latency = %v, want 70ms", lat)
	}
}

func TestNodesSortedAndAddNodes(t *testing.T) {
	n := New(Config{})
	ids := n.AddNodes("w", 3)
	if len(ids) != 3 {
		t.Fatalf("AddNodes returned %d ids", len(ids))
	}
	n.AddNode("a")
	got := n.Nodes()
	if len(got) != 4 {
		t.Fatalf("Nodes() = %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("Nodes() not sorted: %v", got)
		}
	}
	if !n.HasNode("w1") || n.HasNode("w9") {
		t.Fatal("HasNode wrong")
	}
}

func TestIsFailure(t *testing.T) {
	tests := []struct {
		err  error
		want bool
	}{
		{ErrUnreachable, true},
		{ErrDropped, true},
		{ErrNoSuchNode, true},
		{errors.New("app"), false},
		{nil, false},
	}
	for _, tt := range tests {
		if got := IsFailure(tt.err); got != tt.want {
			t.Errorf("IsFailure(%v) = %v, want %v", tt.err, got, tt.want)
		}
	}
}

func TestDeterministicLatencies(t *testing.T) {
	mk := func() []time.Duration {
		n := New(Config{Seed: 77, DefaultLatency: sim.Uniform{Lo: time.Millisecond, Hi: 50 * time.Millisecond}})
		n.AddNode("a")
		n.AddNode("b")
		var out []time.Duration
		for i := 0; i < 20; i++ {
			lat, err := n.Transmit("a", "b")
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, lat)
		}
		return out
	}
	first, second := mk(), mk()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("latency stream not deterministic at %d: %v vs %v", i, first[i], second[i])
		}
	}
}

func TestPartitionFormsMidFlight(t *testing.T) {
	// With a real (tiny) time scale, partition the network while a message
	// sleeps in flight; the transmit must fail.
	n := New(Config{
		Scale:          0.00005, // 100ms -> 5µs
		DefaultLatency: sim.Fixed(100 * time.Millisecond),
		DetectTimeout:  100 * time.Millisecond,
	})
	n.AddNode("a")
	n.AddNode("b")
	go func() {
		// Partition promptly; the in-flight sleep is ~5µs but transmit
		// rechecks reachability after it.
		n.Isolate("b")
	}()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := n.Transmit("a", "b"); err != nil {
			if !errors.Is(err, ErrUnreachable) {
				t.Fatalf("err = %v, want ErrUnreachable", err)
			}
			return
		}
	}
	t.Fatal("transmit never observed the partition")
}

// TestEveryMutatorMovesGeneration holds the contract a cached Reachable
// answer rests on: whatever can change an answer moves Generation. Every
// exported method of Network is either called here as a mutator or listed
// as leaving reachability alone, so one added later cannot be forgotten.
func TestEveryMutatorMovesGeneration(t *testing.T) {
	mutators := map[string]func(n *Network){
		"AddNode":    func(n *Network) { n.AddNode("d") },
		"AddNodes":   func(n *Network) { n.AddNodes("x", 2) },
		"Crash":      func(n *Network) { n.Crash("a") },
		"Restart":    func(n *Network) { n.Restart("a") },
		"Partition":  func(n *Network) { n.Partition([]NodeID{"a"}, []NodeID{"b", "c"}) },
		"Isolate":    func(n *Network) { n.Isolate("b") },
		"Rejoin":     func(n *Network) { n.Rejoin("b") },
		"Heal":       func(n *Network) { n.Heal() },
		"SeverLink":  func(n *Network) { n.SeverLink("a", "b") },
		"RepairLink": func(n *Network) { n.RepairLink("a", "b") },
	}
	// Reads, and SetLinkLatency, which moves delays but no Reachable answer.
	inert := map[string]bool{
		"Generation": true, "Scale": true, "Rand": true, "Nodes": true, "HasNode": true, "Crashed": true,
		"Reachable": true, "EstimateRTT": true, "Transmit": true, "SetLinkLatency": true,
	}
	n := testNet(t, Config{})
	typ := reflect.TypeOf(n)
	for i := 0; i < typ.NumMethod(); i++ {
		name := typ.Method(i).Name
		mutate, ok := mutators[name]
		if !ok {
			if !inert[name] {
				t.Errorf("Network.%s is neither exercised as a mutator nor listed as leaving reachability alone", name)
			}
			continue
		}
		before := n.Generation()
		mutate(n)
		if n.Generation() == before {
			t.Errorf("Network.%s did not move Generation", name)
		}
	}
	before := n.Generation()
	n.Reachable("a", "b")
	n.SetLinkLatency("a", "b", sim.Fixed(time.Millisecond))
	if n.Generation() != before {
		t.Errorf("a read or a latency change moved Generation")
	}
}
