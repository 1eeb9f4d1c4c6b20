package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func quickCfg() Config {
	// 100x compression keeps the smallest scaled sleeps above the OS
	// timer resolution so measured shapes stay faithful.
	return Config{Seed: 1, Scale: 0.01, Quick: true}
}

// raceCfg is quickCfg at 10x compression, for experiments whose verdict
// is a wall-clock race with a margin of a few simulated round trips (a
// producer against an iterator, near fetches against far ones). At 100x
// that margin is a millisecond or two of wall time, which one scheduler
// stall on a loaded host swallows; at 10x it is ten times wider, and the
// race itself is unchanged.
func raceCfg() Config {
	cfg := quickCfg()
	cfg.Scale = 0.1
	return cfg
}

func runExperiment(t *testing.T, id string) [][]string {
	t.Helper()
	return runExperimentCfg(t, id, quickCfg())
}

func runExperimentCfg(t *testing.T, id string, cfg Config) [][]string {
	t.Helper()
	exp, ok := Find(id)
	if !ok {
		t.Fatalf("experiment %s not found", id)
	}
	table, err := exp.Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	rows := table.Rows()
	if len(rows) == 0 {
		t.Fatalf("%s produced no rows", id)
	}
	return rows
}

func TestAllRegistered(t *testing.T) {
	exps := All()
	if len(exps) != 9 {
		t.Fatalf("experiments = %d, want 9", len(exps))
	}
	seen := make(map[string]bool)
	for _, e := range exps {
		if e.ID == "" || e.Claim == "" || e.Run == nil {
			t.Fatalf("experiment %+v incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := Find("E1"); !ok {
		t.Fatal("Find(E1) failed")
	}
	if _, ok := Find("nope"); ok {
		t.Fatal("Find(nope) succeeded")
	}
}

func TestE1Shape(t *testing.T) {
	rows := runExperiment(t, "E1")
	// Every method must complete on a healthy network.
	for _, row := range rows {
		if row[6] != "ok" {
			t.Fatalf("row %v did not complete", row)
		}
		if rpcs, _ := strconv.Atoi(row[5]); rpcs == 0 {
			t.Fatalf("row %v recorded no RPCs", row)
		}
	}
	// 2 sizes x 2 rtts x (6 semantics + dynamic) rows in quick mode.
	if len(rows) != 2*2*7 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestE2Shape(t *testing.T) {
	rows := runExperiment(t, "E2")
	// At p=0 everything completes with full coverage.
	for _, row := range rows[:3] {
		if row[2] != "100%" || row[3] != "100%" {
			t.Fatalf("p=0 row %v", row)
		}
	}
	// At the highest p, the dynamic set still "completes" (skip mode) while
	// pessimistic completion drops.
	var pessimisticHigh, dynamicHigh string
	for _, row := range rows {
		if row[0] == "0.20" && strings.HasPrefix(row[1], "grow-only") {
			pessimisticHigh = row[2]
		}
		if row[0] == "0.20" && strings.HasPrefix(row[1], "dynamic") {
			dynamicHigh = row[2]
		}
	}
	if dynamicHigh != "100%" {
		t.Fatalf("dynamic completion at p=0.2 = %s", dynamicHigh)
	}
	if pessimisticHigh == "100%" {
		t.Logf("note: pessimistic got lucky at p=0.2 (%s)", pessimisticHigh)
	}
}

func TestE3Shape(t *testing.T) {
	rows := runExperiment(t, "E3")
	stalls := make(map[string]map[string]string) // hold -> sem -> stall
	for _, row := range rows {
		if stalls[row[0]] == nil {
			stalls[row[0]] = make(map[string]string)
		}
		stalls[row[0]][row[1]] = row[2]
	}
	// Under the longest hold, the locking reader must stall the writer for
	// at least the hold time, while optimistic stays well under it.
	lockStall := parseMs(t, stalls["100ms"]["immutable-per-run"])
	optStall := parseMs(t, stalls["100ms"]["optimistic"])
	if lockStall < 80 {
		t.Fatalf("locking writer stall = %vms, want >= ~100ms", lockStall)
	}
	if optStall > lockStall/2 {
		t.Fatalf("optimistic stall %vms not clearly below locking %vms", optStall, lockStall)
	}
}

func TestE4Shape(t *testing.T) {
	rows := runExperiment(t, "E4")
	byName := make(map[string][]string)
	for _, row := range rows {
		byName[row[1]] = row
	}
	snap, opt := byName["snapshot"], byName["optimistic"]
	if snap == nil || opt == nil {
		t.Fatalf("rows missing: %v", rows)
	}
	// Snapshot misses every addition made during its run.
	if snap[3] != snap[4] {
		t.Fatalf("snapshot adds=%s missed=%s, want equal", snap[3], snap[4])
	}
	// Optimistic misses strictly fewer additions than snapshot when any
	// happened.
	snapAdds, _ := strconv.Atoi(snap[3])
	optMissed, _ := strconv.Atoi(opt[4])
	optAdds, _ := strconv.Atoi(opt[3])
	if snapAdds > 0 && optAdds > 0 && optMissed >= optAdds {
		t.Fatalf("optimistic missed %d of %d additions", optMissed, optAdds)
	}
}

func TestE5Shape(t *testing.T) {
	rows := runExperiment(t, "E5")
	if !strings.HasPrefix(rows[0][0], "ls-strict") {
		t.Fatalf("first row %v", rows[0])
	}
	strictTotal := parseMs(t, rows[0][3])
	var w1, w16 float64
	for _, row := range rows {
		switch row[0] {
		case "ls-dynamic w=1":
			w1 = parseMs(t, row[3])
		case "ls-dynamic w=16":
			w16 = parseMs(t, row[3])
		}
		if row[0] != "ls-strict" && row[1] != rows[0][1] {
			t.Fatalf("dynamic ls saw %s files, strict saw %s", row[1], rows[0][1])
		}
	}
	if w16 >= w1 {
		t.Fatalf("no prefetch speedup: w1=%vms w16=%vms", w1, w16)
	}
	if w16 >= strictTotal {
		t.Fatalf("dynamic w16 (%vms) not faster than strict (%vms)", w16, strictTotal)
	}
}

func TestE6Shape(t *testing.T) {
	rows := runExperiment(t, "E6")
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Diagonal: every implementation passes its own figure 100%.
	own := map[string]int{
		"immutable":         2, // column index of Fig3 (headers: impl, Fig1, Fig3, Fig4, Fig5, Fig6)
		"immutable-per-run": 2,
		"snapshot":          3,
		"grow-only":         4,
		"grow-only-per-run": 4,
		"optimistic":        5,
	}
	for _, row := range rows {
		col := own[row[0]]
		if row[col] != "100%" {
			t.Fatalf("%s passes own spec at %s", row[0], row[col])
		}
	}
}

func TestE7Shape(t *testing.T) {
	rows := runExperimentCfg(t, "E7", raceCfg())
	// Ratio 0.5 terminates; ratio 2.0 does not.
	for _, row := range rows {
		switch row[0] {
		case "0.50":
			if row[3] != "yes" {
				t.Fatalf("slow producer should let the iterator terminate: %v", row)
			}
		case "2.00":
			if row[3] == "yes" {
				t.Fatalf("fast producer should starve the iterator: %v", row)
			}
		}
	}
}

func TestE8Shape(t *testing.T) {
	rows := runExperiment(t, "E8")
	for _, row := range rows {
		if row[0] != row[1] {
			t.Fatalf("peak ghosts %s != deletes %s", row[1], row[0])
		}
		if row[2] != "0" {
			t.Fatalf("ghosts after close = %s", row[2])
		}
		if row[0] != row[4] {
			t.Fatalf("reclaimed %s != deletes %s", row[4], row[0])
		}
	}
}

func parseMs(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "ms")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestAblationsRegistered(t *testing.T) {
	abl := Ablations()
	if len(abl) != 4 {
		t.Fatalf("ablations = %d, want 4", len(abl))
	}
	for _, e := range abl {
		if _, ok := Find(e.ID); !ok {
			t.Fatalf("Find(%s) failed", e.ID)
		}
	}
}

func TestA1Shape(t *testing.T) {
	rows := runExperimentCfg(t, "A1", raceCfg())
	// At width 1, closest-first reaches the 8th element far sooner than
	// listing order, while totals are comparable.
	var cfFirst8, listFirst8 float64
	for _, row := range rows {
		if row[0] != "1" {
			continue
		}
		switch row[1] {
		case "closest-first":
			cfFirst8 = parseMs(t, row[3])
		case "listing":
			listFirst8 = parseMs(t, row[3])
		}
	}
	if cfFirst8 == 0 || listFirst8 == 0 {
		t.Fatalf("rows missing: %v", rows)
	}
	if cfFirst8 >= listFirst8 {
		t.Fatalf("closest-first first-8 %vms not below listing %vms", cfFirst8, listFirst8)
	}
}

func TestA2Shape(t *testing.T) {
	rows := runExperiment(t, "A2")
	// The dynamic set reads the local failure detector before it fetches,
	// as the pessimistic iterator does, so it attempts no isolated node:
	// its completion stays flat across the detection timeout, well short
	// of growing by half the timeouts' spread.
	if len(rows) < 2 {
		t.Fatalf("rows = %v", rows)
	}
	last := rows[len(rows)-1]
	dynLow, dynHigh := parseMs(t, rows[0][2]), parseMs(t, last[2])
	if spread := parseMs(t, last[0]) - parseMs(t, rows[0][0]); dynHigh-dynLow >= spread/2 {
		t.Fatalf("dynamic total grew with the timeout: %vms -> %vms over a %vms timeout spread", dynLow, dynHigh, spread)
	}
	for _, row := range rows {
		if row[3] != "12" || row[4] != "4" {
			t.Fatalf("dynamic yielded %s and skipped %s, want 12 and 4 (4 of 16 unreachable)", row[3], row[4])
		}
	}
}

func TestA3Shape(t *testing.T) {
	rows := runExperiment(t, "A3")
	// Staleness probability falls as the mutation period grows relative to
	// the propagation delay.
	fast, _ := strconv.Atoi(rows[0][2])
	slow, _ := strconv.Atoi(rows[len(rows)-1][2])
	if fast <= slow {
		t.Fatalf("stale reads: fast period %d <= slow period %d", fast, slow)
	}
}

func TestE9Shape(t *testing.T) {
	rows := runExperiment(t, "E9")
	// Row 0 is the deterministic primary-down scenario: the single
	// directory must fail and the quorum must complete.
	if rows[0][1] != "0%" || rows[0][2] != "100%" {
		t.Fatalf("primary-down row = %v", rows[0])
	}
	// Under probabilistic crashes the quorum completes at least as often.
	for _, row := range rows[1:] {
		single := parsePct(t, row[1])
		quorum := parsePct(t, row[2])
		if quorum < single {
			t.Fatalf("quorum (%v%%) below single (%v%%): %v", quorum, single, row)
		}
	}
}

func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestA4Shape(t *testing.T) {
	rows := runExperiment(t, "A4")
	byMethod := make(map[string][]string)
	for _, row := range rows {
		byMethod[row[1]] = row
	}
	if byMethod["warm cache"][4] != "100%" {
		t.Fatalf("warm cache coverage = %v", byMethod["warm cache"])
	}
	if byMethod["warm cache"][3] == "0" {
		t.Fatalf("warm cache served no stale elements: %v", byMethod["warm cache"])
	}
	if byMethod["no cache"][4] == "100%" || byMethod["no cache"][3] != "0" {
		t.Fatalf("no-cache row = %v", byMethod["no cache"])
	}
	if byMethod["cold cache"][4] != byMethod["no cache"][4] {
		t.Fatalf("cold cache (%v) should match no cache (%v)", byMethod["cold cache"], byMethod["no cache"])
	}
}
