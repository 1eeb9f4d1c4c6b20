# Pre-PR gate for the weak-sets repo. `make check` is what every change
# must pass before review: vet, build, the full test suite under the race
# detector, the fuzz and benchmark smokes, and the trend gate.

GO ?= go

# Where bench-smoke writes this run's quick sweeps and bench-trend reads
# them back (CI collects the directory as an artifact).
SMOKE := /tmp/weakbench-smoke

.PHONY: check vet no-gob no-unsafe spec-oracle build test race fuzz-smoke bench-iter bench-rpc bench-smoke bench-trend bench-e2e bench-pairs bench sweep sweep-store sweep-iter sweep-rpc sweep-scale sweep-frontier sweep-replica loc clean

check: vet no-gob no-unsafe spec-oracle build race fuzz-smoke bench-iter bench-rpc bench-smoke bench-trend
	@printf 'non-test Go lines (make loc): '; $(MAKE) -s loc

vet:
	$(GO) vet ./...

# wirebin is the one wire codec: no production Go file may import gob
# (tests keep it as the reference the codecs are held to).
no-gob:
	! grep -rl 'encoding/gob' --include='*.go' . | grep -v _test

# A decoded id is a view into its frame (wirebin.Reader.Text), the one
# unsafe conversion in the tree: it stays inside the codec that states the
# frame's lifetime rule, so no other production Go file imports unsafe.
no-unsafe:
	! grep -rl '"unsafe"' --include='*.go' . | grep -v _test | grep -v '^\./internal/wirebin/'

# The paper's figures are an oracle, off the run path: a run is checked
# against them from its history, after the run. No production file of
# internal/core imports internal/spec but the kernel (Step), the model
# harness and checker that hold the run table to it, and the semantics
# table naming each point's figure.
spec-oracle:
	! grep -l '"weaksets/internal/spec"' internal/core/*.go | grep -v _test | grep -v -e '/kernel\.go$$' -e '/model\.go$$' -e '/modelcheck\.go$$' -e '/semantics\.go$$'

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Smoke the wire-format fuzzers: a few seconds of random frames against
# the wirebin reader and the repo message decoders. The decoders must
# error cleanly on anything malformed — never panic, never size an
# allocation off an unvalidated count. (Go runs one fuzz target per
# invocation, hence the two lines.)
fuzz-smoke:
	$(GO) test ./internal/wirebin -run xxx -fuzz FuzzReader -fuzztime 3s
	$(GO) test ./internal/repo -run xxx -fuzz FuzzWirebinDecode -fuzztime 3s

# Smoke the iterator fetch pipeline: default batching vs one id per round
# trip over a spread collection catches regressions in the elements hot
# path. The in-process modes only — the tcp-mux mode is bench-rpc's job.
# Then the current-state stepper at 32/1k/10k members, whose ns/elem must
# stay flat in n; the output is kept with the smoke reports for the CI
# artifacts. First the run-state guard: a run that moves no element bytes
# is held to the bytes- and objects-per-element ceilings in
# BENCH_budget.json (its figures are kept in budget.txt, which CI puts on
# the job summary), and the run table's own microbenchmark and the warm
# invocation's (a warm 10k snapshot run and a leased 1k run, ns/elem) run
# once.
bench-iter:
	@mkdir -p $(SMOKE)
	$(GO) test ./internal/core -run TestRunAllocBudget -count 1 -v > $(SMOKE)/budget.txt; \
		s=$$?; cat $(SMOKE)/budget.txt; exit $$s
	$(GO) test ./internal/core -run xxx -bench 'BenchmarkRunTable|BenchmarkWarmRun' -benchmem -benchtime 20x
	$(GO) test -run xxx -bench 'BenchmarkIterFetch/(per-object|batched)' -benchtime 20x .
	$(GO) test -run xxx -bench BenchmarkIteratorLogical -benchtime 3x . > $(SMOKE)/iterlogical.txt; \
		s=$$?; cat $(SMOKE)/iterlogical.txt; exit $$s

# Smoke the TCP transport: the fetch pipeline over a real loopback
# socket. Catches regressions in the seq-keyed dispatch, the
# per-connection worker pool, and the frame codec. The
# alloc-budget test holds the wirebin hot path to the allocations-per-op
# ceilings checked in as BENCH_budget.json — a codec change that starts
# allocating fails here, not in production profiles. Then the per-serve
# cost of a warm element (a ServeFresh over 10 000 entries) and of a
# lease check, once each, so the logs carry their ns/op.
bench-rpc:
	$(GO) test ./internal/repo -run TestAllocBudget -count 1
	$(GO) test ./internal/repo -run xxx -bench 'BenchmarkCacheServeFresh|BenchmarkCacheServeAt|BenchmarkLeaseServeable' -benchtime 200000x
	$(GO) test -run xxx -bench 'BenchmarkIterFetch/tcp' -benchtime 5x .

# Every layer sweep once, trimmed, through the one harness: store
# contention (locked vs sharded), the fetch pipeline, the TCP transport
# (serial vs multiplexed), listing scalability at 10k and 50k, the
# weakness-throughput frontier at two reader counts, and replica reads at
# 1/2/3 replicas plus the kill-one-replica phase, which must complete
# every run from the survivors. Three trials per point, written to
# $(SMOKE) so the committed BENCH_*.json (produced by the sweep-* targets)
# are left alone.
bench-smoke:
	@mkdir -p $(SMOKE)
	$(GO) run ./cmd/weakbench -sweep all -quick -out $(SMOKE)

# Trend gate: hold the reports bench-smoke just wrote against the
# committed ones, same workload against same workload. Only dimensionless
# figures are gated (sharded-engine speedup, batched-fetch speedup and
# its round-trip count, multiplexing speedup, listing degradation against
# the 10k point), so the gate is machine-portable; a point fails when its
# median is beyond tolerance and its interquartile range is clear of the
# committed one. Nothing is measured here.
bench-trend: bench-smoke
	$(GO) run ./cmd/weakbench -gate $(SMOKE)

# The end-to-end benchmark BENCHMARK.json declares: four workloads over
# loopback tcprpc with per-layer timings (bench/README.md). Not part of
# check: it runs for minutes. Report and span files land in /tmp.
bench-e2e:
	$(GO) run ./bench -seed 1 -out /tmp/bench-e2e

# Alternating parent/change pairs of one end-to-end workload, the way a
# claimed gain is judged: `make bench-pairs W=snap_warm_10k N=10
# SEEDS='11 12 13'` builds REF (default HEAD) and the working tree once
# each and prints each pair's run_ms_p50, how many the change won, both
# sides' medians and spread, and whether the change's elems_per_s IQR is
# inside 25 % of the parent's median (scripts/bench-pairs.sh); LOGS=<dir>
# keeps every run's result line. Minutes: each run measures the
# benchmark's declared 20 s.
bench-pairs:
	W='$(W)' N='$(N)' REF='$(REF)' SEEDS='$(SEEDS)' LOGS='$(LOGS)' sh scripts/bench-pairs.sh

# Full root benchmark suite (slow).
bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

# Regenerate a committed BENCH_<name>.json from its full sweep (minutes
# in all; run on an idle host). `make sweep` is the store sweep, as ever.
sweep: sweep-store

sweep-store sweep-iter sweep-rpc sweep-scale sweep-frontier sweep-replica:
	$(GO) run ./cmd/weakbench -sweep $(@:sweep-%=%)

# The one number ROADMAP's "net non-test LOC goes down" tracks: Go lines
# outside tests and outside the end-to-end benchmark harness.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l

clean:
	$(GO) clean ./...
