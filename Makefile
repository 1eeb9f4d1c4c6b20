# Pre-PR gate for the weak-sets repo. `make check` is what every change
# must pass before review: vet, build, the full test suite under the race
# detector, and a smoke run of the storage-engine contention benchmark.

GO ?= go

.PHONY: check vet build test race fuzz-smoke bench-store bench-iter bench-rpc bench-scale bench-frontier bench-replica bench-trend bench-e2e bench sweep sweep-iter sweep-rpc sweep-scale sweep-frontier sweep-replica loc clean

check: vet build race fuzz-smoke bench-store bench-iter bench-rpc bench-scale bench-frontier bench-replica bench-trend
	@printf 'non-test Go lines (make loc): '; $(MAKE) -s loc

vet:
	$(GO) vet ./...

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

# Smoke the engine comparison: a few hundred iterations per engine is
# enough to catch regressions in the parallel List/Get hot path.
bench-store:
	$(GO) test -run xxx -bench BenchmarkStoreContention -benchtime 2000x .

# Smoke the iterator fetch pipeline: default batching vs one id per round
# trip over a spread collection catches regressions in the elements hot
# path. The in-process modes only — the tcp-* modes are bench-rpc's job.
# Then the current-state stepper at 32/1k/10k members, whose ns/elem must
# stay flat in n; the output is kept in /tmp for the CI artifacts.
bench-iter:
	$(GO) test -run xxx -bench 'BenchmarkIterFetch/(per-object|batched)' -benchtime 20x .
	$(GO) test -run xxx -bench BenchmarkIteratorLogical -benchtime 3x . > /tmp/BENCH_iterlogical_smoke.txt; \
		s=$$?; cat /tmp/BENCH_iterlogical_smoke.txt; exit $$s

# Smoke the TCP transport: the fetch pipeline over real loopback sockets,
# serialized vs multiplexed client. Catches regressions in the seq-keyed
# dispatch, the per-connection worker pool, and the frame codec. The
# alloc-budget test holds the wirebin hot path to the allocations-per-op
# ceilings checked in as BENCH_budget.json — a codec change that starts
# allocating fails here, not in production profiles.
bench-rpc:
	$(GO) test ./internal/repo -run TestAllocBudget -count 1
	$(GO) test -run xxx -bench 'BenchmarkIterFetch/tcp' -benchtime 5x .

# Smoke the listing scalability sweep: the partitioned streaming
# listing and a current-state (GrowOnly) run at two small sizes catch
# regressions in the scatter-gather List path and the cursor stepper
# (per-element cost must stay flat, first element must track the first
# partition). Writes to /tmp so the committed BENCH_scale.json (produced
# by sweep-scale) is left alone.
bench-scale:
	$(GO) run ./cmd/weakbench -scale -scale-quick -scale-json /tmp/BENCH_scale_smoke.json

# Smoke the weakness-throughput frontier: optimistic Collects under
# churn at two reader counts, checking the sweep still produces
# populated latency and skew quantiles. Writes to /tmp so the committed
# BENCH_frontier.json (produced by sweep-frontier) is left alone.
bench-frontier:
	$(GO) run ./cmd/weakbench -frontier -frontier-quick -frontier-json /tmp/BENCH_frontier_smoke.json

# Smoke the replica-parallel read sweep: 1/2/3 replicas under churn plus
# the kill-one-replica phase, at a trimmed size. Catches regressions in
# the read router (probing, closest-first, hedging, scatter) and the
# anti-entropy plane; the kill phase must complete every run from the
# survivors. Writes to /tmp so the committed BENCH_replica.json
# (produced by sweep-replica) is left alone.
bench-replica:
	$(GO) run ./cmd/weakbench -replica -replica-quick -replica-json /tmp/BENCH_replica_smoke.json

# Trend gate: re-run the quick store, iter, TCP, and scale sweeps and
# compare their size-independent figures (sharded-engine speedup,
# batched-fetch speedup, multiplexing speedup, listing degradation caps)
# against the committed BENCH_*.json reports. Fails loudly on reproducible
# regressions — a failing sweep is re-measured once to absorb host noise;
# absolute throughput is never compared, so it is machine-portable.
bench-trend:
	$(GO) run ./cmd/weakbench -trend

# The end-to-end benchmark BENCHMARK.json declares: four workloads over
# loopback tcprpc with per-layer timings (bench/README.md). Not part of
# check: it runs for minutes. Report and span files land in /tmp.
bench-e2e:
	$(GO) run ./bench -seed 1 -out /tmp/bench-e2e

# Full root benchmark suite (slow).
bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

# Regenerate BENCH_store.json from the full contention sweep.
sweep:
	$(GO) run ./cmd/weakbench -store

# Regenerate BENCH_iter.json from the full fetch-pipeline sweep.
sweep-iter:
	$(GO) run ./cmd/weakbench -iter

# Regenerate BENCH_rpc.json from the full TCP transport sweep.
sweep-rpc:
	$(GO) run ./cmd/weakbench -rpc

# Regenerate BENCH_scale.json from the full listing-scalability sweep
# (partitioned 10k to 1M elements, current 10k and 100k; slow).
sweep-scale:
	$(GO) run ./cmd/weakbench -scale

# Regenerate BENCH_frontier.json from the full weakness-throughput
# frontier sweep (1 to 16 concurrent readers under churn).
sweep-frontier:
	$(GO) run ./cmd/weakbench -frontier

# Regenerate BENCH_replica.json from the full replica-parallel read
# sweep (16 readers, 1/2/3 replicas under churn, kill phase; slow).
sweep-replica:
	$(GO) run ./cmd/weakbench -replica

# The one number ROADMAP's "net non-test LOC goes down" tracks: Go lines
# outside tests and outside the end-to-end benchmark harness.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l

clean:
	$(GO) clean ./...
