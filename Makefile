GO ?= go

.PHONY: build test race verify bench benchmark-check lint fuzz-short chaos cluster metrics-smoke megascale-short fleet-short fastpath federation

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/core/ ./internal/kvstore/ ./internal/controlplane/ ./internal/faultnet/ ./internal/chaos/ ./internal/cluster/

# Sharded TE-database gate: the cluster package (ring, routing, live
# resharding) under the race detector plus the shard-loss chaos scenario.
cluster:
	$(GO) test -race ./internal/cluster/
	$(GO) test -race -run TestChaosShardLoss -v .

# Full chaos run (fixed seeds baked into chaos_test.go) under the race
# detector: controller + replicated DB servers + agent fleet under the
# scripted fault timeline.
chaos:
	$(GO) test -race -run TestChaos -v .

# Multi-domain federation gate: the gateway wire protocol, exchange and
# tier-policy tests under the race detector, plus the inter-domain partition
# chaos scenario (gateway TTL fallback + heal reimport, fixed seed).
federation:
	$(GO) test -race ./internal/federation/
	$(GO) test -race -run 'TestChaosFederation' -v .
	$(GO) test -race -run 'TestTier|TestNoPolicyBitIdentical' ./internal/core/ ./internal/traffic/

verify:
	./verify.sh

# End-to-end exporter gate: builds megate-controller, starts it with
# -telemetry-addr, and scrapes /metrics, /metrics.json and /debug/pprof/
# over real HTTP, asserting the core metric names are present.
metrics-smoke:
	$(GO) test -run TestMetricsSmoke -v .

# Full static-analysis suite, including the stale-suppression audit: a
# lint:ignore directive that suppresses nothing is itself a finding.
lint:
	$(GO) run ./cmd/megate-lint -strict-ignores ./...

# Repository-benchmark gate: benchmark/ is its own module (megate/benchmark,
# `replace megate => ../`), so the root build and tests never compile it;
# this vets it against the current tree and runs its four workloads at toy
# scale (~15 s), catching an API change that breaks the benchmark.
benchmark-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Megascale pipeline gate: a truncated ab-megascale sweep through the full
# streamed interval (solve -> per-shard batched publication), plus the
# zero-alloc gate on the stage-2 per-pair hot path — the benchmark output
# must report 0 allocs/op. The truncated sweep only prints; the committed
# BENCH_megascale.json is written by the default sweep alone.
megascale-short:
	$(GO) run ./cmd/megate-bench -experiment ab-megascale -megascale-flows 20000,50000
	$(GO) test -run TestStage2PairZeroAlloc -bench BenchmarkStage2Pair -benchmem ./internal/core/ | tee /tmp/megate-stage2-bench.out
	grep -q ' 0 allocs/op' /tmp/megate-stage2-bench.out

# Fleet robustness gate: a deterministic 10k-agent storm (cold boot,
# version-skew rollout, partition, herd recovery) against a live sharded
# database with per-shard admission control. The 1s poll keeps the loopback
# dial rate honest for one machine, so the run finishes in under a minute;
# a non-zero exit means an invariant (convergence, O(1) cold sync, no
# wedges) was violated.
fleet-short:
	$(GO) run ./cmd/megate-sim -fleet -fleet-agents 10000 -fleet-poll 1s -seed 7

# Bounded fuzzing for CI: each target gets a short budget on top of its
# checked-in seed corpus. `go test` accepts one -fuzz per invocation.
fuzz-short:
	$(GO) test -run FuzzKVWireProtocol -fuzz FuzzKVWireProtocol -fuzztime 10s ./internal/kvstore/
	$(GO) test -run FuzzFastSSP -fuzz FuzzFastSSP -fuzztime 10s ./internal/ssp/
	$(GO) test -run FuzzRingOwnership -fuzz FuzzRingOwnership -fuzztime 10s ./internal/cluster/
	$(GO) test -run FuzzCFGBuild -fuzz FuzzCFGBuild -fuzztime 10s ./internal/analysis/
	$(GO) test -run FuzzFederationWire -fuzz FuzzFederationWire -fuzztime 10s ./internal/federation/

# Certificate-gated fast-path gate: the duality-certificate, drift and
# warm-ADMM property tests plus the solver routing tests (cold/churn/reject
# fallbacks, hit accounting), deterministic seeds, under the race detector.
fastpath:
	$(GO) test -race -run 'TestFastPath|TestCertificate|TestDualBound|TestReallocateDrift|TestTopUpShortest|TestZeroValueSolver|TestTunnelFingerprint' ./internal/lp/ ./internal/core/

bench:
	$(GO) test -bench . -benchmem -run XXX .
