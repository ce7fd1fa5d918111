#!/bin/sh
# Full verification: formatting, vet, domain lints, build, tests, and
# race-check the packages with concurrency or cross-interval caching.
# Same entry point as `make verify`.
set -eux

test -z "$(gofmt -l .)"
go vet ./...
go build ./...
# Full lint suite with the stale-suppression audit, under a wall-clock
# budget: the whole-tree run (type-check included) must stay under 30s so
# the lint gate never becomes the slow step. The binary is built first so
# the budget measures analysis, not compilation.
go build -o /tmp/megate-lint ./cmd/megate-lint
lint_start=$(date +%s)
/tmp/megate-lint -strict-ignores ./...
lint_elapsed=$(($(date +%s) - lint_start))
test "$lint_elapsed" -lt 30
go test ./...
# The repository benchmark is a separate module the line above never
# compiles: vet it and run its toy-scale workloads against this tree.
make benchmark-check
go test -race ./internal/core/ ./internal/kvstore/ ./internal/controlplane/ ./internal/faultnet/ ./internal/telemetry/ ./internal/cluster/
# Regression gates for the atomic-discipline invariants the atomiccheck
# lint pass guards: counter accessors hammered while writer goroutines
# mutate them (agent stats, top-down heartbeats/configs, telemetry
# instruments).
go test -race -run 'TestAgentStatsUnderRun|TestTopDownCountersUnderLoadRace' ./internal/controlplane/
go test -race -run 'TestReadersDuringWritesRace' ./internal/telemetry/
# Short-mode chaos pass under the race detector: the full control loop
# (controller, replicated servers, agent fleet) under the fault timeline —
# TestChaos matches the shard-loss scenario (TestChaosShardLoss) too.
go test -race -short -run TestChaos .
# Exporter smoke: controller with -telemetry-addr scraped over real HTTP.
go test -run TestMetricsSmoke .
# Certificate-gated fast-path gate: duality-certificate soundness, drift
# bit-stability and the solver's hit/fallback routing, race-checked with
# deterministic seeds.
make fastpath
# Megascale pipeline gate: truncated flow sweep through the streamed
# interval plus the stage-2 zero-alloc benchmark assertion.
make megascale-short
# Fleet robustness gate: deterministic 10k-agent storm with per-shard
# admission control; exits non-zero on any invariant violation.
make fleet-short
# Multi-domain federation gate: gateway protocol + tier-policy tests and the
# inter-domain partition chaos scenario, race-checked with fixed seeds.
make federation
