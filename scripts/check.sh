#!/bin/sh
# Tier-1 gate: vet, build, race-enabled tests, and the telemetry benchmark
# smoke (which also runs the zero-alloc guards: the AllocsPerRun assertions
# in internal/telemetry and internal/player). This is the one gate list;
# `make check` runs this script.
set -eu
cd "$(dirname "$0")/.."
# Static analysis first: formatting, go vet, then abrlint (the project
# analyzer suite — determinism, units, nopanic, floateq, errdrop, hotalloc,
# locks, goroleak, atomicmix, metricname). -counts prints the per-analyzer
# tally so a regression is attributable to the analyzer that caught it.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi
go vet ./...
go run ./cmd/abrlint -counts ./...
go build ./...
go test -race ./...
# The benchmark harness is its own module (bench/go.mod), outside the root
# ./..., yet it drives the packages above: vet and test it too, so a change
# to a package it calls cannot break it unnoticed.
go -C bench vet ./...
go -C bench test ./...
# Hammer the concurrency-heavy packages a second time under the race
# detector: the cache's singleflight path, the sim worker pool, the
# telemetry registry, and the fleet engine's multi-worker shard pass
# (TestFleetShardEquivalence runs 2/7/GOMAXPROCS-shard fleets) are where a
# data race would land.
go test -race -count=2 ./internal/sim ./internal/cache ./internal/telemetry ./internal/fleet
go test -bench=Telemetry -benchtime=100x -run='TestZeroAllocUpdates|TestTelemetryDisabledAllocBound' \
	./internal/telemetry ./internal/player
# Sweep-memoization gate: warm replay must do zero sim work and reproduce
# the cold output byte-for-byte (short mode; timings come from
# `bash bench/run.sh`).
go test -short -run='TestSweepColdWarm$' -count=1 .
# Fleet-engine gates: the zero-alloc-per-event guard and the shard
# equivalence test run with the race tests above; here the reduced
# multi-worker scaling point enforces the per-worker sessions/sec floor,
# and the race-enabled fleet chaos smoke checks the fleet contract
# (fleet.Result.Invariants: exact event accounting, no vanished or starved
# session) over 2000 virtual sessions sharded across 4 workers.
go test -short -run='TestFleetBench$' -count=1 .
go test -race -run='TestFleetChaosSmoke$' -count=1 ./internal/fleet
# Chaos soak: 32 concurrent sessions vs the lossy fault profile behind
# admission control, race-enabled. Asserts no livelock, bounded honest
# shedding (503 + Retry-After), and goroutines back to baseline.
go test -race -run='TestChaosSoak$' -count=1 ./internal/chaos
# Edge-tier chaos soak: 24 staggered sessions through the edge (consistent-
# hash origins, segment cache, SWR manifests) while the primary origin is
# killed and restarted mid-run, race-enabled. Asserts ≥ 99% completion via
# failover + stale serving, cache-hit recovery, and no goroutine leak.
go test -race -run='TestEdgeChaosSoak$' -count=1 ./internal/chaos
# Crash-tolerance soak: seeded panics inside session steps, a mid-run
# interrupt with checkpoint, and a resume that must be bit-identical to
# the uninterrupted baseline, plus disk-cache corruption detection and
# recompute. Asserts exact quarantine/event accounting and no leak.
go test -race -run='TestCrashSoak$' -count=1 ./internal/chaos
echo "check: OK"
