#!/bin/sh
# Tier-1 gate: static analysis, build, race-enabled tests, the benchmark
# module, the telemetry benchmark smoke (which also runs the zero-alloc
# guards: the AllocsPerRun assertions in internal/telemetry and
# internal/player), the short sweep and fleet gates and the soaks. This is
# the one gate list; `make check` runs it whole.
#
#   sh scripts/check.sh                 every step below, in order
#   sh scripts/check.sh STEP [ARGS...]  one step; ARGS go to its go test
#                                       commands (the make targets of the
#                                       same names run the soaks with -v)
set -eu
cd "$(dirname "$0")/.."

steps="lint build race bench-module race-hot bench-telemetry bench-sweep-short bench-fleet-short soak-fleet soak soak-edge soak-crash"

step() {
	name=$1
	shift
	case $name in
	lint)
		# Static analysis first: formatting, go vet, then abrlint (the
		# project analyzer suite — determinism, units, nopanic, floateq,
		# errdrop, hotalloc, locks, goroleak, atomicmix, metricname; see
		# DESIGN.md "Static analysis"). -counts prints the per-analyzer
		# tally so a regression is attributable to the analyzer that
		# caught it.
		unformatted=$(gofmt -l .)
		if [ -n "$unformatted" ]; then
			echo "gofmt needed on:" >&2
			echo "$unformatted" >&2
			exit 1
		fi
		go vet ./...
		go run ./cmd/abrlint -counts ./...
		;;
	build)
		go build ./...
		;;
	race)
		go test -race "$@" ./...
		;;
	bench-module)
		# The benchmark harness is its own module (bench/go.mod), outside
		# the root ./..., yet it drives the packages above: vet and test it
		# too, so a change to a package it calls cannot break it unnoticed.
		go -C bench vet ./...
		go -C bench test "$@" ./...
		;;
	race-hot)
		# Hammer the concurrency-heavy packages a second time under the
		# race detector: the cache's singleflight path, the sim worker
		# pool, the telemetry registry, and the fleet engine's multi-worker
		# shard pass (TestFleetShardEquivalence runs 2/7/GOMAXPROCS-shard
		# fleets) are where a data race would land.
		go test -race -count=2 "$@" ./internal/sim ./internal/cache ./internal/telemetry ./internal/fleet
		;;
	bench-telemetry)
		# Telemetry smoke: the instrumentation benchmarks plus the
		# zero-alloc guards (counter path and the player's
		# disabled-recorder step path).
		go test -bench=Telemetry -benchtime=100x -run='TestZeroAllocUpdates|TestTelemetryDisabledAllocBound' "$@" \
			./internal/telemetry ./internal/player
		;;
	bench-sweep-short)
		# Sweep-memoization gate: cold pass, warm replay and disk replay
		# over the fig8/fig9/fig10 suite at a reduced trace count; the warm
		# pass must do zero sim work and reproduce the cold output
		# byte-for-byte (timings come from `bash bench/run.sh`).
		go test -short -run='TestSweepColdWarm$' -count=1 "$@" .
		;;
	bench-fleet-short)
		# Fleet throughput gate: one reduced multi-worker point under the
		# per-worker sessions/sec floor (fleet numbers come from
		# `bash bench/run.sh --workload fleet-cava`).
		go test -short -run='TestFleetBench$' -count=1 "$@" .
		;;
	soak-fleet)
		# Fleet-engine chaos smoke: 2000 discrete-event sessions with
		# Poisson arrivals and random trace offsets, sharded across 4
		# workers under the race detector; asserts the fleet contract,
		# fleet.Result.Invariants (exact event accounting, no vanished or
		# starved session).
		go test -race -run='TestFleetChaosSmoke$' -count=1 "$@" ./internal/fleet
		;;
	soak)
		# Chaos soak: 32 concurrent resilient sessions vs the lossy fault
		# profile behind admission control, race-enabled. Asserts no
		# livelock, bounded honest shedding (503 + Retry-After), and
		# goroutines back to baseline.
		go test -race -run='TestChaosSoak$' -count=1 "$@" ./internal/chaos
		;;
	soak-edge)
		# Edge-tier chaos soak: 24 staggered sessions through the edge
		# (consistent-hash origins, segment cache, SWR manifests) while the
		# primary origin of 3 is killed and restarted mid-run,
		# race-enabled. Asserts ≥ 99% completion via failover + stale
		# serving, cache-hit recovery, and no goroutine leak.
		go test -race -run='TestEdgeChaosSoak$' -count=1 "$@" ./internal/chaos
		;;
	soak-crash)
		# Crash-tolerance soak: seeded panics inside session steps, a
		# mid-run interrupt with checkpoint, and a resume that must be
		# bit-identical to the uninterrupted baseline, plus disk-cache
		# corruption detection (flipped byte, torn tail, mangled header)
		# and recompute. Asserts exact quarantine/event accounting and no
		# goroutine leak.
		go test -race -run='TestCrashSoak$' -count=1 "$@" ./internal/chaos
		;;
	*)
		echo "check: unknown step $name (have: $steps)" >&2
		exit 2
		;;
	esac
}

if [ $# -gt 0 ]; then
	step "$@"
	exit 0
fi
for s in $steps; do
	step "$s"
done
echo "check: OK"
