#!/bin/sh
# Tier-1 gate: static analysis, build, the documented CLI command lines,
# race-enabled tests, the benchmark module, the telemetry benchmark smoke
# (which also runs the allocation guards: the AllocsPerRun assertions in
# internal/telemetry, internal/player and internal/fleet and the edge's
# miss-path gate, outside the race build), a fixed-budget fuzz of every
# fuzz target, the short sweep and fleet gates and the soaks. This is the
# one gate list; `make check` runs it whole.
#
#   sh scripts/check.sh                 every step below, in order
#   sh scripts/check.sh STEP [ARGS...]  one step; ARGS go to its go test
#                                       commands (the make targets of the
#                                       same names run the soaks with -v)
set -eu
cd "$(dirname "$0")/.."

steps="lint build cli race bench-module race-hot fuzz bench-telemetry bench-sweep-short bench-fleet-short soak-fleet soak soak-edge"

step() {
	name=$1
	shift
	case $name in
	lint)
		# Static analysis first: formatting, go vet (whose copylocks check
		# is the gate against copied locks and typed atomics), then
		# abrlint (the project analyzer suite — determinism, units,
		# nopanic, floateq, errdrop, hotalloc, locks, goroleak, atomicmix;
		# see DESIGN.md "Static analysis"). -counts prints the
		# per-analyzer tally so a regression is attributable to the
		# analyzer that caught it.
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
	cli)
		# The documented command lines at small scale, on binaries built
		# outside the repo: README's "Supporting tools" and decision-trace
		# blocks, one session's trace dumped and rendered against the same
		# trace rendered directly, dashserve's stdout trace dump rendered,
		# every listed video id, and bad input (a positional argument to
		# each binary, negative counts, rates and trace indexes, NaN and
		# infinite rates and scales, a zero time scale and one above
		# dashserve's ceiling, and a video listed twice among them), which
		# must fail with a one-line error and no panic and leave an
		# existing -out file as it was. A session starved by a near-zero
		# trace must still print no line over 120 bytes.
		tmp=$(mktemp -d)
		trap 'rm -rf "$tmp"' EXIT
		go build -o "$tmp/bin/" ./cmd/...
		b=$tmp/bin
		$b/cava-sim -video ED-youtube-h264 -trace lte:0 -scheme cava -v >/dev/null
		$b/tracegen -set lte -n 5 -stats >/dev/null
		$b/tracegen -set fcc -n 5 -out "$tmp/traces" >/dev/null
		$b/videogen -stats >/dev/null
		for f in json mpd hls; do
			$b/videogen -out "$tmp/manifests-$f" -format $f >/dev/null
		done
		$b/videogen -video ED-youtube-h264 -chunks >/dev/null
		$b/dashserve -video BBB-youtube-h264 -trace lte:0 -scheme cava -run \
			-chunks 6 -scale 200 -trace-out "$tmp/dash.jsonl" >/dev/null
		$b/cava-sim -in "$tmp/dash.jsonl" >/dev/null
		$b/dashserve -video BBB-youtube-h264 -trace lte:0 -scheme cava -run \
			-chunks 4 -scale 200 -trace-out - >"$tmp/dash-stdout.jsonl" 2>/dev/null
		$b/cava-sim -in "$tmp/dash-stdout.jsonl" >/dev/null
		$b/abrexport -videos ED-ffmpeg-h264 -set lte -traces 5 -out "$tmp/r.csv" >/dev/null
		$b/fleetsim -sessions 200 -max-chunks 10 -trace-corpus lte:40,fcc:20 -scheme cava >/dev/null
		session="-video ED-ffmpeg-h264 -trace lte:3 -scheme cava"
		$b/cava-sim $session -trace-out "$tmp/session.jsonl" >/dev/null
		$b/cava-sim -in "$tmp/session.jsonl" >"$tmp/in.txt"
		$b/cava-sim $session -events >"$tmp/events.txt"
		cmp "$tmp/in.txt" "$tmp/events.txt"
		$b/cava-sim -video ED-youtube-h264 -trace const:1e-300 -scheme bba1 -v >"$tmp/starved.txt"
		if ! LC_ALL=C awk 'length($0) > 120 { exit 1 }' "$tmp/starved.txt"; then
			echo "cli: a starved cava-sim session prints a line over 120 bytes" >&2
			exit 1
		fi
		for id in $($b/cava-sim -list-videos | awk '{print $1}'); do
			$b/cava-sim -video "$id" -trace const:5 >/dev/null
		done
		echo keep >"$tmp/keep"
		for cmd in "abrexport -format xml -traces 2 -out $tmp/keep" \
			"abrexport -traces -1 -out $tmp/keep" "abrexport trace -out $tmp/keep" \
			"tracegen -set lte -n 0 -stats" "tracegen -n -3 -stats" \
			"videogen -out $tmp/xml -format xml" \
			"abreval -list extra" "abrexport -traces 2 -out $tmp/keep extra" \
			"cava-sim -trace const:5 -v extra" "dashserve -run -chunks 2 -scale 200 extra" \
			"fleetsim -sessions 10 -max-chunks 2 extra" "tracegen -stats -n 2 extra" \
			"videogen -stats extra" \
			"abrexport -videos ED-ffmpeg-h264,ED-ffmpeg-h264 -set lte -traces 2 -out $tmp/keep" \
			"cava-sim -trace lte:-1" "cava-sim -trace fcc:-4" \
			"fleetsim -sessions 10 -max-chunks -3" "fleetsim -sessions 10 -max-chunks 2 -arrival -3" \
			"dashserve -run -chunks -2 -scale 200" "dashserve -run -chunks 2 -scale -5" \
			"fleetsim -sessions 10 -max-chunks 2 -arrival NaN" \
			"fleetsim -sessions 10 -max-chunks 2 -watchdog NaN" \
			"dashserve -run -chunks 2 -scale NaN" "dashserve -run -chunks 2 -scale Inf" \
			"dashserve -run -chunks 2 -scale 1e300" "dashserve -run -chunks 2 -scale 0" \
			"cava-sim -trace const:NaN" \
			"abreval -exp fig1 -traces -2"; do
			if $b/$cmd >/dev/null 2>"$tmp/err"; then
				echo "cli: $cmd succeeded" >&2
				exit 1
			fi
			if [ "$(wc -l <"$tmp/err")" -ne 1 ] || grep -q 'panic:' "$tmp/err"; then
				echo "cli: $cmd: want a one-line error, got:" >&2
				cat "$tmp/err" >&2
				exit 1
			fi
		done
		if [ "$(cat "$tmp/keep")" != keep ]; then
			echo "cli: a rejected abrexport changed its -out file" >&2
			exit 1
		fi
		if [ -e "$tmp/xml" ]; then
			echo "cli: videogen created -out before rejecting -format" >&2
			exit 1
		fi
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
	fuzz)
		# Each fuzz target for 10 s beyond its committed seeds (the plain
		# test runs replay those). An input that fails is new: go test
		# writes it under the target's testdata/fuzz and the step fails.
		# That input is committed there together with its fix, so every
		# test run replays it from then on.
		for target in trace:FuzzReadMahimahi dash:FuzzDecodeManifest \
			trace:FuzzDownloadTime fleet:FuzzResume; do
			go test -run='^$' -fuzz="^${target#*:}\$" -fuzztime=10s "$@" "./internal/${target%%:*}"
		done
		;;
	bench-telemetry)
		# Telemetry smoke: the instrumentation benchmarks plus the
		# allocation guards (counter path, the player's disabled-recorder
		# step path, the fleet's per-event path and a session's first
		# event, and the edge's miss path, TestEdgeMissAllocatesBodyOnce:
		# one body-sized buffer per cold miss), and the fleet event
		# queue's hold benchmark, which builds a shard's 50k-event queue.
		go test -bench='Telemetry|EventHeapHold' -benchtime=100x \
			-run='TestZeroAllocUpdates|TestTelemetryDisabledAllocBound|TestFleetZeroAllocPerEvent|TestFleetSessionFootprint|TestEdgeMissAllocatesBodyOnce' "$@" \
			./internal/telemetry ./internal/player ./internal/fleet ./internal/edge
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
		# Fleet soak: 2000 discrete-event sessions with Poisson arrivals
		# and random trace offsets, sharded across 4 workers under the
		# race detector, 25 of them struck by seeded in-step panics; the
		# same run is interrupted mid-way, checkpointed and resumed.
		# Asserts the fleet contract, fleet.Result.Invariants (exact
		# event accounting, no vanished or starved session), exact
		# quarantine, a resume equal to the uninterrupted run, the
		# quarantine and checkpoint counters, and no goroutine leak.
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
