GO ?= go

.PHONY: check lint lint-fixtures build vet test race bench bench-telemetry bench-sweep-short soak soak-edge soak-fleet soak-crash bench-fleet-short

# check is the one-command tier-1 gate every PR must pass. The gate list
# lives in scripts/check.sh alone; the targets below run its pieces locally.
check:
	sh scripts/check.sh

# lint is the static-analysis gate: formatting, go vet, and abrlint (the
# project analyzer suite in internal/lint — determinism, units, nopanic,
# floateq, errdrop, hotalloc, locks, goroleak, atomicmix, metricname; see
# DESIGN.md "Static analysis").
lint: vet
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/abrlint ./...

# lint-fixtures runs only the golden fixture corpus — the fast inner loop
# for analyzer development (no repo-wide load, no vet).
lint-fixtures:
	$(GO) test ./internal/lint -run 'TestAnalyzersAgainstFixtures|TestSuppression|TestStacked|TestUnknownAnalyzer' -count=1

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# Telemetry smoke: the instrumentation benchmarks plus the zero-alloc guards
# (counter path and the player's disabled-recorder step path).
bench-telemetry:
	$(GO) test -bench=Telemetry -benchtime=100x \
		-run='TestZeroAllocUpdates|TestTelemetryDisabledAllocBound' \
		./internal/telemetry ./internal/player

# Sweep-memoization gate wired into `check`: cold pass, warm replay and
# disk replay over the fig8/fig9/fig10 suite at a reduced trace count (warm
# pass does zero sim work, outputs byte-identical). Timings come from the
# benchmark harness: `bash bench/run.sh` (see bench/README.md).
bench-sweep-short:
	$(GO) test -short -run='TestSweepColdWarm$$' -count=1 .

# Chaos soak: 32 concurrent resilient sessions against a fault-injected,
# overload-protected server under the race detector. Deterministic fault
# schedule (seeded); asserts no livelock, bounded honest shedding, and
# goroutine count back to baseline.
soak:
	$(GO) test -race -run='TestChaosSoak$$' -count=1 -v ./internal/chaos

# Edge-tier chaos soak: 24 staggered sessions stream through the edge
# (consistent-hash origins, segment cache, SWR manifests) while the primary
# origin of 3 is killed and restarted mid-run, race-enabled. Asserts ≥ 99%
# session completion via failover + stale serving, cache-hit recovery after
# the restart, and goroutines back to baseline. Seeded fault schedule.
soak-edge:
	$(GO) test -race -run='TestEdgeChaosSoak$$' -count=1 -v ./internal/chaos

# Fleet-engine chaos smoke: 2000 discrete-event sessions with Poisson
# arrivals and random trace offsets, sharded across 4 workers and run under
# the race detector (the multi-worker cell); asserts the fleet contract,
# fleet.Result.Invariants (exact event accounting, every session finishes
# within the virtual-time deadline).
soak-fleet:
	$(GO) test -race -run='TestFleetChaosSmoke$$' -count=1 -v ./internal/fleet

# Crash-tolerance soak: the fleet engine under seeded in-step panics, a
# mid-run interrupt that forces a checkpoint, and a resume that must be
# bit-identical to the uninterrupted baseline — race-enabled — plus a
# disk-cache corruption pass (flipped byte, torn tail, mangled header)
# proving checksum detection, quarantine and recompute. Asserts exact
# quarantine accounting, closed event accounting and goroutines back to
# baseline. Seeded fault schedule.
soak-crash:
	$(GO) test -race -run='TestCrashSoak$$' -count=1 -v ./internal/chaos

# Fleet throughput gate wired into `check`: one reduced multi-worker point
# under the per-worker sessions/sec floor (fleet numbers come from
# `bash bench/run.sh --workload fleet-cava`).
bench-fleet-short:
	$(GO) test -short -run='TestFleetBench$$' -count=1 .
