GO ?= go

.PHONY: check lint lint-fixtures build vet test race bench bench-telemetry bench-sweep-short soak soak-edge soak-fleet soak-crash bench-fleet-short

# check is the one-command tier-1 gate every PR must pass. The gate list
# lives in scripts/check.sh alone; the targets below run its pieces locally.
check:
	sh scripts/check.sh

# The targets below that share a name with a step of scripts/check.sh run
# that step alone; the commands and their flags live in the script only.

# lint is the static-analysis gate: formatting, go vet, and abrlint (the
# project analyzer suite in internal/lint; see DESIGN.md "Static analysis").
lint:
	sh scripts/check.sh lint

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

# Telemetry smoke: the instrumentation benchmarks plus the zero-alloc guards.
bench-telemetry:
	sh scripts/check.sh bench-telemetry

# Sweep-memoization gate: cold pass, warm replay and disk replay at a
# reduced trace count (timings come from `bash bench/run.sh`).
bench-sweep-short:
	sh scripts/check.sh bench-sweep-short

# Chaos soak: 32 concurrent resilient sessions against a fault-injected,
# overload-protected server under the race detector.
soak:
	sh scripts/check.sh soak -v

# Edge-tier chaos soak: staggered sessions through the edge while the
# primary origin is killed and restarted mid-run, race-enabled.
soak-edge:
	sh scripts/check.sh soak-edge -v

# Fleet-engine chaos smoke: 2000 sessions sharded across 4 workers under the
# race detector, checked against fleet.Result.Invariants.
soak-fleet:
	sh scripts/check.sh soak-fleet -v

# Crash-tolerance soak: seeded in-step panics, checkpoint/resume
# equivalence and disk-cache corruption recovery, race-enabled.
soak-crash:
	sh scripts/check.sh soak-crash -v

# Fleet throughput gate: one reduced multi-worker point under the
# per-worker sessions/sec floor (fleet numbers come from
# `bash bench/run.sh --workload fleet-cava`).
bench-fleet-short:
	sh scripts/check.sh bench-fleet-short
