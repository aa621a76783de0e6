GO ?= go

.PHONY: check lint lint-fixtures build cli vet test race fuzz bench bench-telemetry bench-sweep-short soak soak-edge soak-fleet bench-fleet-short

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

# cli runs the documented command lines of every binary at small scale,
# plus the bad inputs that must fail with a one-line error.
cli:
	sh scripts/check.sh cli

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fuzz runs each fuzz target for 10 s past its committed seeds; an input
# that fails lands under the target's testdata/fuzz and fails the step.
fuzz:
	sh scripts/check.sh fuzz

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

# Fleet soak: 2000 sessions sharded across 4 workers under the race
# detector, with seeded in-step panics and an interrupt, checkpoint and
# resume, checked against fleet.Result.Invariants and the uninterrupted run.
soak-fleet:
	sh scripts/check.sh soak-fleet -v

# Fleet throughput gate: one reduced multi-worker point under the
# per-worker sessions/sec floor (fleet numbers come from
# `bash bench/run.sh --workload fleet-cava`).
bench-fleet-short:
	sh scripts/check.sh bench-fleet-short
