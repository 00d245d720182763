# Convenience targets for the reproduction. Everything is plain `go`
# underneath; the targets only fix the invocations used in EXPERIMENTS.md.

GO ?= go

.PHONY: all build test test-short race cover bench bench-json bench-sparse perf-smoke chaos-smoke experiments experiments-md fuzz examples vet lint clean

all: vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis: the repo's own go/analysis suite (cmd/ubalint) run
# over every package via go vet's -vettool protocol. The eight passes —
# retainenv, determinism, sharedstate, wirereg, complexity, shardsafe,
# noalloc, nonblock — enforce the simnet engine, wire-registration,
# message-complexity, shard-ownership, allocation-freedom, and
# non-blocking contracts, fed by the interprocedural summary fact
# pass; see DESIGN.md "Static analysis" and internal/lint.
# Suppress a false positive in-source with: //lint:allow <pass> <reason>
#
# bin/ubalint is a real make target: it rebuilds only when the linter's
# sources (cmd/ubalint, internal/lint, internal/complexity, the
# vendored x/tools) change, so repeated `make lint` runs skip the build.
LINT_SRCS := $(shell find cmd/ubalint internal/lint internal/complexity vendor/golang.org/x/tools -name '*.go' -not -path '*/testdata/*') go.mod

bin/ubalint: $(LINT_SRCS)
	$(GO) build -o $@ ./cmd/ubalint

lint: bin/ubalint
	$(GO) vet -vettool=bin/ubalint ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race -short ./...

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Round-engine micro-benchmarks (BenchmarkRoundEngine* workload) as JSON.
# BENCH_simnet.json is committed so the engine's perf trajectory is
# tracked in-repo; regenerate after touching internal/simnet.
bench-json:
	$(GO) run ./cmd/ubabench -benchjson -benchout BENCH_simnet.json

# Perf regression gate: re-measures the n=256 round/step/route
# benchmarks and enforces per-row ns/op and allocs/op bands against the
# committed BENCH_simnet.json. A row outside its band fails the target;
# escape hatch for an understood, not-yet-rebaselined change:
#   make perf-smoke PERFSMOKE_FLAGS=-warn-only
PERFSMOKE_FLAGS ?=
perf-smoke:
	$(GO) run ./cmd/ubabench -perfsmoke $(PERFSMOKE_FLAGS)

# Sparse-delivery scaling check: the large-n broadcast-heavy rounds that
# the shared-broadcast-block delivery exists for. Round benchmarks at
# n=4096 and n=8192, inline (workers=1) and at the default worker cap,
# under a wall-clock budget (-benchtime is per-benchmark; timeout is the
# hard stop), emitted as plain `go test -bench` output for the CI
# artifact.
bench-sparse:
	$(GO) test ./internal/simnet -run '^$$' -bench 'BenchmarkRoundEngineSparse' -benchmem -benchtime 3x -timeout 300s

# Seeded chaos campaign: random Byzantine coalitions against every
# protocol family with online safety oracles attached (agreement,
# validity, termination, no-forged-sender). A violation is shrunk to a
# minimal repro, written to chaos-repro.json (replay with
# `go run ./cmd/ubasim -repro chaos-repro.json`), and fails the target.
# The second invocation repeats the campaign under generated
# Byzantine-scoped fault plans (partitions quarantining the coalition,
# loss on its links, crash/recover churn): all in-model behaviors, so
# any oracle firing there is equally a bug; its repro lands in
# chaos-faults-repro.json.
chaos-smoke:
	$(GO) run ./cmd/ubasweep -chaos -seeds 25 -repro-out chaos-repro.json
	$(GO) run ./cmd/ubasweep -chaos -faults byzantine -seeds 25 -repro-out chaos-faults-repro.json

# Regenerate every experiment table (E1-E21) as text.
experiments:
	$(GO) run ./cmd/ubabench

# Regenerate the Markdown tables appended to EXPERIMENTS.md.
experiments-md:
	$(GO) run ./cmd/ubabench -markdown

fuzz:
	$(GO) test ./internal/wire/ -fuzz FuzzDecode -fuzztime 30s
	$(GO) test ./internal/wire/ -fuzz FuzzValueOrdering -fuzztime 30s

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/sensorfusion
	$(GO) run ./examples/eventlog
	$(GO) run ./examples/cluster
	$(GO) run ./examples/clocksync

clean:
	$(GO) clean -testcache
	rm -rf bin
