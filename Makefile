GO ?= go

.PHONY: build test race fuzz-smoke bench bench-smoke bench-json bench-baseline cover perf-check lint vet fmt-check tables examples linkcheck api api-check serve-smoke faults-smoke apps-smoke obs-smoke workers-smoke profile

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race pass over the concurrent code introduced by the experiment
# orchestrator, the rewritten simulation engine, the result store's
# concurrent writers, the serving layer's coalescing/admission paths,
# and the fault model's scheduler/topology surface (the adaptive
# scheduler's shared planner runs under the engine's single-process
# guarantee — the race pass holds it to that). -short trims the
# heaviest deterministic sweeps; `make test` still runs them raceless.
race:
	$(GO) test -race -short ./internal/exp/ ./internal/sim/ ./internal/cmmd/ ./internal/network/ ./internal/store/ ./internal/serve/ ./internal/sched/ ./internal/topo/ ./internal/trace/ ./internal/obs/

# Full-suite run with a coverage profile plus a function summary; on
# CI's stable leg this IS the test step (one execution, not two), and
# coverage.out uploads as an artifact.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 30

# Ten seconds of coverage-guided fuzzing of the irregular planners
# against their dense oracles (FuzzIrregularPlanners). The committed
# seed corpus under internal/sched/testdata/fuzz runs in every
# `make test`; this target searches beyond it.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzIrregularPlanners$$' -fuzztime 10s ./internal/sched/

# Full paper-scale experiment benchmarks (host ns/op + simulated-time
# metrics); see also the engine micro-benchmarks in internal/sim.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 10x .

# One iteration of every Figure-5 benchmark: catches compile or assertion
# breakage in the benchmark harness without paying for stable numbers.
bench-smoke:
	$(GO) test -run '^$$' -bench Fig5 -benchtime 1x .

# Topology x algorithm benchmark results as machine-readable JSON
# (BENCH_topo.json: ns/op + sim_ms per cell), so the perf trajectory of
# the generalized max-min solver is tracked across PRs. CI runs this as
# a smoke step; run with a higher -benchtime locally for stable numbers.
BENCHTIME ?= 1x
bench-json:
	@out="$$(mktemp)"; \
	if ! $(GO) test -run '^$$' -bench BenchmarkTopology -benchtime $(BENCHTIME) . > "$$out"; then \
		cat "$$out"; rm -f "$$out"; echo "bench-json: benchmark run failed"; exit 1; fi; \
	cat "$$out"; \
	$(GO) run ./cmd/benchjson -out BENCH_topo.json < "$$out"; rm -f "$$out"
	@echo "bench-json: wrote BENCH_topo.json"

# Gate the freshly generated BENCH_topo.json against a baseline (the
# latest main artifact in CI, or the committed BENCH_topo.baseline.json
# fallback): ns/op slowdowns beyond THRESHOLD and any sim_ms drift
# beyond SIM_THRESHOLD fail.
BASELINE ?= BENCH_topo.baseline.json
THRESHOLD ?= 25%
SIM_THRESHOLD ?= 0.1%
perf-check:
	$(GO) run ./cmd/expdiff -threshold $(THRESHOLD) -sim-threshold $(SIM_THRESHOLD) $(BASELINE) BENCH_topo.json

# Refresh the committed perf baseline after an intentional perf or
# simulation change (commit the result alongside the change).
bench-baseline:
	$(MAKE) bench-json BENCHTIME=5x
	cp BENCH_topo.json BENCH_topo.baseline.json
	@echo "bench-baseline: wrote BENCH_topo.baseline.json"

# Run every example program end to end — the documentation smoke test.
examples:
	@set -e; for d in examples/*/; do \
		echo "== go run ./$$d"; $(GO) run ./$$d >/dev/null; done
	@echo "examples: all ran"

# Verify that every relative markdown link in the repo resolves.
linkcheck:
	$(GO) run ./cmd/linkcheck

# End-to-end smoke test of cmd/cmserve over real HTTP: served bodies
# byte-identical to -oneshot, repeats hit the store, and sweep output
# byte-identical to cmexp stdout on a shared store (CI's serve-smoke
# step; see scripts/serve_smoke.sh).
serve-smoke:
	sh scripts/serve_smoke.sh

# End-to-end smoke test of the fault-injection family: a small
# `cmexp faults -store` sweep run twice — the cold run simulates, the
# warm run must be 100% cache hits with byte-identical output (CI's
# faults-smoke step; see scripts/faults_smoke.sh).
faults-smoke:
	sh scripts/faults_smoke.sh

# End-to-end smoke test of the trace subsystem: a small `cmexp apps
# -store` sweep run twice — the cold run records the applications and
# simulates, the warm run must be 100% cache hits with byte-identical
# output and never re-run an application (CI's apps-smoke step; see
# scripts/apps_smoke.sh).
apps-smoke:
	sh scripts/apps_smoke.sh

# End-to-end smoke test of the observability layer: /v1/metrics serves
# Prometheus text whose counters move with real requests and agree
# with /v1/stats, and `cmexp -timeline` writes valid, deterministic
# Chrome trace-event files (CI's obs-smoke step; see
# scripts/obs_smoke.sh).
obs-smoke:
	sh scripts/obs_smoke.sh

# End-to-end smoke test of the distributed sweep fabric: a two-worker
# `cmexp -workers` fleet sharing a cmserve-hosted HTTP store, one
# worker SIGKILLed mid-sweep — the survivor steals the dead worker's
# expired leases and completes, a final -resume is 100% replayed, and
# both outputs are byte-identical to a storeless run (CI's
# workers-smoke step; see scripts/workers_smoke.sh).
workers-smoke:
	sh scripts/workers_smoke.sh

# CPU + heap profiles of the topology benchmark (the perf gate's
# workload) via the standard pprof flags; inspect with
# `go tool pprof cpu.pprof`. CI uploads both files as artifacts.
profile:
	$(GO) test -run '^$$' -bench BenchmarkTopology -benchtime 3x \
		-cpuprofile cpu.pprof -memprofile mem.pprof .
	@echo "profile: wrote cpu.pprof and mem.pprof"

# Snapshot the public API surface. Run after intentionally changing
# exported cm5 declarations; CI's api job diffs against this file.
api:
	$(GO) doc -all ./cm5 > cm5/api.txt

# Fail when the exported cm5 surface drifts from the api.txt snapshot.
api-check:
	@tmp="$$(mktemp)"; $(GO) doc -all ./cm5 > "$$tmp"; \
	if ! diff -u cm5/api.txt "$$tmp"; then \
		echo; echo "public cm5 API changed: run 'make api' and commit cm5/api.txt"; \
		rm -f "$$tmp"; exit 1; fi; rm -f "$$tmp"; \
	echo "api-check: cm5 surface matches cm5/api.txt"

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# CI and humans run the same thing: vet + gofmt always; golangci-lint
# (configured by .golangci.yml) when installed.
lint: vet fmt-check
	@if command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run; \
	else \
		echo "golangci-lint not installed; go vet + gofmt ran"; fi

# Regenerate every table and figure of the paper on all CPUs.
tables:
	$(GO) run ./cmd/cmexp -v all
