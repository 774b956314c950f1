# Standard developer entry points; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test vet lint race cover bench bench-baseline bench-compare bench-json load fuzz experiments experiments-fast trace-demo clean

# Repair-engine benchmarks (the compiled hot path, and the Σ-vocabulary
# lookup every cell code goes through); -count for benchstat.
BENCH_REPAIR = -run '^$$' -bench 'Fig13Repair|RepairSingleTuple|CodedRepairTuple|StreamRepair|ValueTableCode' -benchmem -count 6 . ./internal/repair

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Repo-specific static analysis (docs/ANALYSIS.md) plus formatting. fixvet
# enforces the engine's hot-path, padding, cancellation, error-surface,
# determinism and concurrency (goroutine-join, lock-scope, shared-capture,
# suppression-audit) invariants; gofmt must be a no-op outside testdata
# directories — analyzer fixtures and the CFG golden shapes deliberately
# hold want-comments and layouts gofmt would rewrite. The match is
# anchored on path segments so only real testdata/ trees are excluded.
lint:
	$(GO) run ./cmd/fixvet ./...
	@fmt_out=$$(gofmt -l . | grep -vE '(^|/)testdata/' || true); \
	if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Save a repair-benchmark baseline (run before a performance change).
bench-baseline:
	$(GO) test $(BENCH_REPAIR) | tee bench_baseline.txt

# Re-run the repair benchmarks and compare against bench_baseline.txt.
# benchstat is optional; without it the raw results are left in
# bench_new.txt for manual comparison (this repo adds no dependencies).
#
# Go stamps every benchmark name with the GOMAXPROCS it ran at (the -N
# suffix); comparing runs taken at different values is comparing different
# machines and silently flatters or damns a change. The guard refuses the
# comparison unless BENCH_ALLOW_CROSS_GOMAXPROCS=1 explicitly overrides.
bench-compare:
	@test -f bench_baseline.txt || { \
		echo "bench-compare: no bench_baseline.txt; run 'make bench-baseline' first"; exit 1; }
	$(GO) test $(BENCH_REPAIR) | tee bench_new.txt
	@base=$$(grep -oE '^Benchmark[^[:space:]]+' bench_baseline.txt | grep -oE '[0-9]+$$' | sort -un | tr '\n' ' '); \
	new=$$(grep -oE '^Benchmark[^[:space:]]+' bench_new.txt | grep -oE '[0-9]+$$' | sort -un | tr '\n' ' '); \
	if [ "$$base" != "$$new" ]; then \
		echo "bench-compare: GOMAXPROCS mismatch — baseline ran at [ $$base], this run at [ $$new]"; \
		if [ -n "$$BENCH_ALLOW_CROSS_GOMAXPROCS" ]; then \
			echo "bench-compare: BENCH_ALLOW_CROSS_GOMAXPROCS set; comparing anyway (numbers are NOT comparable)"; \
		else \
			echo "bench-compare: refusing the comparison; re-run 'make bench-baseline' at the current GOMAXPROCS,"; \
			echo "bench-compare: or set BENCH_ALLOW_CROSS_GOMAXPROCS=1 to override"; \
			exit 1; \
		fi; \
	fi
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat bench_baseline.txt bench_new.txt; \
	else \
		echo "benchstat not installed; compare bench_baseline.txt vs bench_new.txt by hand"; \
		echo "(go install golang.org/x/perf/cmd/benchstat@latest)"; \
	fi

# Regenerate BENCH_repair.json (whole-relation repair throughput) at the
# benchmark scale used by bench_test.go.
bench-json:
	$(GO) run ./cmd/experiments -bench-json BENCH_repair.json \
		-hosp-rows 20000 -hosp-rules 500 -uis-rows 8000 -uis-rules 100

# Open-loop load test against a running fixserve (docs/LOADTEST.md).
# Tunables: make load LOAD_URL=http://host:8080 LOAD_RPS=100:1000:5 \
#               LOAD_DURATION=30s LOAD_SLO='p99=50ms,err<0.1%' LOAD_FLAGS='-json load.json'
LOAD_URL ?= http://127.0.0.1:8080
LOAD_RPS ?= 200
LOAD_DURATION ?= 10s
LOAD_SLO ?=
LOAD_FLAGS ?=
load:
	$(GO) run ./cmd/fixload -url $(LOAD_URL) -rps $(LOAD_RPS) \
		-duration $(LOAD_DURATION) $(if $(LOAD_SLO),-slo '$(LOAD_SLO)') $(LOAD_FLAGS)

# Short fuzzing pass over the hardened decoders, the stream engines
# (differential against the in-memory repair), the Σ-vocabulary tables
# (differential against a map) and the HTTP surface.
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/ruleio/
	$(GO) test -fuzz=FuzzUnmarshalJSON -fuzztime=30s ./internal/ruleio/
	$(GO) test -fuzz=FuzzRead -fuzztime=30s ./internal/store/
	$(GO) test -fuzz=FuzzReadColumnar -fuzztime=30s ./internal/store/
	$(GO) test -fuzz=FuzzCSVChunk -fuzztime=30s ./internal/store/
	$(GO) test -run '^$$' -fuzz=FuzzStreamMatchesReference -fuzztime=30s ./internal/repair/
	$(GO) test -run '^$$' -fuzz=FuzzValueTable -fuzztime=30s ./internal/repair/
	$(GO) test -run '^$$' -fuzz=FuzzHandleRepairCSV -fuzztime=30s ./internal/server/
	$(GO) test -run '^$$' -fuzz=FuzzHandleRepairJSON -fuzztime=30s ./internal/server/
	$(GO) test -run '^$$' -fuzz=FuzzTenantRouting -fuzztime=30s ./internal/server/

# Regenerate every figure/table of the paper's Section 7 at paper scale
# (minutes); results land in results/.
experiments:
	mkdir -p results
	$(GO) run ./cmd/experiments -csv results | tee results/experiments_output.txt

experiments-fast:
	$(GO) run ./cmd/experiments -fast

# Worked tracing example: chase-repair the hospital fixture and print each
# repaired tuple's rule applications (docs/OBSERVABILITY.md).
trace-demo:
	$(GO) run ./cmd/fixrepair -rules testdata/hosp/rules.dsl \
		-data testdata/hosp/dirty.csv -alg chase -trace

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
