# Developer workflow for the Uni-Detect reproduction.
#
#   make           — build + tier-1 tests (the seed verify)
#   make lint      — project-specific static analysis (cmd/unilint)
#   make lint-fix  — apply unilint's suggested fixes in place
#   make sarif     — write unilint findings to unilint.sarif
#   make vet       — go vet
#   make fmt-check — fail if any tracked .go file outside testdata/ needs gofmt
#   make test      — full test suite
#   make race      — full test suite under the race detector
#   make bench     — benchmarks (no tests)
#   make bench-test — the benchmark's own tests (cmd/unibench is a nested module)
#   make bench-json — train/predict baseline + registry counters → BENCH_core.json
#   make bench-serving — serving-tier latency/throughput baseline → BENCH_serving.json
#   make bench-gate — regenerate both reports, fail on regression
#   make fuzz      — every fuzz target for FUZZTIME (default 10s) each
#   make chaos     — fault-injection suite, three fixed seeds, -race
#   make cover     — per-package coverage; jobstore/tenants must stay >= 85%
#   make check     — everything CI runs
#   make clean     — remove generated artifacts (bench candidates, SARIF, chaos transcripts)

GO ?= go
GOFMT ?= gofmt
CHAOS_SEEDS ?= 1,7,42
CHAOS_ARTIFACT_DIR ?= $(CURDIR)/chaos-artifacts
FUZZTIME ?= 10s

# Every fuzz target in the tree, as package=Target pairs ("make fuzz"
# runs each for FUZZTIME; committed corpora under testdata/fuzz replay
# as plain tests regardless).
FUZZ_TARGETS = \
	./internal/strdist=FuzzLevenshteinBounded \
	./internal/strdist=FuzzDifferingTokens \
	./internal/strdist=FuzzSpellingMPD \
	./internal/table=FuzzParseNumber \
	./internal/table=FuzzTokenize \
	./internal/table=FuzzInferType \
	./internal/corpus=FuzzTokenHashes \
	./internal/core=FuzzCheckpointLoad \
	./internal/core=FuzzCheckpointRoundTrip \
	./internal/core=FuzzModelMerge \
	./internal/lrindex=FuzzLRIndexLookup \
	./internal/colstore=FuzzUcolRead \
	./internal/colstore=FuzzCSVChunks \
	./internal/serving=FuzzReadTable \
	./internal/serving=FuzzJobRequest \
	./internal/tenants=FuzzTenantRegistryLoad

.PHONY: all build lint lint-fix sarif vet fmt-check test race bench bench-test bench-json bench-serving bench-gate chaos cover fuzz check clean

all: build test

build:
	$(GO) build ./...

lint:
	$(GO) run ./cmd/unilint ./...

lint-fix:
	$(GO) run ./cmd/unilint -fix ./...

# Exit status intentionally ignored: the report is the artifact.
sarif:
	$(GO) run ./cmd/unilint -sarif ./... > unilint.sarif || true

vet:
	$(GO) vet ./...

# Analyzer fixtures under testdata/ keep the layout their tests expect,
# so they are exempt; every other tracked Go file must be gofmt-clean.
fmt-check:
	@out=$$(git ls-files '*.go' | grep -Ev '(^|/)testdata/' | xargs $(GOFMT) -l); \
	if [ -n "$$out" ]; then echo "gofmt -l flags:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run=NoSuchTest -bench=. -benchtime=1x ./...

# cmd/unibench is a nested module (its own go.mod), so the root
# `go test ./...` never reaches its smoke and output-oracle tests.
bench-test:
	cd cmd/unibench && $(GO) test ./...

# Regenerates the committed perf/behaviour baseline. Timings are
# machine-relative; the counters block is seed-deterministic and a diff
# there means the pipeline's behaviour changed, not just its speed.
bench-json:
	$(GO) run ./cmd/benchjson -out BENCH_core.json

# Serving-tier baseline: p50/p99 detect latency, request throughput and
# async job throughput through a real listener. Same caveats as the
# core report — timings are machine-relative.
bench-serving:
	$(GO) run ./cmd/benchjson -serving -out BENCH_serving.json

# Regression gate: regenerate the report into a scratch file and compare
# the detect-path benchmarks against the committed baseline; >20% ns/op
# (or allocs/op) regression fails. Run on the same host class as the
# baseline — timings are machine-relative.
bench-gate:
	$(GO) run ./cmd/benchjson -out bench-candidate.json
	$(GO) run ./cmd/benchgate -baseline BENCH_core.json -candidate bench-candidate.json -pattern Detect,Ingest
	$(GO) run ./cmd/benchjson -serving -out bench-serving-candidate.json
	$(GO) run ./cmd/benchgate -baseline BENCH_serving.json -candidate bench-serving-candidate.json -pattern Serving -max-regress 0.50

# Coverage-guided fuzzing, one target at a time (go test accepts a
# single -fuzz pattern per invocation).
fuzz:
	@set -e; for pair in $(FUZZ_TARGETS); do \
		pkg=$${pair%%=*}; target=$${pair##*=}; \
		echo "--- fuzz $$pkg $$target"; \
		$(GO) test $$pkg -run=NoSuchTest -fuzz="^$$target$$" -fuzztime=$(FUZZTIME); \
	done

# Chaos suite: deterministic fault-injection tests under the race
# detector, -count=1 so every run re-executes the schedules. Failure
# transcripts land in $(CHAOS_ARTIFACT_DIR) for CI to upload. The
# -chaos.seeds flag is registered only by test binaries importing
# internal/testkit, so the seed sweep and the fixed-schedule packages
# run as separate invocations.
chaos:
	mkdir -p $(CHAOS_ARTIFACT_DIR)
	CHAOS_ARTIFACT_DIR=$(CHAOS_ARTIFACT_DIR) $(GO) test -race -count=1 ./internal/testkit/ -chaos.seeds=$(CHAOS_SEEDS)
	CHAOS_ARTIFACT_DIR=$(CHAOS_ARTIFACT_DIR) $(GO) test -race -count=1 ./internal/e2e/ -chaos.seeds=$(CHAOS_SEEDS)
	CHAOS_ARTIFACT_DIR=$(CHAOS_ARTIFACT_DIR) $(GO) test -race -count=1 ./internal/faultinject/ ./internal/mapreduce/ ./internal/core/ ./internal/serving/ ./internal/jobstore/

# Per-package coverage with floors on the new serving-tier packages:
# the async job store and the tenant registry carry the crash-safety
# and isolation guarantees, so they must stay well covered.
cover:
	$(GO) test -coverprofile=cover.out -coverpkg=./internal/jobstore,./internal/tenants,./internal/serving ./internal/jobstore/ ./internal/tenants/ ./internal/serving/
	@$(GO) tool cover -func=cover.out | tail -1
	@for pkg in internal/jobstore internal/tenants; do \
		pct=$$($(GO) tool cover -func=cover.out | awk -v p="$$pkg/" '$$1 ~ p {split($$NF,a,"%"); sum+=a[1]; n++} END {if (n) printf "%.1f", sum/n; else print "0"}'); \
		echo "coverage $$pkg: $$pct% (floor 85%)"; \
		ok=$$(awk -v v="$$pct" 'BEGIN {print (v+0 >= 85) ? 1 : 0}'); \
		if [ "$$ok" != "1" ]; then echo "FAIL: $$pkg coverage $$pct% is below the 85% floor"; exit 1; fi; \
	done

check: build vet fmt-check lint test bench-test race

# Remove generated artifacts. BENCH_core.json is the committed baseline
# and is deliberately left alone; bench-candidate.json is the scratch
# report bench-gate regenerates every run.
clean:
	rm -f bench-candidate.json bench-serving-candidate.json cover.out unilint.sarif unilint-flow.sarif
	rm -rf $(CHAOS_ARTIFACT_DIR)
