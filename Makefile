# Development targets for sepe-go.

GO ?= go

.PHONY: all build test vet check lint lint-diff race mutate certify flood bench fuzz repro repro-quick examples golden serve-smoke clean

# Pinned versions of the external analysis tools. The module has no
# dependencies, so the usual blank-import tools.go pattern would break
# the offline build; tools.go (build-tagged out) and these variables
# pin the versions instead, and CI installs exactly them. Locally the
# two external tools are skipped with a notice when not on PATH — the
# project's own analyzers (cmd/sepevet) always run from source.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

# Seconds of fuzzing per target for `make fuzz` (CI smoke uses a short
# burst; raise locally for a real session, e.g. make fuzz FUZZTIME=10m).
FUZZTIME ?= 30s

all: build vet test

# The CI gate: formatting, vet, build, the full suite under the race
# detector, the layout- and atomics-sensitive packages on a 32-bit
# target, then vet and tests of the separate benchmark module.
# Mirrors .github/workflows/ci.yml.
check:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/sepevet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) test -tags purego ./...
	GOARCH=386 $(GO) test -short . ./internal/shard/... ./internal/telemetry/... ./internal/adaptive/...
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis: go vet, the project's own sepevet analyzers
# (shard-lock discipline, atomic-field consistency, telemetry span
# pairing, unsafe confinement, seed confidentiality, lock ordering,
# zero-alloc hot paths, assembly ABI, handler hygiene), and — when
# installed — staticcheck and govulncheck at the pinned versions.
# Any non-baselined sepevet finding fails the target; suppressions
# live in .sepevet-baseline.json (absent = empty; every entry needs a
# justification and an expiry). SEPEVET_SARIF=path additionally writes
# a SARIF 2.1.0 report for code-scanning upload.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/sepevet $(if $(SEPEVET_SARIF),-sarif $(SEPEVET_SARIF)) ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "lint: staticcheck not on PATH (CI pins $(STATICCHECK_VERSION)); skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "lint: govulncheck not on PATH (CI pins $(GOVULNCHECK_VERSION)); skipping"; fi

# Diff-aware lint: only findings in files changed since DIFF_REF
# (default origin/main) fail. Full-repo analysis still runs — the
# filter is on reporting, so inter-procedural findings (lock cycles)
# keep their whole-program context.
DIFF_REF ?= origin/main
lint-diff:
	$(GO) run ./cmd/sepevet -diff $(DIFF_REF) ./...

# Race-detector gate over the concurrent planes: the serving daemon,
# the flat container storage the shard and adaptive layers reach from
# many goroutines, the striped containers, the adaptive lifecycle, the
# telemetry blocks every goroutine feeds, the sharded observed
# containers, whose per-shard telemetry adapters rely on the shard
# lock alone, and the composition differential test, whose sharded
# compositions run four goroutines across hash swaps.
# `make check` runs the whole suite under -race; this target is the
# focused loop.
race:
	$(GO) test -race ./cmd/sepeserve/... ./internal/container/... ./internal/shard/... ./internal/adaptive/... ./internal/telemetry/...
	$(GO) test -race -run 'TestShardedObservedMetrics' -count=10 .
	$(GO) test -race -run 'TestCompositionDifferential|TestForEachMutatingCallback' -count=1 .

# Mutation testing for the plan-IR certifier: re-runs the seeded
# planner-bug suite (internal/core/mutation_test.go) verbosely. Every
# mutant must be killed with a certified counterexample — two distinct
# in-format keys the mutated plan really collides.
mutate:
	$(GO) test ./internal/core/ -run 'TestMutation' -count=1 -v

# Certify every family over the paper's eight RQ key formats and
# refresh the checked-in report.
certify:
	$(GO) run ./cmd/sepebench -certify > BENCH_certify.json

# Hash-flood resistance report: mine attack key sets against the
# unseeded functions of every (RQ format, family) pair, replay them
# against seeded deployments, compare to a random oracle, and measure
# the hot-path cost of seeding. Fails if any seeded deployment strays
# more than 2 sigma from the oracle or mean overhead exceeds 5%.
flood:
	$(GO) run ./cmd/sepebench -flood > BENCH_flood.json

test:
	$(GO) test ./...

# Per-table/figure micro-benchmarks (testing.B).
bench:
	$(GO) test -bench=. -benchmem ./...

# Fuzz every public-surface target for FUZZTIME each: regex parsing,
# inference, synthesized hashes on arbitrary keys, the bijective
# container's off-format guard, the hardware kernels against their
# bit-at-a-time references, the plan wire decoder on arbitrary frames
# (the serving plane's trust boundary), the flat container table
# against its slice-per-bucket reference model, and sepeserve's
# one-pass hash request scan against encoding/json.
fuzz:
	$(GO) test -fuzz=FuzzParseRegex -fuzztime=$(FUZZTIME) -run '^$$' .
	$(GO) test -fuzz=FuzzInfer -fuzztime=$(FUZZTIME) -run '^$$' .
	$(GO) test -fuzz=FuzzSynthesizedHash -fuzztime=$(FUZZTIME) -run '^$$' .
	$(GO) test -fuzz=FuzzBijectiveReject -fuzztime=$(FUZZTIME) -run '^$$' .
	$(GO) test -fuzz=FuzzSeededSynthesize -fuzztime=$(FUZZTIME) -run '^$$' .
	$(GO) test -fuzz=FuzzCompositionOps -fuzztime=$(FUZZTIME) -run '^$$' .
	$(GO) test -fuzz=FuzzPextHW -fuzztime=$(FUZZTIME) -run '^$$' ./internal/pext/
	$(GO) test -fuzz=FuzzAesRoundHW -fuzztime=$(FUZZTIME) -run '^$$' ./internal/aesround/
	$(GO) test -fuzz=FuzzPlanDecode -fuzztime=$(FUZZTIME) -run '^$$' ./internal/wire/
	$(GO) test -fuzz=FuzzTableOps -fuzztime=$(FUZZTIME) -run '^$$' ./internal/container/
	$(GO) test -fuzz=FuzzHashRequest -fuzztime=$(FUZZTIME) -run '^$$' ./cmd/sepeserve/

# Regenerate every table and figure of the paper at full cost
# (≈25 minutes; writes results_full.txt and results_grid.csv).
repro:
	$(GO) run ./cmd/sepebench -exp all -samples 10 -csv results_grid.csv | tee results_full.txt

# Fast smoke reproduction (≈1 minute).
repro-quick:
	$(GO) run ./cmd/sepebench -exp all -quick

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/ssnindex
	$(GO) run ./examples/netinventory
	$(GO) run ./examples/weblog
	$(GO) run ./examples/invertible
	$(GO) run ./examples/observed -dur 2s -addr 127.0.0.1:0
	$(GO) run ./examples/adaptive
	$(GO) run ./examples/concurrent
	$(GO) run ./examples/dashboard -dur 2s -drift-after 500ms -addr 127.0.0.1:0
	$(GO) run ./cmd/sepetop -once

# Refresh the codegen golden files after an intended emitter change.
golden:
	$(GO) test ./internal/codegen -run TestGolden -update

# End-to-end smoke of the sepeserve daemon against a real socket:
# register → poll ready → hash → export → restart → warm-start from
# the plan cache → import → graceful shutdown. CI runs the same script.
serve-smoke:
	./scripts/serve_smoke.sh

clean:
	rm -f results_full.txt results_full.err results_grid.csv test_output.txt bench_output.txt
