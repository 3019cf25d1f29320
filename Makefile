# Local targets mirroring the CI jobs, so `make lint test` before pushing
# means the blocking jobs will pass.

GO ?= go
STATICCHECK_VERSION ?= 2024.1.1

.PHONY: all build test race shuffle lint vet staticcheck optolint lint-mutation simdebug perfbench ci bench-snapshot dse-smoke identity inline-diff

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# CI runs the suite shuffled; reproduce an ordering failure locally with
# `go test -shuffle=<seed> <pkg>` using the seed the failing run printed.
shuffle:
	$(GO) test -shuffle=on ./...

# lint is the blocking static-analysis bundle: vet, staticcheck (skipped
# with a warning when the binary is absent — the toolchain cannot fetch it
# offline), the project's own optolint analyzers over both build flavours,
# and the mutation harness proving each completeness analyzer fires.
lint: vet staticcheck optolint lint-mutation

vet:
	$(GO) vet ./...

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

# optolint runs the suite over the default build and the simdebug build:
# debug-only sources carry sim-core obligations too.
optolint:
	$(GO) run ./cmd/optolint ./...
	$(GO) run ./cmd/optolint -tags simdebug ./...

# lint-mutation re-proves the completeness analyzers can still fire: each
# case mutates a clean fixture (dropped export field, dropped state record,
# unmerged counter, unstaged cross-shard write) and requires a report.
lint-mutation:
	$(GO) test ./internal/lint -run TestMutations -count=1

# simdebug builds and tests with the runtime assertion layer compiled in:
# wheel monotonicity and skip legality, router credit conservation, the
# periodic network audit, and the core warmup/measure bracket audits. It
# covers every step of CI's simdebug-chaos job, including the invariance
# matrix under the cross-shard scheduling assertions.
simdebug:
	$(GO) build -tags simdebug ./...
	$(GO) test -tags simdebug ./internal/sim ./internal/router ./internal/core -count=1
	$(GO) test -tags simdebug ./internal/network -run 'Chaos|Fault|Audit|Recovery' -count=1
	$(GO) test -tags simdebug ./internal/network -run 'Invariance|Golden|Policy' -count=1

# perfbench is a nested module, so `go test ./...` never compiles it; vet
# and test it on its own so an API change cannot break the benchmark while
# the main suite stays green.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

ci: build shuffle lint simdebug race perfbench dse-smoke

# bench-snapshot records the hot-path benchmarks into a benchstat-compatible
# JSON snapshot. Set BENCH_LABEL to distinguish runs (e.g. pre-parallel /
# post-parallel) within the same snapshot file:
#   make bench-snapshot BENCH_OUT=BENCH_6.json BENCH_LABEL=post-parallel
BENCH_OUT ?= BENCH.json
BENCH_LABEL ?= local
BENCH_PATTERN ?= Step|Build|LevelHistogram

bench-snapshot:
	$(GO) test -run NONE -bench '$(BENCH_PATTERN)' -benchmem ./internal/network | \
		$(GO) run ./cmd/benchsnap -out $(BENCH_OUT) -label $(BENCH_LABEL)

# dse-smoke mirrors the CI job: the committed 8-trial grid study must
# reproduce the committed golden frontier byte for byte, and a rerun over
# the finished study directory must re-evaluate nothing and append nothing
# to its trial log.
DSE_SMOKE_DIR ?= /tmp/optodse-smoke

dse-smoke:
	rm -rf $(DSE_SMOKE_DIR)
	$(GO) run ./cmd/optodse -space internal/dse/testdata/smoke-space.json -out $(DSE_SMOKE_DIR)
	cmp $(DSE_SMOKE_DIR)/frontier.json internal/dse/testdata/smoke-frontier.json
	cp $(DSE_SMOKE_DIR)/trials.jsonl $(DSE_SMOKE_DIR)/trials.jsonl.before
	$(GO) run ./cmd/optodse -space internal/dse/testdata/smoke-space.json -out $(DSE_SMOKE_DIR) | \
		grep -q '8 trials (0 fresh, 8 cached)'
	cmp $(DSE_SMOKE_DIR)/trials.jsonl.before $(DSE_SMOKE_DIR)/trials.jsonl
	cmp $(DSE_SMOKE_DIR)/frontier.json internal/dse/testdata/smoke-frontier.json

# identity checks that the working tree prints byte for byte what BASE
# (default HEAD) prints: it builds optosim from `git archive $(BASE)` and
# from the working tree, runs the fault, reroute and policy studies as JSON
# and the Lu and predictor ablations under every adaptive policy, drops the
# `# ... done in` timing lines, and stops at the first difference.
#   make identity BASE=<rev>
BASE ?= HEAD
IDENTITY_RUNS = '-json -seed 7 faults reroute policies' \
	'-policy dvs ablation-lu ablation-predictor' \
	'-policy rules ablation-lu ablation-predictor' \
	'-policy pid ablation-lu ablation-predictor'

identity:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	mkdir "$$tmp/base" && git archive $(BASE) | tar -x -C "$$tmp/base" && \
	(cd "$$tmp/base" && $(GO) build -o "$$tmp/optosim-base" ./cmd/optosim) && \
	$(GO) build -o "$$tmp/optosim-work" ./cmd/optosim && \
	for run in $(IDENTITY_RUNS); do \
		echo "identity: optosim $$run"; \
		for side in base work; do \
			"$$tmp/optosim-$$side" $$run > "$$tmp/$$side.raw" || exit 1; \
			grep -v '^# .* done in ' "$$tmp/$$side.raw" > "$$tmp/$$side.out"; \
		done; \
		if ! cmp -s "$$tmp/base.out" "$$tmp/work.out"; then \
			diff "$$tmp/base.out" "$$tmp/work.out" | head -20; \
			echo "identity: optosim $$run differs from $(BASE)"; exit 1; \
		fi; \
	done && echo "identity: byte-identical to $(BASE)"

# inline-diff checks that the working tree keeps every hot-path inlining
# decision BASE (default HEAD) had: it builds the sim-core packages with
# -gcflags=-m=2 from `git archive $(BASE)` and from the working tree, and
# fails on any function present in both that BASE inlined and the working
# tree reports as `cannot inline` (a cost pushed over the budget, say).
#   make inline-diff BASE=<rev>
INLINE_PKGS = ./internal/sim ./internal/router ./internal/powerlink ./internal/network ./internal/policy
INLINE_DECISIONS = sed -n -E \
	-e 's\#^(\./)?(.+)/[^/]+\.go:[0-9]+:[0-9]+: can inline ([^ ]+) with (cost [0-9]+).*\#\2 \3	can	\4\#p' \
	-e 's\#^(\./)?(.+)/[^/]+\.go:[0-9]+:[0-9]+: cannot inline ([^ :]+): (.*)\#\2 \3	cannot	\4\#p'

inline-diff:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	mkdir "$$tmp/base" && git archive $(BASE) | tar -x -C "$$tmp/base" && \
	(cd "$$tmp/base" && $(GO) build -gcflags=-m=2 $(INLINE_PKGS) 2>&1) | $(INLINE_DECISIONS) > "$$tmp/base.txt" && \
	$(GO) build -gcflags=-m=2 $(INLINE_PKGS) 2>&1 | $(INLINE_DECISIONS) > "$$tmp/work.txt" && \
	test -s "$$tmp/base.txt" && test -s "$$tmp/work.txt" && \
	awk -F '\t' 'NR == FNR { if ($$2 == "can") base[$$1] = $$3; next } \
		$$2 == "cannot" && ($$1 in base) { printf "inline-diff: %s inlined at $(BASE) (%s), now %s\n", $$1, base[$$1], $$3; bad = 1 } \
		END { exit bad }' "$$tmp/base.txt" "$$tmp/work.txt" && \
	echo "inline-diff: every function $(BASE) inlined is still inlined ($$(grep -c '	can	' "$$tmp/work.txt") inlinable)"
