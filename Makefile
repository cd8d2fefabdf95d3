# SecCloud build/verify targets.
#
# `make check` is the tier-1 gate with the race detector wired in:
# vet + build + race-enabled tests across every package.

GO ?= go

.PHONY: check build test race vet loc fuzz fuzz-decoders fuzz-crypto cover-crypto bench bench-pairs bench-audit bench-chaos

check: vet build race

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# go vet, and gofmt as a check: any file gofmt would rewrite fails the
# target (and with it `make check` and CI) with the file names printed.
# scripts/check-refs.sh then fails on a `pkg.Identifier` in the docs that
# the package does not declare, or a CI -run pattern that matches no test.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	@sh scripts/check-refs.sh

# Non-test and test Go lines per package directory, with a total — the
# two numbers every PR reports separately (bench/ is a module of its own
# and is listed too).
loc:
	@for d in $$(find . -name '*.go' -exec dirname {} \; | sort -u); do \
		echo $$d \
			$$(cat /dev/null $$(ls $$d/*.go | grep -v _test.go) | wc -l) \
			$$(cat /dev/null $$(ls $$d/*_test.go 2>/dev/null) | wc -l); \
	done | awk 'BEGIN { printf "%-28s %7s %7s\n", "package", "code", "test" } \
		{ printf "%-28s %7d %7d\n", $$1, $$2, $$3; code += $$2; test += $$3 } \
		END { printf "%-28s %7d %7d\n", "total", code, test }'

# Short fuzz pass over the wire codec (the corruption injector's attack
# surface), the WAL record decoder (what a torn or bit-rotted log feeds
# into recovery), the snapshot decoder (what a FaultFS-rotted snapshot
# file feeds into it), the evidence decoder and the chaos schedule
# grammar (what every printed repro line replays through); extend
# -fuzztime locally for deeper runs.
fuzz: fuzz-decoders fuzz-crypto

fuzz-decoders:
	$(GO) test ./internal/wire -fuzz FuzzDecode -fuzztime 10s
	$(GO) test ./internal/wire -fuzz FuzzReadMessage -fuzztime 10s
	$(GO) test ./internal/wire -fuzz FuzzHandshake -fuzztime 10s
	$(GO) test ./internal/store -fuzz FuzzReadRecord -fuzztime 10s
	$(GO) test ./internal/store -fuzz FuzzDecodeSnapshot -fuzztime 10s
	$(GO) test ./internal/core -fuzz FuzzDecodeEvidence -fuzztime 10s
	$(GO) test ./internal/chaos -run '^$$' -fuzz 'FuzzParseSchedule$$' -fuzztime 10s

# Differential fuzz of the Montgomery-limb kernels against the math/big
# code they replaced, one target a layer: field operations, the windowed
# ladders against the binary ladder, the projective Miller loop (cold,
# replayed and interleaved) against the affine one, and table-driven
# signing against the paper's two multiplications and a pairing.
fuzz-crypto:
	$(GO) test ./internal/mont -run '^$$' -fuzz 'FuzzFieldOps$$' -fuzztime 10s
	$(GO) test ./internal/curve -run '^$$' -fuzz 'FuzzScalarMult$$' -fuzztime 10s
	$(GO) test ./internal/curve -run '^$$' -fuzz 'FuzzSumScalarMult$$' -fuzztime 10s
	$(GO) test ./internal/pairing -run '^$$' -fuzz 'FuzzPair$$' -fuzztime 10s
	$(GO) test ./internal/dvs -run '^$$' -fuzz 'FuzzSignDesignated$$' -fuzztime 10s

# Statement coverage of the arithmetic every signature and verdict rests
# on, held at the 90 % bar (a failing test reads as 0 %).
cover-crypto:
	@for p in mont ff curve pairing; do \
		pct=$$($(GO) test -cover ./internal/$$p | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		echo "internal/$$p: $${pct:-0}% of statements"; \
		awk -v p="$${pct:-0}" 'BEGIN { exit !(p >= 90) }' || { echo "internal/$$p is below 90% statement coverage"; exit 1; }; \
	done

bench:
	$(GO) test -bench . -benchtime 1x ./...

# Alternating parent/change pairs of one bench/ workload, the protocol a
# perf claim is held to (BENCHMARK.json): medians, quartiles, the ratio
# and the change's win count per metric. Leaves no file behind.
#   make bench-pairs PARENT=<rev> WORKLOAD=<name> SEED=<n> PAIRS=10
PAIRS ?= 10
SEED ?= 1
bench-pairs:
	@test -n "$(PARENT)" -a -n "$(WORKLOAD)" || { echo "usage: make bench-pairs PARENT=<rev> WORKLOAD=<name> [SEED=1] [PAIRS=10]"; exit 2; }
	sh scripts/bench-pairs.sh $(PARENT) $(WORKLOAD) $(SEED) $(PAIRS)

# Audit-pipeline benchmarks: worker-pool scaling on a latent link, the
# O(t) sampler's allocations, the fixed-argument pairing cache and the
# aggregate signature check.
bench-audit:
	$(GO) test -run '^$$' -bench 'BenchmarkAuditPipeline|BenchmarkSampleIndices' -benchmem -benchtime 3x ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkPairPrecomp' -benchmem ./internal/pairing
	$(GO) test -run '^$$' -bench 'BenchmarkVerifyDesignated|BenchmarkBatchVerify' -benchmem ./internal/dvs

# Chaos gate: 200 seeded composed disk/network/clock/process fault
# schedules through seccloud-sim -chaos (zero false flags, every invariant
# green), then every third seed again with a real cheating replica, which
# must be convicted. Any miss exits nonzero.
bench-chaos:
	GO=$(GO) sh scripts/bench-chaos.sh
