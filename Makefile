# SecCloud build/verify targets.
#
# `make check` is the tier-1 gate with the race detector wired in:
# vet + build + race-enabled tests across every package.

GO ?= go

.PHONY: check build test race vet loc fuzz fuzz-decoders fuzz-crypto cover-crypto bench bench-pairs bench-audit bench-recovery bench-fleet bench-overload bench-multitenant bench-threshold bench-chaos bench-daemon

check: vet build race

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# go vet, and gofmt as a check: any file gofmt would rewrite fails the
# target (and with it `make check` and CI) with the file names printed.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

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
# into recovery) and the snapshot decoder (what a FaultFS-rotted snapshot
# file feeds into it); extend -fuzztime locally for deeper runs.
fuzz: fuzz-decoders fuzz-crypto

fuzz-decoders:
	$(GO) test ./internal/wire -fuzz FuzzDecode -fuzztime 10s
	$(GO) test ./internal/wire -fuzz FuzzReadMessage -fuzztime 10s
	$(GO) test ./internal/wire -fuzz FuzzHandshake -fuzztime 10s
	$(GO) test ./internal/store -fuzz FuzzReadRecord -fuzztime 10s
	$(GO) test ./internal/store -fuzz FuzzDecodeSnapshot -fuzztime 10s
	$(GO) test ./internal/core -fuzz FuzzDecodeEvidence -fuzztime 10s

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
# O(t) sampler's allocations, and the fixed-argument pairing cache.
# Refreshes BENCH_parallel_audit.json via the seccloud-bench harness.
bench-audit:
	$(GO) test -run '^$$' -bench 'BenchmarkAuditPipeline|BenchmarkSampleIndices' -benchmem -benchtime 3x ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkPairPrecomp' -benchmem ./internal/pairing
	$(GO) test -run '^$$' -bench 'BenchmarkVerifyDesignated' -benchmem ./internal/dvs
	$(GO) run ./cmd/seccloud-bench -exp parallel-audit -params test256 -json BENCH_parallel_audit.json

# Crash-recovery benchmark: WAL restart time vs dataset size plus the
# four-point crash matrix with post-restart audits. Refreshes
# BENCH_crash_recovery.json.
bench-recovery:
	$(GO) run ./cmd/seccloud-bench -exp crash-recovery -params test256 -json BENCH_crash_recovery.json

# Fleet-robustness benchmark: audit availability vs killed replicas (with
# the no-failover analytic baseline) plus audit-driven repair latency vs
# corruption size. Refreshes BENCH_fleet_failover.json.
bench-fleet:
	$(GO) run ./cmd/seccloud-bench -exp fleet-failover -params test256 -json BENCH_fleet_failover.json

# Overload benchmark: goodput, tail latency, and audit integrity under an
# open-loop storm at 1x/2x/4x capacity, bounded LIFO admission vs the
# unbounded FIFO baseline, plus the hedged-round contrast. Refreshes
# BENCH_overload.json.
bench-overload:
	$(GO) run ./cmd/seccloud-bench -exp overload -params test256 -json BENCH_overload.json

# Multi-tenant benchmark: cross-user aggregate verification vs the
# per-user baseline across 10⁵–10⁶ registered identities under Zipf
# traffic, plus the determinism and blame-attribution cells. Refreshes
# BENCH_multitenant.json.
bench-multitenant:
	$(GO) run ./cmd/seccloud-bench -exp multitenant -params test256 -json BENCH_multitenant.json

# Threshold-agency benchmark: t-of-n audit quorums under rotating crash
# and Byzantine fault schedules, cross-checked against a single-DA
# reference (zero false flags, zero verdict mismatches). Refreshes
# BENCH_threshold.json.
bench-threshold:
	$(GO) run ./cmd/seccloud-bench -exp threshold -params test256 -json BENCH_threshold.json

# Chaos benchmark: 200 seeded composed disk/network/clock/process fault
# schedules checked by the invariant engine against fault-free reference
# replays (zero false flags, every invariant green, every real cheater
# detected), plus the shrinker demonstration that a planted violation
# minimizes to a byte-identical one-line repro. The acceptance gate is
# enforced: any failure exits nonzero. Refreshes BENCH_chaos.json.
bench-chaos:
	$(GO) run ./cmd/seccloud-bench -exp chaos -params test256 -json BENCH_chaos.json

# Daemon benchmark: real localhost TCP/TLS fleet under 50 ms simulated
# RTT — streamed challenge pipelining vs sequential rounds (gate: >= 1.5x
# throughput), graceful drain with every in-flight audit completing, zero
# false flags, byte-identical verdicts on netsim vs daemon transport, and
# the mutual-TLS identity cells. The acceptance gate is enforced: any
# failure exits nonzero. Refreshes BENCH_daemon.json.
bench-daemon:
	$(GO) run ./cmd/seccloud-bench -exp daemon -params test256 -json BENCH_daemon.json
