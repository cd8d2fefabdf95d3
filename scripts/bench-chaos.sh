#!/bin/sh
# bench-chaos — the 200-seed chaos gate, run through seccloud-sim: every
# composed-fault schedule of seeds 1..200 must end with zero false flags
# and every invariant green, and every third seed (3, 6, …, 198) must
# convict the cheating replica when rerun with -chaos-tamper. About half
# the seeds deal the DA's key 2-of-3 to share-holders, and about a quarter
# drain tenant traffic (with -chaos-tamper, beside a rotted tenant that
# must be convicted too): at least one clean and one convicted tampered
# seed must have run each. Any miss prints that run's output and exits
# nonzero.
#
#   scripts/bench-chaos.sh        (`make bench-chaos`)
#
# seccloud-sim is built once into a temporary directory, which is removed
# on exit along with every run's output.
set -eu

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench-chaos.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

${GO:-go} build -C "$root" -o "$tmp/seccloud-sim" ./cmd/seccloud-sim

# fail OUT MSG: print the run's output and the reason, then exit 1.
fail() {
	cat "$1"
	echo "bench-chaos: $2" >&2
	exit 1
}

"$tmp/seccloud-sim" -chaos -chaos-seed 1 -chaos-runs 200 > "$tmp/clean.out" ||
	fail "$tmp/clean.out" "the 200-seed sweep exited nonzero"
grep -q '^false flags: 0 ' "$tmp/clean.out" || fail "$tmp/clean.out" "the 200-seed sweep raised false flags"
grep -q '^invariants: ok$' "$tmp/clean.out" || fail "$tmp/clean.out" "the 200-seed sweep broke an invariant"
quorums=$(sed -n 's/^quorum runs: \([0-9]*\) .*/\1/p' "$tmp/clean.out")
[ "${quorums:-0}" -ge 1 ] || fail "$tmp/clean.out" "no clean seed ran a quorum"
tenant_runs=$(sed -n 's/^tenant runs: \([0-9]*\) .*/\1/p' "$tmp/clean.out")
[ "${tenant_runs:-0}" -ge 1 ] || fail "$tmp/clean.out" "no clean seed ran tenants"

tampered=0
tampered_quorums=0
tampered_tenants=0
for seed in $(seq 3 3 198); do
	out="$tmp/tamper-$seed.out"
	"$tmp/seccloud-sim" -chaos -chaos-seed "$seed" -chaos-tamper > "$out" ||
		fail "$out" "tampered seed $seed exited nonzero"
	grep -q '^false flags: 0 .* 1/1 tampered runs detected$' "$out" ||
		fail "$out" "tampered seed $seed raised a false flag or missed the cheater"
	grep -q '^invariants: ok$' "$out" || fail "$out" "tampered seed $seed broke an invariant"
	tampered=$((tampered + 1))
	if grep -q '^quorum runs: 1 ' "$out"; then
		tampered_quorums=$((tampered_quorums + 1))
	fi
	if grep -q '^tenant runs: 1 ' "$out"; then
		grep -Eq 'tenant detections: [1-9]' "$out" || fail "$out" "tampered seed $seed never convicted its rotted tenant"
		tampered_tenants=$((tampered_tenants + 1))
	fi
done
[ "$tampered_quorums" -ge 1 ] || {
	echo "bench-chaos: no convicted tampered seed ran a quorum" >&2
	exit 1
}
[ "$tampered_tenants" -ge 1 ] || {
	echo "bench-chaos: no convicted tampered seed ran tenants" >&2
	exit 1
}

echo "bench-chaos: 200 schedules clean (0 false flags, invariants ok; $quorums ran a quorum, $tenant_runs ran tenants); $tampered/$tampered tampered schedules convicted ($tampered_quorums ran a quorum, $tampered_tenants ran tenants)"
