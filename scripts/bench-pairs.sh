#!/bin/sh
# bench-pairs — the alternating parent/change protocol a perf claim is held
# to: build the benchmark once at PARENT and once from the working tree,
# run PAIRS pairs of the same workload and seed, swapping which side goes
# first each pair, and print per metric each side's median and quartiles,
# the ratio of the medians (change / parent) and how many pairs the change
# won in the metric's direction from BENCHMARK.json.
#
#   scripts/bench-pairs.sh PARENT WORKLOAD SEED PAIRS
#
# (`make bench-pairs PARENT=<rev> WORKLOAD=<name> SEED=<n> PAIRS=10`.)
# Run length is the benchmark's own default, the same on both sides.
# PARENT is unpacked with `git archive` into a temporary directory, which
# is removed on exit along with both binaries and every run's scratch.
set -eu

if [ $# -ne 4 ]; then
	echo "usage: $0 PARENT WORKLOAD SEED PAIRS" >&2
	exit 2
fi
parent=$1 workload=$2 seed=$3 pairs=$4
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

mkdir "$tmp/parent" "$tmp/out"
git -C "$root" archive "$parent" | tar -x -C "$tmp/parent"
echo "building the benchmark at $parent and at the working tree"
go build -C "$tmp/parent/bench" -o "$tmp/parent.bin" .
go build -C "$root/bench" -o "$tmp/change.bin" .

# run SIDE PAIR: one run, its metric lines appended to $tmp/runs as
# "side pair metric value".
run() {
	dir=$root/bench
	[ "$1" = parent ] && dir=$tmp/parent/bench
	if ! (cd "$dir" && "$tmp/$1.bin" -workload "$workload" -seed "$seed" \
		-trace 0 -out "$tmp/out") >"$tmp/last" 2>&1; then
		echo "$1 run of pair $2 failed:" >&2
		cat "$tmp/last" >&2
		exit 1
	fi
	awk -v side="$1" -v pair="$2" '$1 == "metric" { print side, pair, $2, $3 }' "$tmp/last" >>"$tmp/runs"
}

: >"$tmp/runs"
i=1
while [ "$i" -le "$pairs" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$i"
		run change "$i"
	else
		run change "$i"
		run parent "$i"
	fi
	echo "pair $i of $pairs done"
	i=$((i + 1))
done

echo
echo "$workload seed=$seed: $pairs pairs, parent=$parent vs working tree"
# BENCHMARK.json is read for each metric's direction: a "name" line, then
# its "better" line.
awk '
FNR == NR {
	if (match($0, /"name": *"[^"]*"/)) { split(substr($0, RSTART, RLENGTH), f, "\""); name = f[4] }
	if (match($0, /"better": *"[^"]*"/)) { split(substr($0, RSTART, RLENGTH), f, "\""); better[name] = f[4] }
	next
}
{
	side = $1; pair = $2; m = $3
	v[side, m, ++n[side, m]] = $4
	at[side, m, pair] = $4
	if (!(m in seen)) { seen[m] = 1; names[++nm] = m }
	if (pair > pairs) pairs = pair
}
function pct(side, m, p,    k, i, j, t, s, pos, lo, hi) {
	k = n[side, m]
	for (i = 1; i <= k; i++) s[i] = v[side, m, i]
	for (i = 2; i <= k; i++) { t = s[i]; for (j = i - 1; j >= 1 && s[j] > t; j--) s[j + 1] = s[j]; s[j + 1] = t }
	pos = p * (k - 1) + 1; lo = int(pos); hi = (lo < k) ? lo + 1 : lo
	return s[lo] + (s[hi] - s[lo]) * (pos - lo)
}
END {
	printf "%-32s %12s %25s %12s %25s %7s %5s\n", "metric", "parent p50", "[p25, p75]", "change p50", "[p25, p75]", "ratio", "wins"
	for (i = 1; i <= nm; i++) {
		m = names[i]
		if (!n["parent", m] || !n["change", m]) continue
		a = pct("parent", m, 0.5); b = pct("change", m, 0.5)
		wins = "-"
		if (m in better) {
			w = 0
			for (p = 1; p <= pairs; p++) {
				x = at["parent", m, p]; y = at["change", m, p]
				if ((better[m] == "higher" && y > x) || (better[m] == "lower" && y < x)) w++
			}
			wins = w "/" pairs
		}
		printf "%-32s %12.6g %25s %12.6g %25s %7s %5s\n", m, a,
			sprintf("[%.6g, %.6g]", pct("parent", m, 0.25), pct("parent", m, 0.75)), b,
			sprintf("[%.6g, %.6g]", pct("change", m, 0.25), pct("change", m, 0.75)),
			(a != 0) ? sprintf("%.3f", b / a) : "-", wins
	}
}' "$root/BENCHMARK.json" "$tmp/runs"
