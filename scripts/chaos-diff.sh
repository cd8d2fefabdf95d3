#!/bin/sh
# chaos-diff — the parent as the oracle of a change that must not move
# the fleet simulator: build seccloud-sim once at PARENT and once from the
# working tree, run the same two chaos sweeps on both sides, and diff
# their outputs. The sweeps are a 40-seed clean sweep from seed 1 and a
# 20-seed tampered sweep from seed 3; the simulator is seed-deterministic,
# so any difference is a change in behaviour.
#
#   scripts/chaos-diff.sh PARENT
#
# (`make chaos-diff PARENT=<rev>`.) Exits nonzero on any difference, and
# prints it. PARENT is unpacked with `git archive` into a temporary
# directory, which is removed on exit along with both binaries and every
# run's output.
set -eu

if [ $# -ne 1 ]; then
	echo "usage: $0 PARENT" >&2
	exit 2
fi
parent=$1
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/chaos-diff.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

mkdir "$tmp/parent"
git -C "$root" archive "$parent" | tar -x -C "$tmp/parent"
echo "building seccloud-sim at $parent and at the working tree"
${GO:-go} build -C "$tmp/parent" -o "$tmp/parent.bin" ./cmd/seccloud-sim
${GO:-go} build -C "$root" -o "$tmp/change.bin" ./cmd/seccloud-sim

status=0
# sweep NAME ARGS…: run both sides with ARGS and diff their outputs. The
# exit status is part of the output: a sweep that fails on both sides
# fails the same way, and that is no difference.
sweep() {
	name=$1
	shift
	for side in parent change; do
		if "$tmp/$side.bin" "$@" >"$tmp/$side.$name" 2>&1; then
			echo "exit 0" >>"$tmp/$side.$name"
		else
			echo "exit $?" >>"$tmp/$side.$name"
		fi
	done
	if diff "$tmp/parent.$name" "$tmp/change.$name"; then
		echo "$name: no difference ($*)"
	else
		echo "$name: the working tree differs from $parent ($*)" >&2
		status=1
	fi
}

sweep clean -chaos -chaos-seed 1 -chaos-runs 40
sweep tamper -chaos -chaos-seed 3 -chaos-runs 20 -chaos-tamper
exit $status
