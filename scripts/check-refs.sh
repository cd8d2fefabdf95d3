#!/bin/sh
# check-refs — fail when the docs or CI name code that is not there:
#
#  1. every backticked `pkg.Identifier` in README.md, DESIGN.md and
#     EXPERIMENTS.md whose pkg is a directory under internal/ must name a
#     func, method, type, var or const declared in that package's non-test
#     files (Test*, Benchmark* and Fuzz* names in its test files);
#  2. every alternative of every `go test … -run '…'` pattern in
#     .github/workflows/ci.yml must match a func Test… in the packages
#     that step names — a pattern that matches nothing passes silently;
#  3. every `go test ./pkg … -fuzz …` pattern in the Makefile and in
#     .github/workflows/ci.yml must match exactly one func Fuzz… in that
#     package — one that matches nothing prints PASS and fuzzes nothing.
#
#   scripts/check-refs.sh        (run by `make vet`, so by `make check`)
set -eu

cd "$(git rev-parse --show-toplevel)"
status=0

# declared DIR NAME: whether a Go file in DIR declares NAME at top level
# (grouped const/var/type blocks included) or as a method. Test, Benchmark
# and Fuzz names are looked up in the test files, every other name in the
# rest.
declared() {
	case $2 in
	Test* | Benchmark* | Fuzz*) files=$(ls "$1"/*_test.go 2>/dev/null || true) ;;
	*) files=$(ls "$1"/*.go 2>/dev/null | grep -v '_test\.go$' || true) ;;
	esac
	[ -n "$files" ] || return 1
	# shellcheck disable=SC2086 # one word per file name
	awk -v id="$2" '
		/^(const|var|type) \($/ { grouped = 1; next }
		grouped && /^\)/ { grouped = 0; next }
		grouped && $1 == id { found = 1 }
		$1 ~ /^(const|var|type)$/ && ($2 == id || index($2, id "[") == 1) { found = 1 }
		$1 == "func" && $0 ~ "^func (\\([^)]*\\) )?" id "[[(]" { found = 1 }
		END { exit !found }
	' $files
}

pkgs=$(ls internal | tr '\n' '|' | sed 's/|$//')
refs=$(grep -ohE "\`($pkgs)\.[A-Z][A-Za-z0-9_]*" README.md DESIGN.md EXPERIMENTS.md | tr -d '`' | sort -u)
for ref in $refs; do
	if ! declared "internal/${ref%%.*}" "${ref#*.}"; then
		echo "check-refs: docs name \`$ref\`, which internal/${ref%%.*} does not declare" >&2
		status=1
	fi
done

# Each `go test … -run 'A|B|…' ./pkg …` line of the workflow: every
# alternative must match at least one test func of the listed packages.
runs=$(grep "go test.* -run '" .github/workflows/ci.yml || true)
while IFS= read -r line; do
	[ -n "$line" ] || continue
	pattern=$(printf '%s\n' "$line" | sed -n "s/.* -run '\([^']*\)'.*/\1/p")
	dirs=$(printf '%s\n' "$line" | grep -oE '\./[A-Za-z0-9_./-]+' | tr '\n' ' ')
	# shellcheck disable=SC2086 # one word per package directory
	tests=$(for d in $dirs; do cat "$d"/*_test.go; done | sed -n 's/^func \(Test[A-Za-z0-9_]*\)(.*/\1/p')
	old_ifs=$IFS
	IFS='|'
	for alt in $pattern; do
		if ! printf '%s\n' "$tests" | grep -Eq -- "$alt"; then
			echo "check-refs: ci.yml -run alternative '$alt' matches no test in $dirs" >&2
			status=1
		fi
	done
	IFS=$old_ifs
done <<LINES
$runs
LINES

# Each `go test ./pkg … -fuzz PATTERN` line of the Makefile and the
# workflow, PATTERN quoted or bare and Make's $$ read as $: it must match
# exactly one fuzz target of the line's package, as go test requires.
fuzzes=$(grep -h "test .* -fuzz " Makefile .github/workflows/ci.yml || true)
while IFS= read -r line; do
	[ -n "$line" ] || continue
	pattern=$(printf '%s\n' "$line" | sed -n "s/.* -fuzz '\{0,1\}\([^' ]*\).*/\1/p" | sed 's/\$\$/$/g')
	dir=$(printf '%s\n' "$line" | grep -oE '\./[A-Za-z0-9_./-]+' | head -n 1)
	targets=$(cat "$dir"/*_test.go | sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p')
	n=$(printf '%s\n' "$targets" | grep -cE -- "$pattern" || true)
	if [ "$n" -ne 1 ]; then
		echo "check-refs: -fuzz '$pattern' matches $n fuzz targets in $dir, want 1" >&2
		status=1
	fi
done <<LINES
$fuzzes
LINES

exit $status
