#!/usr/bin/env bash
# Alternating parent/change pairs of the BENCHMARK.json workloads: the
# protocol a timing claim is made with (benchmark/README.md).
#
#   bash pairs.sh [-n N] [-s SECONDS] [-w "WORKLOAD..."] BASE [HEAD]
#
# (or `make pairs BASE=<rev> [HEAD=<rev>] [N=10] [WORKLOADS=…]
# [SECONDS=…]`). Both revisions' committed files are exported to a
# temporary directory outside the checkout, and each builds its own
# benchmark there (benchmark/run.sh). Pair i runs every workload once
# per side with seed i, the side that goes first alternating from one
# pair to the next. For every end-to-end metric the report gives the
# quartiles and median of each side, base → head, and how many pairs
# the head won (ties are not wins); it also totals the failed operations.
set -euo pipefail

n=10 secs=5 workloads=
while getopts n:s:w: opt; do
	case $opt in
	n) n=$OPTARG ;;
	s) secs=$OPTARG ;;
	w) workloads=$OPTARG ;;
	*) exit 2 ;;
	esac
done
shift $((OPTIND - 1))
if [ $# -lt 1 ] || [ $# -gt 2 ]; then
	echo "usage: pairs.sh [-n N] [-s SECONDS] [-w \"WORKLOAD...\"] BASE [HEAD]" >&2
	exit 2
fi
root=$(git rev-parse --show-toplevel)
base=$(git -C "$root" rev-parse --short "$1^{commit}")
head=$(git -C "$root" rev-parse --short "${2:-HEAD}^{commit}")

tmp=$(mktemp -d "${TMPDIR:-/tmp}/simfs-pairs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
for side in base head; do
	mkdir -p "$tmp/$side"
	git -C "$root" archive "${!side}" | tar -x -C "$tmp/$side"
done
if [ -z "$workloads" ]; then
	workloads=$(sed -n '/"workloads"/,/]/s/.*"name": *"\([^"]*\)".*/\1/p' "$tmp/head/BENCHMARK.json")
fi
# better[metric] is "lower" or "higher", from the head's BENCHMARK.json.
better=$(awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
	on && /"name"/ { gsub(/.*"name": *"|".*/, ""); name = $0 }
	on && /"better"/ { gsub(/.*"better": *"|".*/, ""); print name, $0 }' "$tmp/head/BENCHMARK.json")

# run SIDE WORKLOAD SEED stores the run's result line as $tmp/out/SIDE.WORKLOAD.SEED.
mkdir -p "$tmp/out"
run() {
	local line
	line=$(cd "$tmp/$1" && bash benchmark/run.sh --workload "$2" --seed "$3" --seconds "$secs" --trace 0 | tail -n 1) || true
	case $line in
	'{'*) printf '%s\n' "$line" >"$tmp/out/$1.$2.$3" ;;
	*) echo "pairs: $1 ($2, seed $3) printed no result: $line" >&2; exit 1 ;;
	esac
}
for w in $workloads; do
	for i in $(seq 1 "$n"); do
		if [ $((i % 2)) -eq 1 ]; then first=base second=head; else first=head second=base; fi
		echo "pairs: $w seed $i: $first first" >&2
		run $first "$w" "$i"
		run $second "$w" "$i"
	done
done

# value SIDE WORKLOAD METRIC prints the metric of every run, one per line
# in seed order.
value() {
	for i in $(seq 1 "$n"); do
		sed -n "s/.*\"$3\":{\"value\":\([^,}]*\).*/\1/p" "$tmp/out/$1.$2.$i"
	done
}
# quartiles reads numbers and prints q1 median q3 as Python's
# statistics.quantiles(n=4) does (the exclusive method).
quartiles() {
	sort -g | awk '{ x[NR] = $1 } END {
		if (NR < 2) { printf "%.6g %.6g %.6g", x[1], x[1], x[1]; exit }
		for (i = 1; i <= 3; i++) {
			j = int(i * (NR + 1) / 4); if (j < 1) j = 1; if (j > NR - 1) j = NR - 1
			d = i * (NR + 1) - 4 * j
			printf "%.6g ", (x[j] * (4 - d) + x[j + 1] * d) / 4
		} }'
}
# failed SIDE WORKLOAD totals the failed operations of the side's runs.
failed() {
	cat "$tmp/out/$1.$2."* | sed -n 's/.*"failed":\([0-9]*\).*/\1/p' | awk '{ s += $1 } END { print s + 0 }'
}
echo "pairs: base $base → head $head, $n pairs of $secs s per workload (q1 median q3)"
for w in $workloads; do
	echo "$w: failed operations $(failed base "$w") → $(failed head "$w")"
	while read -r metric dir; do
		[ -n "$(value base "$w" "$metric")" ] || continue
		wins=$(paste <(value base "$w" "$metric") <(value head "$w" "$metric") |
			awk -v dir="$dir" '(dir == "lower" && $2 < $1) || (dir == "higher" && $2 > $1) { k++ } END { print k + 0 }')
		printf '  %-20s %-32s → %-32s head wins %d/%d\n' "$metric" \
			"$(value base "$w" "$metric" | quartiles)" "$(value head "$w" "$metric" | quartiles)" "$wins" "$n"
	done <<<"$better"
done
