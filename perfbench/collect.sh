#!/usr/bin/env bash
# Collects benchmark runs of one or more checkouts into the layout benchcmp
# reads: OUT_DIR/<i>/<workload>/seedNNN.json for the i-th checkout.
#
#   bash perfbench/collect.sh OUT_DIR TRACE WORKLOAD[,WORKLOAD...] "SEED..." CHECKOUT...
#   bash perfbench/collect.sh /tmp/cmp 0 tpch-cold,serve-zipf,point-lookup "$(seq 1 10)" old new
#   (cd new/perfbench && go run ./benchcmp -bench ../BENCHMARK.json /tmp/cmp/1 /tmp/cmp/2)
#
# A CHECKOUT is the root of a source tree that holds BENCHMARK.json and
# perfbench/. The checkouts take turns run by run, for every seed and
# workload, and the one that goes first rotates with the seed, so drift of
# the machine falls on every side alike. Every run lasts run_seconds of
# BENCHMARK.json, on which the checkouts must agree.
set -euo pipefail

if [ $# -lt 5 ]; then
	sed -n 's/^#   //p' "$0" >&2
	exit 2
fi
out=$1 trace=$2 workloads=$3 seeds=$4
shift 4
dirs=()
secs=
for d in "$@"; do
	d=$(cd "$d" && pwd)
	s=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$d/BENCHMARK.json")
	if [ -z "$s" ] || { [ -n "$secs" ] && [ "$s" != "$secs" ]; }; then
		echo "collect.sh: $d: run_seconds '$s' is missing or differs from $secs" >&2
		exit 2
	fi
	secs=$s
	dirs+=("$d")
done
mkdir -p "$out"
out=$(cd "$out" && pwd)

n=${#dirs[@]} k=0
for seed in $seeds; do
	for w in ${workloads//,/ }; do
		for ((j = 0; j < n; j++)); do
			i=$(((k + j) % n))
			dst="$out/$((i + 1))/$w"
			mkdir -p "$dst"
			f="$dst/seed$(printf %03d "$seed")"
			# a failed run is left for benchcmp to report; the others go on
			(cd "${dirs[i]}" && bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$secs" --trace "$trace") \
				>"$f.json" 2>"$f.log" || echo "collect.sh: $f.json: run exited $?" >&2
		done
	done
	k=$((k + 1))
done
