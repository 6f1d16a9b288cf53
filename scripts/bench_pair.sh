#!/usr/bin/env bash
# Paired benchmark runs of two versions of the repo: the way a performance
# claim is measured here (ROADMAP ground rules; timed metrics on a small box
# only agree within minutes, so sides alternate and medians are compared).
#
#   scripts/bench_pair.sh <parent> <change> [--workload w]... [--pairs n] [--seconds s]
#
# Each side is a git ref — checked out as a detached `git worktree` under a
# temp dir (honours TMPDIR) that is removed on exit — or a directory holding
# a checkout, used in place; the latter is how an uncommitted change is
# measured against a clone of its parent. For every workload (default: all of
# BENCHMARK.json's) and seed 1..n it runs
#   bash benchmark/run.sh --workload w --seed i --seconds s --trace 0
# on both sides, parent first on odd seeds and change first on even ones, and
# prints one markdown row per workload x end-to-end metric: parent median and
# IQR, change median and IQR, wins/ties, BENCHMARK.json's bound and a verdict.
# "better (disjoint)" / "WORSE (disjoint)" mean every change run beat / lost
# to every parent run, given at least 4 pairs (with fewer, two identical
# sides separate that completely in more than 1 run in 20: 2/C(2n,n)); a
# disjoint "WORSE" beyond the bound reads "WORSE beyond bound". Otherwise
# "unresolved" where the parent's own IQR exceeds the bound, and "better"
# only over at least 10 pairs, 9 in 10 won, by more than the parent's IQR
# (with one pair the IQR is 0 and any difference would pass). Exits non-zero
# if a run fails, reports failed ops or is not correct.
set -euo pipefail

usage() {
	echo "usage: scripts/bench_pair.sh <parent-ref|dir> <change-ref|dir> [--workload w]... [--pairs n] [--seconds s]" >&2
	exit 2
}

[ $# -ge 2 ] || usage
parent_ref=$1 change_ref=$2
shift 2
workloads="" pairs=10 seconds=16
while [ $# -gt 0 ]; do
	[ $# -ge 2 ] || usage
	case $1 in
	--workload) workloads="$workloads ${2//,/ }" ;;
	--pairs) pairs=$2 ;;
	--seconds) seconds=$2 ;;
	*) usage ;;
	esac
	shift 2
done

root=$(git rev-parse --show-toplevel)
spec="$root/BENCHMARK.json"
# BENCHMARK.json keeps one object per line inside its arrays.
field() { sed -n "s/.*\"$1\": *\"\{0,1\}\([^\",}]*\).*/\1/p"; }
section() { awk -v s="\"$1\"" '$0 ~ s {on=1; next} on && /^ *\]/ {exit} on' "$spec"; }
[ -n "$workloads" ] || workloads=$(section workloads | field name)
metrics=$(section end_to_end | field name)

tmp=$(mktemp -d)
worktrees=()
cleanup() {
	for wt in ${worktrees[@]+"${worktrees[@]}"}; do
		git -C "$root" worktree remove --force "$wt" || true
	done
	rm -rf "$tmp"
}
trap cleanup EXIT

# checkout <ref|dir> <name> sets $dir to the side's checkout.
checkout() {
	if [ -d "$1" ]; then
		dir=$(cd "$1" && pwd)
		return
	fi
	dir="$tmp/$2"
	git -C "$root" worktree add --quiet --detach "$dir" "$1"
	worktrees+=("$dir")
}
checkout "$parent_ref" parent
parent_dir=$dir
checkout "$change_ref" change
change_dir=$dir

# run <side> <dir> <workload> <seed>: one benchmark run, its metric values
# appended to $tmp/<workload>.<metric>.<side>, one line per seed.
run() {
	local out="$tmp/$3.$1.$4.txt"
	echo "bench_pair: $3 seed $4 $1" >&2
	if ! (cd "$2" && bash benchmark/run.sh --workload "$3" --seed "$4" --seconds "$seconds" --trace 0) >"$out" 2>&1; then
		cat "$out" >&2
		echo "bench_pair: $1 run of $3 seed $4 failed" >&2
		exit 1
	fi
	if ! tail -n 1 "$out" | grep -q '"correct":true.*"failed":0,'; then
		tail -n 1 "$out" >&2
		echo "bench_pair: $1 run of $3 seed $4 is not correct or has failed ops" >&2
		exit 1
	fi
	local m v
	for m in $metrics; do
		v=$(tail -n 1 "$out" | sed -n "s/.*\"$m\":{\"value\":\([^,}]*\).*/\1/p")
		[ -n "$v" ] || { echo "bench_pair: $1 run of $3 seed $4 printed no $m" >&2; exit 1; }
		echo "$v" >>"$tmp/$3.$m.$1"
	done
}

for w in $workloads; do
	for i in $(seq 1 "$pairs"); do
		if [ $((i % 2)) -eq 1 ]; then
			run parent "$parent_dir" "$w" "$i"
			run change "$change_dir" "$w" "$i"
		else
			run change "$change_dir" "$w" "$i"
			run parent "$parent_dir" "$w" "$i"
		fi
	done
done

echo "parent \`$parent_ref\`, change \`$change_ref\`: $pairs alternating pairs of \`bash benchmark/run.sh --workload w --seed i --seconds $seconds --trace 0\`, i = 1..$pairs"
echo
echo "| workload | metric | parent median [IQR] | change median [IQR] | change | wins/ties/pairs | bound | verdict |"
echo "|---|---|---|---|---|---|---|---|"
for w in $workloads; do
	for m in $metrics; do
		line=$(section end_to_end | grep "\"$m\"")
		paste "$tmp/$w.$m.parent" "$tmp/$w.$m.change" | awk -v w="$w" -v m="$m" \
			-v better="$(echo "$line" | field better)" -v bound="$(echo "$line" | field bound)" '
			# q(a, n, p): quantile p of sorted a[1..n], linear interpolation.
			function q(a, n, p,    h, lo) { h = 1 + (n - 1) * p; lo = int(h); return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo]) }
			function sorted(src, dst, n,    i, j, t) { for (i = 1; i <= n; i++) dst[i] = src[i]; for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t } }
			{ p[NR] = $1; c[NR] = $2; if ($1 == $2) ties++; else if ((better == "higher") == ($2 > $1)) wins++ }
			END {
				n = NR; sorted(p, ps, n); sorted(c, cs, n)
				pm = q(ps, n, 0.5); cm = q(cs, n, 0.5); iqr = q(ps, n, 0.75) - q(ps, n, 0.25)
				ciqr = q(cs, n, 0.75) - q(cs, n, 0.25)
				rel = pm != 0 ? (cm - pm) / pm : 0
				worse = better == "higher" ? -rel : rel
				# Disjoint: the worst change run beats the best parent run (up),
				# or the best change run loses to the worst parent run (down).
				up = better == "higher" ? cs[1] > ps[n] : cs[n] < ps[1]
				down = better == "higher" ? cs[n] < ps[1] : cs[1] > ps[n]
				if (n >= 4 && up) verdict = "better (disjoint)"
				else if (n >= 4 && down) verdict = worse > bound ? "WORSE beyond bound" : "WORSE (disjoint)"
				else if (pm != 0 && iqr / pm > bound) verdict = "unresolved"
				else if (worse > bound) verdict = "WORSE beyond bound"
				else if (n >= 10 && worse < 0 && (cm - pm) * (cm - pm) > iqr * iqr && wins * 10 >= 9 * n) verdict = "better"
				else verdict = "within bound"
				printf "| %s | %s | %.6g [%.3g] | %.6g [%.3g] | %+.1f %% | %d/%d/%d | %s | %s |\n", w, m, pm, iqr, cm, ciqr, 100 * rel, wins, ties, n, bound, verdict
			}'
	done
done
