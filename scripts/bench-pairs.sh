#!/bin/sh
# bench-pairs.sh — alternating parent/change pairs of the end-to-end
# benchmark (go run ./bench), read the way a claimed gain is judged.
#
#   W=snap_warm_10k N=10 REF=HEAD SEEDS='11 12 13' sh scripts/bench-pairs.sh
#   make bench-pairs W=snap_warm_10k N=10 SEEDS='11 12 13'
#
# W is the workload (required); N the number of pairs (default 10); REF
# the commit the working tree is compared with (default HEAD); SEEDS the
# -seed values, used in turn, one a pair (default 1); LOGS, when set, a
# directory that keeps every run's result line, a file a side
# (parent.jsonl, change.jsonl), for the metrics not summarised here.
# Every run measures the benchmark's own declared run length, the same on
# both sides.
#
# It builds ./bench once a side, with -trimpath so that the checkouts'
# paths do not differ inside the binaries: REF from a `git archive` of it,
# the change from the working tree. Each pair runs both binaries with
# -trace 0, the side that goes first alternating from pair to pair, and
# reads each run's last line (the benchmark's JSON result object). It
# prints each pair's run_ms_p50, how many pairs the change won, each
# side's median and interquartile range of run_ms_p50 and elems_per_s,
# and the resolution check: the change's elems_per_s IQR must be below
# 25 % of the parent's median elems_per_s, or the spread is too wide to
# tell a change from noise. Everything else it writes — binaries,
# reports, logs — goes to a temporary directory, removed on exit; nothing
# under bench/ is touched.
set -eu

: "${W:?W=<workload> is required}"
N=${N:-10}
REF=${REF:-HEAD}
SEEDS=${SEEDS:-1}
LOGS=${LOGS:-}
[ -z "$LOGS" ] || mkdir -p "$LOGS"

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT INT TERM

mkdir "$tmp/ref"
git -C "$root" archive "$REF" | tar -x -C "$tmp/ref"
(cd "$tmp/ref" && go build -trimpath -o "$tmp/bench-parent" ./bench)
(cd "$root" && go build -trimpath -o "$tmp/bench-change" ./bench)
echo "built $REF and the working tree; $N pairs of $W, seeds: $SEEDS"

# metric LINE NAME prints metric NAME's value in a result line.
metric() {
	printf '%s\n' "$1" | sed -n "s/.*\"$2\":{\"value\":\([^,}]*\).*/\1/p"
}

# run SIDE SEED K appends SIDE's run_ms_p50 and elems_per_s to its file.
run() {
	out="$tmp/$1-$3.log"
	if ! "$tmp/bench-$1" -workload "$W" -trace 0 -seed "$2" -out "$tmp/out-$1-$3" >"$out" 2>"$out.err"; then
		echo "$1 run $3 failed:" >&2
		tail -n 5 "$out.err" >&2
		exit 1
	fi
	line=$(tail -n 1 "$out")
	case $line in
	*'"failed":0'*) ;;
	*) echo "$1 run $3 had failed operations: $line" >&2; exit 1 ;;
	esac
	echo "$(metric "$line" run_ms_p50) $(metric "$line" elems_per_s)" >>"$tmp/$1.txt"
	[ -z "$LOGS" ] || printf '%s\n' "$line" >>"$LOGS/$1.jsonl"
}

set -- $SEEDS
k=1
while [ "$k" -le "$N" ]; do
	seed=$1
	shift
	set -- "$@" "$seed"
	if [ $((k % 2)) -eq 1 ]; then
		run parent "$seed" "$k"
		run change "$seed" "$k"
	else
		run change "$seed" "$k"
		run parent "$seed" "$k"
	fi
	p=$(tail -n 1 "$tmp/parent.txt" | cut -d' ' -f1)
	c=$(tail -n 1 "$tmp/change.txt" | cut -d' ' -f1)
	echo "pair $k seed $seed: run_ms_p50 parent $p change $c"
	k=$((k + 1))
done

# stats COLUMN FILE prints the median and the interquartile range of a
# column (quartiles by linear interpolation between order statistics).
stats() {
	cut -d' ' -f"$1" "$2" | sort -g | awk '
		{ v[NR] = $1 }
		function q(p,   h, i) { h = (NR - 1) * p + 1; i = int(h); return v[i] + (h - i) * (v[i + (i < NR)] - v[i]) }
		END { printf "%.6g %.6g\n", q(0.5), q(0.75) - q(0.25) }'
}

paste -d' ' "$tmp/parent.txt" "$tmp/change.txt" | awk -v n="$N" '
	$3 < $1 { won++ }
	END { printf "run_ms_p50: change better in %d of %d pairs\n", won, n }'
set -- $(stats 1 "$tmp/parent.txt") $(stats 1 "$tmp/change.txt") \
	$(stats 2 "$tmp/parent.txt") $(stats 2 "$tmp/change.txt")
awk -v pm="$1" -v pi="$2" -v cm="$3" -v ci="$4" -v pe="$5" -v pei="$6" -v ce="$7" -v cei="$8" 'BEGIN {
	printf "run_ms_p50  parent median %.4g IQR %.3g | change median %.4g IQR %.3g | change %+.1f %%, median gap %.3g vs parent IQR %.3g\n",
		pm, pi, cm, ci, 100 * (cm - pm) / pm, pm - cm, pi
	printf "elems_per_s parent median %.6g IQR %.1f %% | change median %.6g IQR %.1f %%\n",
		pe, 100 * pei / pe, ce, 100 * cei / ce
	bound = 0.25 * pe
	printf "resolution: change IQR %.6g (%.1f %% of its median) against 25 %% of the parent median, %.6g (%.1f %% of the change median): %s\n",
		cei, 100 * cei / ce, bound, 100 * bound / ce, (cei < bound ? "ok" : "TOO WIDE")
}'
