#!/bin/bash
# Paired, alternating labbench runs of two versions of this repository:
# the protocol of the choosing-metrics guide, section 8. Back-to-back
# sets (`labbench -out a.json`, then `-out b.json`) disagree by up to
# +23 % wall when the VM slows between them; pairs that alternate which
# side goes first agree within spread.
#
#   scripts/benchpair.sh <parent> <change> [workload...]
#
# <parent> and <change> are each a git ref (exported with `git archive`
# into a temporary directory, so nothing is registered in .git and the
# working tree is not touched) or a directory holding a checkout (used
# in place: `.` measures uncommitted work). Each side is built and run
# by its own cmd/labbench/run.sh, exactly as BENCHMARK.json runs it.
# Workloads default to all of BENCHMARK.json's.
#
#   PAIRS=10        pairs per workload (the guide's minimum)
#   RUN_SECONDS=10  labbench --seconds per run (BENCHMARK.json's run_seconds)
#   SEED=1          pair i runs both sides with --seed SEED+i-1
#
# Per workload and end-to-end metric it prints each side's quartiles
# and median, the change of the median, how many pairs the change won
# and lost, and a verdict: `gain` (or `loss`) when one side wins at
# least nine tenths of the untied pairs AND the medians differ by more
# than the parent's own quartile spread; otherwise `-` (`n/a` under ten
# pairs, where quartiles mean little). It also counts the pairs whose
# sim_digests agree (same seed, so a change that moves no virtual-time
# event must agree on all) and the ops that failed.
set -euo pipefail

if [ $# -lt 2 ]; then
	awk 'NR > 1 && !/^#/ { exit } NR > 1 { sub(/^# ?/, ""); print }' "$0" >&2
	exit 2
fi
pairs="${PAIRS:-10}" seconds="${RUN_SECONDS:-10}" seed="${SEED:-1}"
repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
tmp="$(mktemp -d "${TMPDIR:-/tmp}/benchpair.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT

# checkout <name> <ref-or-dir>: prints the directory to run that side from.
checkout() {
	if [ -d "$2" ]; then
		(cd "$2" && pwd)
		return
	fi
	mkdir "$tmp/$1"
	git -C "$repo" archive --format=tar "$2" | tar -x -C "$tmp/$1"
	echo "$tmp/$1"
}
parent="$(checkout parent "$1")"
change="$(checkout change "$2")"
echo "parent $1 -> $parent" >&2
echo "change $2 -> $change" >&2
shift 2
if [ $# -eq 0 ]; then
	set -- $(grep -o '{"name": *"[^"]*", *"why"' "$repo/BENCHMARK.json" | cut -d'"' -f4)
fi

# run <dir> <workload> <seed>: one untraced run; prints its detail line.
run() {
	bash "$1/cmd/labbench/run.sh" --workload "$2" --seed "$3" --seconds "$seconds" --trace 0 | grep '^detail ' ||
		{ echo "benchpair: labbench run failed in $1 ($2, seed $3)" >&2; exit 1; }
}

# One throwaway build per side, so the first timed pair is not the one
# that compiles.
for dir in "$parent" "$change"; do
	bash "$dir/cmd/labbench/run.sh" -h >/dev/null 2>&1 || true
done

for wl in "$@"; do
	: >"$tmp/rows"
	for ((i = 1; i <= pairs; i++)); do
		s=$((seed + i - 1))
		if ((i % 2)); then
			p="$(run "$parent" "$wl" "$s")" c="$(run "$change" "$wl" "$s")"
		else
			c="$(run "$change" "$wl" "$s")" p="$(run "$parent" "$wl" "$s")"
		fi
		printf 'P %s\nC %s\n' "$p" "$c" >>"$tmp/rows"
		echo "  $wl pair $i/$pairs (seed $s) done" >&2
	done
	awk -v wl="$wl" -v pairs="$pairs" '
	function field(line, key,    m) {
		# the number after "key":{"value": or "key":
		if (!match(line, "\"" key "\":(\\{\"value\":)?[-+0-9.eE]+")) return ""
		m = substr(line, RSTART, RLENGTH); sub(/.*:/, "", m); return m
	}
	function digest(line,    m) {
		if (!match(line, "\"sim_digest\":\"[0-9a-f]+\"")) return ""
		m = substr(line, RSTART, RLENGTH); gsub(/.*:"|"/, "", m); return m
	}
	# quantile q of v[1..n] (copied and sorted), linear interpolation
	function quantile(v, n, q,    a, i, j, t, pos, lo) {
		for (i = 1; i <= n; i++) a[i] = v[i]
		for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
		pos = 1 + (n - 1) * q; lo = int(pos)
		return lo >= n ? a[n] : a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
	}
	BEGIN { nm = split("setup_s op_wall_ms_p50 cpu_ms_per_op alloc_mb_per_op allocs_per_op peak_rss_mb", metric, " ") }
	{
		side = $1; n[side]++
		for (k = 1; k <= nm; k++) val[side, metric[k], n[side]] = field($0, metric[k])
		dig[side, n[side]] = digest($0)
		failed[side] += field($0, "failed"); attempted[side] += field($0, "attempted")
	}
	END {
		printf "%s: %d pairs\n", wl, pairs
		printf "  %-16s %34s   %34s   %8s  %-9s %s\n", "metric", "parent q1 / median / q3", "change q1 / median / q3", "median", "won-lost", "verdict"
		for (k = 1; k <= nm; k++) {
			m = metric[k]; won = lost = 0
			for (i = 1; i <= pairs; i++) {
				P[i] = val["P", m, i] + 0; C[i] = val["C", m, i] + 0 # numbers, not strings
				if (C[i] < P[i]) won++; else if (C[i] > P[i]) lost++
			}
			pm = quantile(P, pairs, 0.5); cm = quantile(C, pairs, 0.5)
			iqr = quantile(P, pairs, 0.75) - quantile(P, pairs, 0.25)
			verdict = pairs < 10 ? "n/a" : "-"; decided = won + lost
			if (pairs >= 10 && decided > 0 && won >= 0.9 * decided && pm - cm > iqr) verdict = "gain"
			if (pairs >= 10 && decided > 0 && lost >= 0.9 * decided && cm - pm > iqr) verdict = "loss"
			printf "  %-16s %10.4g / %10.4g / %10.4g   %10.4g / %10.4g / %10.4g   %+7.1f%%  %3d-%-5d %s\n", m,
				quantile(P, pairs, 0.25), pm, quantile(P, pairs, 0.75),
				quantile(C, pairs, 0.25), cm, quantile(C, pairs, 0.75),
				pm ? 100 * (cm - pm) / pm : 0, won, lost, verdict
		}
		same = 0
		for (i = 1; i <= pairs; i++) if (dig["P", i] != "" && dig["P", i] == dig["C", i]) same++
		printf "  sim_digest equal in %d of %d pairs; ops failed: parent %d of %d, change %d of %d\n",
			same, pairs, failed["P"], attempted["P"], failed["C"], attempted["C"]
	}' "$tmp/rows"
done
