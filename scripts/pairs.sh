#!/bin/sh
# Alternating pairs of rtdls-perfbench runs, one tree against another.
#
#   scripts/pairs.sh <parent-dir> <change-dir> <workload> <pairs> [seconds] [first-seed]
#
# Builds each tree's rtdls-perfbench (release, into <dir>/.bench_build; the
# tree's bench/Cargo.lock is put back after the build), then runs pair after
# pair on seeds first-seed, first-seed + 1, ... (default 15 s, seed 1),
# alternating which side runs first. Prints one JSON line per run — side,
# pair, seed, order (pc: parent first, cp: change first), correct, failed
# and the five end-to-end metrics — and ends with one JSON line per metric:
# each side's median and quartiles, the pairs the change won, the median
# change/parent ratio, and whether the claim rule holds (the change better
# in >= 9/10 of the pairs, and its median better than the parent's by more
# than the parent's interquartile range). Run it on copies of the trees
# (git clone or git archive), not on a working tree being edited.
set -eu

[ $# -ge 4 ] || {
    echo "usage: $0 <parent-dir> <change-dir> <workload> <pairs> [seconds] [first-seed]" >&2
    exit 2
}
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=$4
seconds=${5:-15}
first=${6:-1}

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT

for dir in "$parent" "$change"; do
    cp "$dir/bench/Cargo.lock" "$runs"
    CARGO_TARGET_DIR="$dir/.bench_build" cargo build --release --offline --quiet \
        --manifest-path "$dir/bench/Cargo.toml"
    cp "$runs" "$dir/bench/Cargo.lock"
done
: >"$runs"

# One run: the JSON line of side $1 on seed $2 in pair $3, order $4.
run() {
    dir=$parent
    [ "$1" = change ] && dir=$change
    "$dir/.bench_build/release/rtdls-perfbench" --workload "$workload" --seed "$2" \
        --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1 |
        awk -v side="$1" -v seed="$2" -v pair="$3" -v order="$4" '
        function field(name,    s) {
            s = $0
            if (!sub(".*\"" name "\": *(\\{\"value\": *)?", "", s)) return "null"
            sub("[,}].*", "", s)
            return s
        }
        {
            printf "{\"side\": \"%s\", \"pair\": %d, \"seed\": %d, \"order\": \"%s\", ", side, pair, seed, order
            printf "\"correct\": %s, \"failed\": %s", field("correct"), field("failed")
            n = split("setup_s op_us cpu_us_per_op within_limit_ratio peak_rss_mb", m, " ")
            for (i = 1; i <= n; i++) printf ", \"%s\": %s", m[i], field(m[i])
            print "}"
        }'
}

pair=1
while [ "$pair" -le "$pairs" ]; do
    seed=$((first + pair - 1))
    if [ $((pair % 2)) -eq 1 ]; then order=pc; sides="parent change"; else order=cp; sides="change parent"; fi
    for side in $sides; do
        run "$side" "$seed" "$pair" "$order" | tee -a "$runs"
    done
    pair=$((pair + 1))
done

awk '
function quantile(v, n, q,    a, i, j, t, h, k) {
    for (i = 1; i <= n; i++) a[i] = v[i]
    for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
    h = (n - 1) * q + 1; k = int(h)
    return k >= n ? a[n] : a[k] + (h - k) * (a[k + 1] - a[k])
}
function value(name,    s) {
    s = $0
    if (!sub(".*\"" name "\": *", "", s)) return ""
    sub("[,}].*", "", s)
    return s
}
{
    side = value("side"); gsub("\"", "", side); p = value("pair") + 0
    if (p > pairs) pairs = p
    n = split("setup_s op_us cpu_us_per_op within_limit_ratio peak_rss_mb", names, " ")
    for (i = 1; i <= n; i++) x[side, names[i], p] = value(names[i]) + 0
}
END {
    for (i = 1; i <= n; i++) {
        m = names[i]; higher = (m == "within_limit_ratio")
        wins = 0
        for (p = 1; p <= pairs; p++) {
            a[p] = x["parent", m, p]; b[p] = x["change", m, p]
            r[p] = a[p] == 0 ? 1 : b[p] / a[p]
            if ((higher && b[p] > a[p]) || (!higher && b[p] < a[p])) wins++
        }
        pm = quantile(a, pairs, 0.5); p25 = quantile(a, pairs, 0.25); p75 = quantile(a, pairs, 0.75)
        cm = quantile(b, pairs, 0.5); c25 = quantile(b, pairs, 0.25); c75 = quantile(b, pairs, 0.75)
        gap = higher ? cm - pm : pm - cm
        holds = (wins >= 0.9 * pairs && gap > p75 - p25) ? "true" : "false"
        printf "{\"metric\": \"%s\", \"pairs\": %d, ", m, pairs
        printf "\"parent\": {\"median\": %.6g, \"p25\": %.6g, \"p75\": %.6g}, ", pm, p25, p75
        printf "\"change\": {\"median\": %.6g, \"p25\": %.6g, \"p75\": %.6g}, ", cm, c25, c75
        printf "\"change_wins\": %d, \"median_ratio\": %.4f, \"claim_rule_holds\": %s}\n", wins, quantile(r, pairs, 0.5), holds
    }
}' "$runs"
