#!/usr/bin/env bash
# A/B pairs of two perfbench builds on one workload.
#
#   scripts/ab_pairs.sh BASE_BIN CHANGE_BIN WORKLOAD SEED N [SECONDS]
#
# BASE_BIN and CHANGE_BIN are built perfbench binaries (for example
# `perfbench/target/release/mmrepl-perfbench` of two checkouts). Runs N
# pairs in alternating order (base first in even pairs, change first in odd
# ones), each run `--seconds SECONDS` (default 20) untraced, in a throwaway
# working directory. Prints every pair's op_p50_s, setup_s, peak_rss_mib and
# download_ratio, then per metric the medians and interquartile ranges of
# both sides, how many pairs the change won (lower is better for all four),
# whether the median gain exceeds the base's IQR, and whether
# download_ratio is bit-identical across every run.
set -euo pipefail

if [ $# -lt 5 ]; then
    sed -n '2,13p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
base=$(realpath "$1")
change=$(realpath "$2")
workload=$3
seed=$4
pairs=$5
seconds=${6:-20}
for bin in "$base" "$change"; do
    [ -x "$bin" ] || { echo "error: $bin is not an executable" >&2; exit 2; }
done

work=$(mktemp -d -t ab_pairs.XXXXXX)
trap 'rm -rf "$work"' EXIT
results="$work/results.tsv"

run() { # side bin pair -> appends "pair side json" to the results
    local line
    line=$(cd "$work" && "$2" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 | tail -n 1)
    printf '%s\t%s\t%s\n' "$3" "$1" "$line" >>"$results"
}

for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then
        run base "$base" "$i"
        run change "$change" "$i"
    else
        run change "$change" "$i"
        run base "$base" "$i"
    fi
done

python3 - "$results" "$workload" "$seed" <<'EOF'
import json, statistics, sys

path, workload, seed = sys.argv[1:]
metrics = ["op_p50_s", "setup_s", "peak_rss_mib", "download_ratio"]
runs = {}
for row in open(path):
    pair, side, line = row.rstrip("\n").split("\t", 2)
    doc = json.loads(line)
    vals = {}
    for m in metrics:
        v = doc["metrics"][m]
        vals[m] = v["value"] if isinstance(v, dict) else v
    vals["ok"] = doc.get("correct", False) and doc.get("failed", 1) == 0
    runs.setdefault(int(pair), {})[side] = vals

def quart(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

print(f"{workload} seed {seed}: {len(runs)} pairs (base | change)")
print("pair  " + "  ".join(f"{m:>25}" for m in metrics))
for i in sorted(runs):
    b, c = runs[i]["base"], runs[i]["change"]
    cells = [f"{b[m]:>12.6g} {c[m]:<12.6g}" for m in metrics]
    bad = "" if b["ok"] and c["ok"] else "  FAILED OPS"
    print(f"{i:>4}  " + "  ".join(cells) + bad)
print()
for m in metrics:
    bs = [runs[i]["base"][m] for i in sorted(runs)]
    cs = [runs[i]["change"][m] for i in sorted(runs)]
    bq, cq = quart(bs), quart(cs)
    wins = sum(c < b for b, c in zip(bs, cs))
    gain = bq[1] - cq[1]
    iqr = bq[2] - bq[0]
    rel = gain / bq[1] * 100 if bq[1] else 0.0
    print(f"{m:>15}: base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]  "
          f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]  "
          f"change lower {wins}/{len(bs)}  median gain {gain:.4g} ({rel:+.1f}% of base) "
          f"{'>' if gain > iqr else '<='} base IQR {iqr:.4g}")
ratios = {runs[i][s]["download_ratio"].hex() for i in runs for s in ("base", "change")}
print("download_ratio bit-identical:", "yes" if len(ratios) == 1 else f"NO ({sorted(ratios)})")
ok = all(runs[i][s]["ok"] for i in runs for s in ("base", "change"))
print("every run correct with 0 failed ops:", "yes" if ok else "NO")
EOF
