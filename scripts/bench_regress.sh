#!/usr/bin/env bash
# Planner performance regression gate.
#
# Re-runs the perfsuite into a scratch file and compares every timing
# against the committed BENCH_PLANNER.json baseline. Fails if any metric
# regressed by more than the threshold (default 15%; override with
# THRESHOLD_PCT). Faster-than-baseline results are reported but pass.
#
#   scripts/bench_regress.sh            # full suite (paper + 10x scale)
#   scripts/bench_regress.sh --quick    # smoke scale only (no comparison
#                                       # against the committed scales)
set -euo pipefail
cd "$(dirname "$0")/.."

THRESHOLD_PCT="${THRESHOLD_PCT:-15}"
BASELINE="BENCH_PLANNER.json"
FRESH="$(mktemp -t bench_planner.XXXXXX.json)"
trap 'rm -f "$FRESH"' EXIT

if [[ ! -f "$BASELINE" ]]; then
    echo "error: no committed $BASELINE baseline; run:" >&2
    echo "  cargo run --release -p mmrepl-bench --bin perfsuite" >&2
    exit 2
fi

cargo run --release --offline -p mmrepl-bench --bin perfsuite -- \
    --out "$FRESH" "$@"

# The router bin amends the freshly written document in place with the
# serving-plane metrics (route_mreq_s, route_p*_us) so the comparison
# below sees the same metric set the committed baseline carries.
cargo run --release --offline -p mmrepl-bench --bin router -- \
    --out "$FRESH" "$@"

# Baselines must be measured with the invariant auditor compiled out —
# perfsuite stamps the feature state into the document.
python3 - "$FRESH" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
if doc.get("audit_hooks", False):
    print("error: perfsuite was built with --features audit; "
          "perf baselines must be measured with auditing compiled out", file=sys.stderr)
    sys.exit(1)
EOF

python3 - "$BASELINE" "$FRESH" "$THRESHOLD_PCT" <<'EOF'
import json, sys

base_path, fresh_path, threshold = sys.argv[1], sys.argv[2], float(sys.argv[3])
base = json.load(open(base_path))
fresh = json.load(open(fresh_path))

failures = []
compared = 0

# Parallel timings are only comparable at the same worker-thread count:
# a baseline measured on a different core count (or a run that resolved
# to different thread counts) must be re-recorded, not ratio-compared.
for scale, fresh_t in sorted(fresh["scales"].items()):
    base_t = base["scales"].get(scale)
    if base_t is None:
        continue
    b_threads, f_threads = base_t.get("threads", {}), fresh_t.get("threads", {})
    for metric in sorted(set(b_threads) & set(f_threads)):
        if b_threads[metric] != f_threads[metric]:
            print(f"error: {scale}.{metric} was measured with "
                  f"{b_threads[metric]} thread(s) in the baseline but "
                  f"{f_threads[metric]} in this run; re-record the baseline "
                  f"on this machine (cargo run --release -p mmrepl-bench "
                  f"--bin perfsuite)", file=sys.stderr)
            sys.exit(1)
for scale, fresh_t in sorted(fresh["scales"].items()):
    base_t = base["scales"].get(scale)
    if base_t is None:
        print(f"  {scale}: not in baseline, skipping")
        continue
    # A metric the baseline tracks but this run did not produce is a
    # hard failure: a silently skipped comparison would let a bin that
    # stopped emitting a metric (or a suite that stopped running it)
    # pass the gate while the coverage quietly eroded.
    for metric, old in sorted(base_t.items()):
        if metric.startswith("n_") or not isinstance(old, float):
            continue
        if metric not in fresh_t:
            failures.append(
                f"{scale}.{metric}: present in baseline but missing from this run")
            print(f"  {scale}.{metric}: MISSING from candidate run")
    for metric, new in sorted(fresh_t.items()):
        old = base_t.get(metric)
        # The overhead metrics are fractions, not timings; they get
        # their own absolute gate below instead of a ratio comparison.
        if (metric.startswith("n_")
                or metric in ("obs_overhead", "telemetry_overhead")
                or not isinstance(old, float)):
            continue
        compared += 1
        # Throughputs (route_mreq_s) run the other way: a regression is
        # a DROP below the baseline, and the unit is Mreq/s not seconds.
        if metric.endswith("_mreq_s"):
            pct = (1.0 - new / old) * 100.0
            verdict = "ok"
            if pct > threshold:
                verdict = "REGRESSED"
                failures.append(
                    f"{scale}.{metric}: {old:.3f} -> {new:.3f} Mreq/s ({-pct:+.1f}%)")
            print(f"  {scale}.{metric}: {old:.3f} -> {new:.3f} Mreq/s "
                  f"({-pct:+.1f}%) {verdict}")
            continue
        # Guard against small metrics where ratios are all noise: on the
        # 1-core bench box, medians under ~20 ms swing +-20-70% run to
        # run while >=50 ms metrics hold inside the bar. The latency
        # percentiles are microseconds; scale their guard too.
        unit, tiny = ("s", 2e-2)
        if metric.endswith("_us"):
            unit, tiny = ("us", 1e-1)
        if old < tiny and new < tiny:
            print(f"  {scale}.{metric}: {old:.6f}{unit} -> {new:.6f}{unit} (tiny, skipped)")
            continue
        # Percentile tails jitter far more than medians on a shared box;
        # hold them to a 4x-looser bar than the timing medians.
        lim = threshold * 4.0 if metric.endswith("_us") else threshold
        pct = (new / old - 1.0) * 100.0
        verdict = "ok"
        if pct > lim:
            verdict = "REGRESSED"
            failures.append(f"{scale}.{metric}: {old:.4f}{unit} -> {new:.4f}{unit} ({pct:+.1f}%)")
        print(f"  {scale}.{metric}: {old:.4f}{unit} -> {new:.4f}{unit} ({pct:+.1f}%) {verdict}")

# Absolute gate on the disabled-path cost models: the obs calls one
# traced plan makes (obs_overhead) and the recording calls one traced
# routing pass makes (telemetry_overhead), each priced at
# the measured disabled per-call cost, must stay under 2% of their
# denominator.
OBS_CAP = 0.02
for scale, fresh_t in sorted(fresh["scales"].items()):
    for metric, denom in (("obs_overhead", "plan"),
                          ("telemetry_overhead", "routing")):
        ov = fresh_t.get(metric)
        if not isinstance(ov, float):
            continue
        verdict = "ok"
        if ov > OBS_CAP:
            verdict = "FAILED"
            failures.append(
                f"{scale}.{metric}: {ov * 100:.3f}% of {denom} time exceeds "
                f"the {OBS_CAP * 100:.0f}% cap")
        print(f"  {scale}.{metric}: {ov * 100:.3f}% of {denom} time "
              f"(cap {OBS_CAP * 100:.0f}%) {verdict}")

if compared == 0:
    print("no comparable metrics (quick run vs full baseline?)")
if failures:
    print(f"\nFAIL: {len(failures)} metric check(s) failed:")
    for f in failures:
        print(f"  {f}")
    sys.exit(1)
print(f"\nOK: no metric regressed more than {threshold:.0f}% "
      "and the obs/telemetry overheads stay under their caps")
EOF
