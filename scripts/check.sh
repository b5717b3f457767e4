#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints-as-errors, full test suite.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, -D warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> rustdoc (every mmrepl* package, warnings denied: no dead or private links)"
DOC_PKGS=(-p mmrepl)
for manifest in crates/*/Cargo.toml; do
    DOC_PKGS+=(-p "$(sed -n 's/^name = "\(.*\)"/\1/p' "$manifest" | head -n 1)")
done
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps "${DOC_PKGS[@]}"

echo "==> cargo build --examples"
cargo build --workspace --examples --offline

echo "==> cargo test (workspace)"
cargo test --workspace -q --offline

echo "==> parallel plan bit-identity at paper and 10x scale (release; squeezed repository included)"
cargo test --release -q --offline -p mmrepl-core --lib -- \
    --ignored parallel_plan_is_bit_identical_at_paper_and_ten_x_scale

echo "==> cargo test (perfbench: its unit tests and correctness-gated smoke run)"
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "==> differential-oracle fuzz smoke (deterministic seeds, audit hooks on)"
cargo run --offline -p mmrepl-cli --bin mmrepl -- audit --seeds 4

SMOKE_OUT="$(mktemp -d -t mmrepl_smoke.XXXXXX)"
trap 'rm -rf "$SMOKE_OUT"' EXIT

echo "==> queueing replay regenerates results/queueing.txt byte for byte (release)"
cargo run --release --offline -q -p mmrepl-cli --bin mmrepl -- \
    study queueing --out "$SMOKE_OUT" >/dev/null
cmp "$SMOKE_OUT/queueing.txt" results/queueing.txt
echo "  queueing ok: FIFO replay table identical to the committed one"

echo "==> obs trace smoke (plan --trace-out emits parseable JSONL)"
cargo run --offline -p mmrepl-cli --bin mmrepl -- \
    generate --seed 7 --out "$SMOKE_OUT/system.json" >/dev/null
cargo run --offline -p mmrepl-cli --bin mmrepl -- \
    plan --system "$SMOKE_OUT/system.json" --storage 0.5 --processing 0.8 \
    --out "$SMOKE_OUT/placement.json" --trace-out "$SMOKE_OUT/trace.jsonl" >/dev/null
python3 - "$SMOKE_OUT/trace.jsonl" <<'EOF'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1])]  # every line must parse
spans = {l["name"] for l in lines if l["record"] == "span"}
want = {"plan.total", "plan.partition", "plan.storage_restore",
        "plan.capacity_restore", "plan.offload"}
missing = want - spans
if missing:
    print(f"error: trace is missing planner stage span(s): {sorted(missing)}",
          file=sys.stderr)
    sys.exit(1)
print(f"  trace ok: {len(lines)} records, stages {sorted(want)}")
EOF

echo "==> sharded-restoration smoke (multi-thread plan == single-thread plan)"
cargo run --offline -p mmrepl-cli --bin mmrepl -- \
    plan --system "$SMOKE_OUT/system.json" --storage 0.5 --processing 0.8 \
    --threads 1 --out "$SMOKE_OUT/placement-t1.json" >/dev/null
cargo run --offline -p mmrepl-cli --bin mmrepl -- \
    plan --system "$SMOKE_OUT/system.json" --storage 0.5 --processing 0.8 \
    --threads 4 --out "$SMOKE_OUT/placement-t4.json" >/dev/null
cmp "$SMOKE_OUT/placement-t1.json" "$SMOKE_OUT/placement-t4.json"
echo "  sharded plan ok: 4-thread placement bit-identical to 1-thread"

echo "==> federated-tree smoke (3-level tree plans with a selection stage)"
cargo run --offline -p mmrepl-cli --bin mmrepl -- \
    generate --seed 7 --topology regional --out "$SMOKE_OUT/tree.json" >/dev/null
cargo run --offline -p mmrepl-cli --bin mmrepl -- \
    plan --system "$SMOKE_OUT/tree.json" --storage 0.65 \
    --out "$SMOKE_OUT/tree-placement.json" \
    --trace-out "$SMOKE_OUT/tree-trace.jsonl" >/dev/null
python3 - "$SMOKE_OUT/tree-trace.jsonl" <<'EOF'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1])]
spans = {l["name"] for l in lines if l["record"] == "span"}
if "plan.select" not in spans:
    print("error: tree plan trace is missing the plan.select span",
          file=sys.stderr)
    sys.exit(1)
print(f"  tree trace ok: {len(lines)} records, ancestor-selection span present")
EOF

echo "==> router smoke (audit-checked routing reports zero misroutes)"
cargo run --offline -p mmrepl-cli --bin mmrepl -- \
    route --system "$SMOKE_OUT/tree.json" --storage 0.65 \
    --out "$SMOKE_OUT/route.json" >/dev/null
python3 - "$SMOKE_OUT/route.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
if doc["total"]["requests"] <= 0:
    print("error: router routed no requests", file=sys.stderr)
    sys.exit(1)
if doc["total"]["misroutes"] != 0:
    print(f"error: audit found {doc['total']['misroutes']} misroute(s)",
          file=sys.stderr)
    sys.exit(1)
print(f"  route ok: {doc['total']['requests']} requests, "
      f"{doc['total']['objects']} objects, 0 misroutes (audit-verified)")
EOF

echo "==> negotiation smoke (greedy/reliable cell == default plan, no protocol faults, audit hooks on)"
cargo run --offline -p mmrepl-cli --bin mmrepl -- \
    study negotiate --quick --central 0.1 --runs 2 --seed 11 \
    --out "$SMOKE_OUT/negotiate" >/dev/null
python3 - "$SMOKE_OUT/negotiate/negotiate.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
runs = doc["runs"]
for cell in doc["cells"]:
    if cell["scenario"] == "reliable" and cell["strategy"] == "greedy":
        if cell["placements_match"] != runs:
            print(f"error: greedy/reliable matched only "
                  f"{cell['placements_match']}/{runs} default placements",
                  file=sys.stderr)
            sys.exit(1)
        if cell["retries"] or cell["timeouts"] or cell["degraded_sites"]:
            print("error: reliable bus reported protocol faults", file=sys.stderr)
            sys.exit(1)
greedy = [c for c in doc["cells"]
          if c["scenario"] == "reliable" and c["strategy"] == "greedy"]
if not greedy or greedy[0]["rounds"] < 1:
    print("error: the squeeze produced no negotiation rounds", file=sys.stderr)
    sys.exit(1)
print(f"  negotiate ok: greedy/reliable matches the default plan over {runs} run(s), "
      f"{greedy[0]['rounds']:.1f} rounds")
EOF

echo "==> lossy negotiation smoke (termination + Eq. 8-10 over the same grid)"
python3 - "$SMOKE_OUT/negotiate/negotiate.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
runs = doc["runs"]
for cell in doc["cells"]:
    tag = f"{cell['strategy']}/{cell['scenario']}"
    if cell["rounds"] > 32:
        print(f"error: {tag} exceeded the round bound", file=sys.stderr)
        sys.exit(1)
    if cell["feasible_runs"] != runs:
        print(f"error: {tag} feasible in only "
              f"{cell['feasible_runs']}/{runs} runs", file=sys.stderr)
        sys.exit(1)
faulty = [c for c in doc["cells"] if c["scenario"] in ("lossy", "chaos")]
stressed = sum(c["retries"] + c["timeouts"] + c["duplicates_ignored"]
               for c in faulty)
if stressed == 0:
    print("error: fault injection exercised no resilience path", file=sys.stderr)
    sys.exit(1)
print(f"  lossy negotiate ok: {len(doc['cells'])} cells terminated feasible "
      f"under audit (resilience events: {stressed:.0f})")
EOF

echo "==> telemetry smoke (exporter exposition + monotone counters across scrapes)"
cargo run --offline -p mmrepl-cli --bin mmrepl -- \
    study online --quick --runs 1 --epochs 1 --windows 2 --seed 7 \
    --out "$SMOKE_OUT/online" \
    --expose "$SMOKE_OUT/metrics.prom" --scrape-interval 0.05 >/dev/null
test -s "$SMOKE_OUT/online/online.json" && test -s "$SMOKE_OUT/online/online.txt"
cargo run --offline -p mmrepl-cli --bin mmrepl -- \
    top --study route --refresh 100 --frames 2 \
    --dump "$SMOKE_OUT/frames" --seed 7 >/dev/null
python3 - "$SMOKE_OUT/metrics.prom" \
    "$SMOKE_OUT/frames/scrape-0.prom" "$SMOKE_OUT/frames/scrape-1.prom" <<'EOF'
import sys

def parse(path):
    series = {}
    for line in open(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, value = line.rsplit(" ", 1)
        series[name] = float(value)  # every sample must parse
    return series

final = parse(sys.argv[1])
want = ["mmrepl_serve_route_requests_total",
        'mmrepl_serve_route_latency_s{quantile="0.99"}',
        "mmrepl_negotiate_rounds_total",
        'mmrepl_slo_burn_rate{slo="serve.latency",window="short"}']
missing = [w for w in want if w not in final]
if missing:
    print(f"error: exporter scrape is missing series: {missing}", file=sys.stderr)
    sys.exit(1)
if final["mmrepl_serve_route_requests_total"] <= 0:
    print("error: the study routed nothing through the telemetry plane",
          file=sys.stderr)
    sys.exit(1)

a, b = parse(sys.argv[2]), parse(sys.argv[3])
totals = [n for n in a if n.endswith("_total") and "{" not in n]
bad = [n for n in totals if b.get(n, 0.0) < a[n]]
if bad:
    print(f"error: counters went backwards between scrapes: {bad}",
          file=sys.stderr)
    sys.exit(1)
print(f"  telemetry ok: {len(final)} samples parse, "
      f"{final['mmrepl_serve_route_requests_total']:.0f} routed requests, "
      f"{len(totals)} counters monotone across scrapes")
EOF

echo "==> one registry, two views (trace counters == exposition _total counters)"
cargo run --offline -p mmrepl-cli --bin mmrepl -- \
    study negotiate --quick --central 0.1 --runs 1 --seed 11 \
    --out "$SMOKE_OUT/negotiate-views" \
    --trace-out "$SMOKE_OUT/negotiate-views.jsonl" \
    --expose "$SMOKE_OUT/negotiate-views.prom" --scrape-interval 0.05 >/dev/null
python3 - "$SMOKE_OUT/negotiate-views.jsonl" "$SMOKE_OUT/negotiate-views.prom" <<'EOF'
import json, re, sys

counters = {l["name"]: l["value"] for l in map(json.loads, open(sys.argv[1]))
            if l["record"] == "counter"}
scrape = {}
for line in open(sys.argv[2]):
    if line.strip() and not line.startswith("#"):
        name, value = line.rsplit(" ", 1)
        scrape[name] = float(value)
matched, bad = [], []
for name, value in sorted(counters.items()):
    total = "mmrepl_" + re.sub(r"[^A-Za-z0-9]", "_", name) + "_total"
    if total in scrape:
        matched.append(name)
        if scrape[total] != value:
            bad.append(f"{name}: trace {value}, scrape {scrape[total]:.0f}")
if bad:
    print(f"error: the two views disagree: {bad}", file=sys.stderr)
    sys.exit(1)
missing = {"negotiate.rounds", "netsim.bus.delivered"} - set(matched)
if missing:
    print(f"error: counters missing from one view: {sorted(missing)}",
          file=sys.stderr)
    sys.exit(1)
print(f"  two views ok: {len(matched)} counters equal in the trace and the scrape "
      f"(negotiate.rounds {counters['negotiate.rounds']})")
EOF

echo "==> router bench determinism (1-thread summary == 4-thread summary)"
cargo run --release --offline -p mmrepl-bench --bin router -- \
    --quick --iters 1 --threads 1 --summary-only \
    --summary-out "$SMOKE_OUT/route-sum-t1.json" >/dev/null
cargo run --release --offline -p mmrepl-bench --bin router -- \
    --quick --iters 1 --threads 4 --summary-only \
    --summary-out "$SMOKE_OUT/route-sum-t4.json" >/dev/null
cmp "$SMOKE_OUT/route-sum-t1.json" "$SMOKE_OUT/route-sum-t4.json"
echo "  router bench ok: 4-thread routing stats bit-identical to 1-thread"

echo "OK"
