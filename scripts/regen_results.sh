#!/usr/bin/env bash
# Regenerates every README figure/table into a scratch directory and
# checks it against the committed results/.
#
#   scripts/regen_results.sh [OUT]
#
# Builds mmrepl in release once and runs `mmrepl study NAME` for the
# twelve study names at paper scale, writing into OUT (default: a
# temporary directory, removed on exit), with `negotiate` at
# `--central 0.1` as the committed table was made. Then `cmp`s every
# file of results/ against its fresh copy and exits 1 if any differs or
# is missing. Takes about 8 minutes on 2 vCPUs (`caches` alone about 4).
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -gt 1 ]; then
    sed -n '2,12p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
if [ $# -eq 1 ]; then
    out=$1
    mkdir -p "$out"
else
    out=$(mktemp -d -t mmrepl_regen.XXXXXX)
    trap 'rm -rf "$out"' EXIT
fi

cargo build --release --offline -q -p mmrepl-cli
for study in table1 fig1 fig2 fig3 ablations drift online caches updates \
    queueing federate negotiate; do
    extra=()
    [ "$study" = negotiate ] && extra=(--central 0.1)
    echo "==> $study"
    target/release/mmrepl study "$study" --out "$out" "${extra[@]}" >/dev/null
done

status=0
count=0
for committed in results/*; do
    name=$(basename "$committed")
    count=$((count + 1))
    if ! cmp -s "$committed" "$out/$name"; then
        echo "DIFFERS: results/$name" >&2
        status=1
    fi
done
if [ "$status" -eq 0 ]; then
    echo "OK: all $count results/ files regenerated byte for byte"
fi
exit "$status"
