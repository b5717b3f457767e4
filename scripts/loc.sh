#!/usr/bin/env bash
# Rust line counts of the workspace crates, production vs test.
#
#   scripts/loc.sh [REPO_ROOT]
#
# Production lines are the lines of each `src/**/*.rs` file before its
# `#[cfg(test)] mod ...` test module (a top-level `#[cfg(test)]` followed
# by a `mod` line); test lines are the rest of `src` plus every
# `tests/**/*.rs` file. Prints one row per crate under `crates/`, then the
# total. REPO_ROOT defaults to the checkout this script lives in, so the
# counts of another checkout (say, a parent commit) can be compared.
set -euo pipefail

root=$(realpath "${1:-$(dirname "$0")/..}")
[ -d "$root/crates" ] || { echo "error: $root has no crates/ directory" >&2; exit 2; }

# Prints "production test" line counts of the given .rs files.
split_counts() {
    awk '
        FNR == 1 { in_tests = 0; prev = "" }
        {
            if (!in_tests && prev ~ /^#\[cfg\(test\)\]/ && $0 ~ /^(pub(\([a-z]+\))? )?mod /) {
                # The attribute line opens the test module too.
                in_tests = 1
                prod--
                test++
            }
            if (in_tests) test++; else prod++
            prev = $0
        }
        END { printf "%d %d\n", prod, test }' "$@"
}

printf '%-12s %10s %10s\n' crate production test
total_prod=0
total_test=0
for dir in "$root"/crates/*/; do
    name=$(basename "$dir")
    prod=0
    test=0
    mapfile -t src < <(find "$dir/src" -name '*.rs' 2>/dev/null | sort)
    if [ ${#src[@]} -gt 0 ]; then
        read -r p t < <(split_counts "${src[@]}")
        prod=$((prod + p))
        test=$((test + t))
    fi
    if [ -d "$dir/tests" ]; then
        mapfile -t tests < <(find "$dir/tests" -name '*.rs' | sort)
        if [ ${#tests[@]} -gt 0 ]; then
            test=$((test + $(cat "${tests[@]}" | wc -l)))
        fi
    fi
    printf '%-12s %10d %10d\n' "$name" "$prod" "$test"
    total_prod=$((total_prod + prod))
    total_test=$((total_test + test))
done
printf '%-12s %10d %10d\n' total "$total_prod" "$total_test"
