#!/usr/bin/env bash
# Non-test source lines per crate: for every `src/**/*.rs`, the lines before
# the file's first `#[cfg(test)]` that is followed by a `mod` line (the whole
# file when it has none; a `#[cfg(test)]` on any other item is counted and
# does not stop the count). This is the number simplicity PRs quote in
# CHANGES.md.
#
# usage: scripts/loc.sh [crate ...]    (default: every crate under crates/)
set -euo pipefail
cd "$(dirname "$0")/.."

crates=("$@")
if [ ${#crates[@]} -eq 0 ]; then
    for dir in crates/*/src; do
        name=${dir#crates/}
        crates+=("${name%/src}")
    done
fi

total=0
for crate in "${crates[@]}"; do
    lines=$(find "crates/$crate/src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk '
            FNR == 1 { n += held; held = 0; counting = 1 }
            !counting { next }
            held && /^[[:space:]]*(pub(\([a-z]+\))? )?mod / { held = 0; counting = 0; next }
            { n += held; held = 0 }
            /#\[cfg\(test\)\]/ { held = 1; next }
            { n++ }
            END { print n + held }')
    printf '%-12s %6d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-12s %6d\n' total "$total"
