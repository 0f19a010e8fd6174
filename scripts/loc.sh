#!/usr/bin/env bash
# Prints the non-test source lines of each workspace crate and their
# total. A file's non-test lines are those before its first
# `#[cfg(test)]` line (the whole file when it has none), counted per
# file under crates/<crate>/src, subdirectories included.
#
# Usage: scripts/loc.sh                 # every crate under crates/
#        scripts/loc.sh core vim sim    # just these crates
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
if [[ $# -eq 0 ]]; then
    set -- $(cd "$root/crates" && ls -d */ | tr -d /)
fi

total=0
for crate in "$@"; do
    n=0
    while IFS= read -r file; do
        lines=$(awk '/^#\[cfg\(test\)\]/{exit} {n++} END{print n+0}' "$file")
        n=$((n + lines))
    done < <(find "$root/crates/$crate/src" -name '*.rs' | sort)
    printf '%-10s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
