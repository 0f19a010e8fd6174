#!/usr/bin/env bash
# Lists public functions that nothing calls. For each `pub fn` in the
# non-test part of a file under crates/*/src (the lines before its first
# `#[cfg(test)]`, as scripts/loc.sh counts them), it counts the name's
# whole-word occurrences in every `.rs` file of the repository, build
# output under `target/` excluded, after cutting each line at its first
# `//`. Comments, doc comments and their examples included, therefore
# never count; nor do the defining file's own test module and the
# definition itself. Everything else does: other files' tests, `tests/`,
# benches, examples and `perfbench/`. Prints `file: name` for each
# function left with no occurrence and exits 1 if there is one, 0
# otherwise.
#
# The count is by name, not by resolved path, so the check is blind to a
# dead function whose name also appears elsewhere in code: as a field or
# local, or as another type's method of the same name. A `//` inside a
# string literal cuts the rest of that line too.
#
# Usage: scripts/dead_pub.sh
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

mapfile -t files < <(find . -name target -prune -o -name '*.rs' -print | sort)
dead=$(awk '
    FNR == 1 { in_test = 0; src = (FILENAME ~ /^\.\/crates\/[^\/]+\/src\//) }
    /^#\[cfg\(test\)\]/ { in_test = 1 }
    {
        if (src && !in_test && match($0, /^[ \t]*pub (const )?fn [A-Za-z_][A-Za-z0-9_]*/)) {
            def = substr($0, RSTART, RLENGTH)
            sub(/.* fn /, "", def)
            defs[FILENAME SUBSEP def]++
        }
        line = $0
        sub(/\/\/.*/, "", line)
        gsub(/[^A-Za-z0-9_]+/, " ", line)
        n = split(line, words, " ")
        for (i = 1; i <= n; i++) {
            total[words[i]]++
            if (in_test) test_uses[FILENAME SUBSEP words[i]]++
        }
    }
    END {
        for (key in defs) {
            split(key, parts, SUBSEP)
            file = parts[1]; name = parts[2]
            if (total[name] - test_uses[key] - defs[key] == 0)
                printf "%s: %s\n", substr(file, 3), name
        }
    }
' "${files[@]}" | sort)
if [[ -n "$dead" ]]; then
    echo "$dead"
    exit 1
fi
