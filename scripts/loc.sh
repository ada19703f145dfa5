#!/usr/bin/env sh
# Non-test line count of the workspace's library and bin sources: every
# line of crates/*/src/**/*.rs, minus each `#[cfg(test)]` attribute and the
# item it gates. The item runs from the line after the attribute through
# the line where its braces balance, or through its first line ending in
# `;` if it opens no brace. Blank and comment lines count.
#
# Usage: scripts/loc.sh [TREE]   (TREE defaults to this repository)
set -eu
cd "${1:-$(dirname "$0")/..}"
find crates/*/src -name '*.rs' | sort | xargs awk '
    FNR == 1 { skip = 0 }
    skip {
        line = $0
        opens = gsub(/\{/, "", line)
        depth += opens - gsub(/\}/, "", line)
        if (opens) block = 1
        if (block ? depth <= 0 : /;$/) skip = 0
        next
    }
    /^[ \t]*#\[cfg\(test\)\]$/ { skip = 1; depth = 0; block = 0; next }
    { n++ }
    END { print n + 0 }'
