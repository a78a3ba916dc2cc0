#!/usr/bin/env bash
# The line count CHANGES.md quotes, so no PR has to re-derive it.
#
#   tools/loc.sh [ROOT]        (ROOT defaults to this checkout)
#
# Per crate under ROOT/crates/*/src: every *.rs line before the file's first
# line that starts with a `#[cfg(test)]` attribute (a mention of it inside a
# comment or string does not count), minus blank lines and lines whose first non-blank
# characters are `//` (comments and doc comments). One row per crate, then
# the total.
set -euo pipefail

root="${1:-$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)}"
total=0
for src in "$root"/crates/*/src; do
  n=$(find "$src" -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { tests = 1 }
    !tests && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
    END { print n + 0 }')
  printf '%-12s %6d\n' "$(basename "$(dirname "$src")")" "$n"
  total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
