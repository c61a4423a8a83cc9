#!/usr/bin/env bash
# Per crate: non-test source lines (each file counted up to its first
# `#[cfg(test)]`) and `pub` items — the numbers ROADMAP item 8 defines
# success by — and non-test `static` items, thread-locals included: the
# process-global state ROADMAP item 2 counts down — then a `tests` row: the
# lines of the integration suites (`tests/*.rs` + `tests/common/*.rs`) and
# their `#[test]` functions, proptest properties included. Run from
# anywhere; prints markdown tables.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

nontest() { awk '/^#\[cfg\(test\)\]/{exit} {c++} END{print c+0}' "$1"; }
pubs() { awk '/^#\[cfg\(test\)\]/{exit} /^[[:space:]]*pub (unsafe |const |async )*(fn|struct|enum|trait|type|const|static|mod|use) /{c++} END{print c+0}' "$1"; }
statics() { awk '/^#\[cfg\(test\)\]/{exit} /^[[:space:]]*(pub(\([a-z]+\))? )?static (mut )?[A-Z_0-9]+:/{c++} END{print c+0}' "$1"; }

echo "| crate | non-test lines | pub items | statics |"
echo "|---|---:|---:|---:|"
total_lines=0
total_pubs=0
total_statics=0
for src in src crates/*/src crates/shims/*/src; do
  [ -d "$src" ] || continue
  lines=0
  items=0
  globals=0
  while IFS= read -r f; do
    lines=$((lines + $(nontest "$f")))
    items=$((items + $(pubs "$f")))
    globals=$((globals + $(statics "$f")))
  done < <(find "$src" -name '*.rs' | sort)
  [ "$lines" -gt 0 ] || continue
  echo "| ${src%/src} | $lines | $items | $globals |"
  total_lines=$((total_lines + lines))
  total_pubs=$((total_pubs + items))
  total_statics=$((total_statics + globals))
done
echo "| **total** | $total_lines | $total_pubs | $total_statics |"

test_files=(tests/*.rs tests/common/*.rs)
echo
echo "| suite | lines | #[test] |"
echo "|---|---:|---:|"
echo "| tests | $(cat "${test_files[@]}" | wc -l) | $(cat "${test_files[@]}" | grep -c '#\[test\]') |"
