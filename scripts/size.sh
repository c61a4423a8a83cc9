#!/usr/bin/env bash
# Per crate: non-test source lines (each file counted up to its inline test
# module, a `#[cfg(test)]` line followed by `mod <name> {`), `pub` items and
# `pub mod`s — the numbers ROADMAP item 9 defines success by — and non-test
# `static` items, thread-locals included: the process-global state ROADMAP
# item 4 counts down — then a `tests` row: the lines of the integration suites
# (`tests/*.rs` + `tests/common/*.rs`) and their `#[test]` functions, proptest
# properties included. A `#[cfg(test)]` item elsewhere in a file is counted
# like any other line. Run from anywhere; prints markdown tables.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# count FILE [REGEX]: the lines of FILE before its test module that match
# REGEX (every line when REGEX is empty).
count() {
  awk -v pat="${2:-}" '
    held { if ($0 ~ /^(pub(\([a-z]+\))? )?mod [A-Za-z_0-9]+ \{/) exit; held = 0; if ("#[cfg(test)]" ~ pat) c++ }
    /^#\[cfg\(test\)\]/ { held = 1; next }
    $0 ~ pat { c++ }
    END { print c + 0 }' "$1"
}
nontest() { count "$1"; }
pubs() { count "$1" '^[[:space:]]*pub (unsafe |const |async )*(fn|struct|enum|trait|type|const|static|mod|use) '; }
pub_mods() { count "$1" '^[[:space:]]*pub mod '; }
statics() { count "$1" '^[[:space:]]*(pub(\([a-z]+\))? )?static (mut )?[A-Z_0-9]+:'; }

echo "| crate | non-test lines | pub items | pub mods | statics |"
echo "|---|---:|---:|---:|---:|"
total_lines=0
total_pubs=0
total_mods=0
total_statics=0
for src in src crates/*/src crates/shims/*/src; do
  [ -d "$src" ] || continue
  lines=0
  items=0
  mods=0
  globals=0
  while IFS= read -r f; do
    lines=$((lines + $(nontest "$f")))
    items=$((items + $(pubs "$f")))
    mods=$((mods + $(pub_mods "$f")))
    globals=$((globals + $(statics "$f")))
  done < <(find "$src" -name '*.rs' | sort)
  [ "$lines" -gt 0 ] || continue
  echo "| ${src%/src} | $lines | $items | $mods | $globals |"
  total_lines=$((total_lines + lines))
  total_pubs=$((total_pubs + items))
  total_mods=$((total_mods + mods))
  total_statics=$((total_statics + globals))
done
echo "| **total** | $total_lines | $total_pubs | $total_mods | $total_statics |"

test_files=(tests/*.rs tests/common/*.rs)
echo
echo "| suite | lines | #[test] |"
echo "|---|---:|---:|"
echo "| tests | $(cat "${test_files[@]}" | wc -l) | $(cat "${test_files[@]}" | grep -c '#\[test\]') |"
