#!/usr/bin/env bash
# Mutation check: apply each mutant of a list to a scratch `git worktree` of
# HEAD, run only the test named for it, and print a kill table. Exits 1 when
# a mutant survives (its test still passes), no longer applies (its old text
# is not in the file exactly once) or no longer builds, or when a named test
# fails on the unmutated tree.
#
#   bash scripts/mutants.sh [list]          # default: scripts/mutants.txt
#
# List format: one mutant per line, four tab-separated, non-empty fields:
#
#   file <TAB> old text <TAB> new text <TAB> cargo test arguments
#
# `file` is relative to the repository root; `\n` and `\t` in the two texts
# stand for a newline and a tab; the arguments follow `cargo test --offline
# -q` (a package or `--test` target, then a test-name filter). A `#` line
# labels the mutant after it; blank lines are ignored. The worktree and its
# build directory live under one temporary directory, removed on exit; set
# CARGO_TARGET_DIR to keep the build between runs.
set -euo pipefail

repo="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
list="$(realpath "${1:-$repo/scripts/mutants.txt}")"
tmp="$(mktemp -d)"
wt="$tmp/tree"
cleanup() {
    git -C "$repo" worktree remove --force "$wt" >/dev/null 2>&1 || true
    rm -rf "$tmp"
}
trap cleanup EXIT
git -C "$repo" worktree add --quiet --detach "$wt" HEAD
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$tmp/target}"
log="$tmp/log"

# Run `cargo test --offline -q <args>` in the worktree; 0 = passed,
# 1 = failed, 2 = did not build.
run_test() {
    local -a argv
    read -r -a argv <<<"$1"
    (cd "$wt" && cargo test --offline -q --no-run "${argv[@]}") >"$log" 2>&1 || return 2
    (cd "$wt" && cargo test --offline -q "${argv[@]}") >"$log" 2>&1 || return 1
}

# Parse the list: labels, files, texts, tests.
labels=() files=() olds=() news=() tests=()
label=""
while IFS= read -r line || [[ -n "$line" ]]; do
    case "$line" in
        "") continue ;;
        "#"*) label="${line#\#}"; label="${label# }"; continue ;;
    esac
    IFS=$'\t' read -r file old new args extra <<<"$line"
    if [[ -z "${args:-}" || -n "${extra:-}" ]]; then
        echo "mutants: malformed line (need four tab-separated fields): $line" >&2
        exit 1
    fi
    labels+=("${label:-$file}") files+=("$file") olds+=("$old") news+=("$new") tests+=("$args")
    label=""
done <"$list"
echo "mutants: ${#files[@]} mutants from ${list#"$repo"/}, at $(git -C "$wt" rev-parse --short HEAD)"

# Every named test must pass on the clean tree, or a "kill" proves nothing.
status=0
mapfile -t distinct < <(printf '%s\n' "${tests[@]}" | sort -u)
for t in "${distinct[@]}"; do
    if ! run_test "$t"; then
        echo "mutants: fails unmutated: cargo test $t" >&2
        tail -n 20 "$log" >&2
        status=1
    fi
done
[[ $status -eq 0 ]] || exit 1

printf '\n| # | mutant | file | test | result |\n|---|---|---|---|---|\n'
for i in "${!files[@]}"; do
    f="$wt/${files[$i]}"
    printf -v old '%b' "${olds[$i]}"
    printf -v new '%b' "${news[$i]}"
    result=""
    if [[ ! -f "$f" ]]; then
        result="NO FILE"
    else
        content="$(<"$f")"
        rest="${content#*"$old"}"
        if [[ "$rest" == "$content" ]]; then
            result="OLD TEXT NOT FOUND"
        elif [[ "$rest" == *"$old"* ]]; then
            result="OLD TEXT NOT UNIQUE"
        else
            printf '%s\n' "${content/"$old"/"$new"}" >"$f"
            rc=0
            run_test "${tests[$i]}" || rc=$?
            case $rc in
                0) result="SURVIVED" ;;
                1) result="killed" ;;
                *) result="DOES NOT BUILD" ;;
            esac
            git -C "$wt" checkout --quiet -- "${files[$i]}"
        fi
    fi
    [[ "$result" == "killed" ]] || status=1
    printf '| %d | %s | %s | `%s` | %s |\n' "$((i + 1))" "${labels[$i]}" "${files[$i]}" \
        "${tests[$i]}" "$result"
done
if [[ $status -ne 0 ]]; then
    echo "mutants: not every mutant was killed" >&2
fi
exit $status
