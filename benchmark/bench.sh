#!/usr/bin/env bash
# The benchmark's command (see ../BENCHMARK.json). Builds the package from
# source in this checkout, then runs the binary the arguments ask for:
#   bash benchmark/bench.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# `run` honours `--trace` itself (`trace` is the same program with tracing on
# by default). The last line of standard output is the result object.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins >&2
exec "$target/release/run" "$@"
