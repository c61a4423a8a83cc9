//! `trace`: per-layer metrics and spans. See `benchmark/README.md`.

fn main() {
    benchmark::cli::main(true)
}
