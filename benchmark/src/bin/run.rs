//! `run`: end-to-end metrics, untraced. See `benchmark/README.md`.

fn main() {
    benchmark::cli::main(false)
}
