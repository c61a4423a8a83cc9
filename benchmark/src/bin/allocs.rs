//! `allocs`: the allocation count of one sequential op, for the traced run's
//! `factor.allocs_per_op`. The counting allocator is installed only here, so
//! neither the end-to-end nor the per-layer times pay for it.

#[global_allocator]
static ALLOC: benchmark::api::CountingAllocator = benchmark::api::CountingAllocator;

fn main() {
    benchmark::cli::allocs_main()
}
