//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! property-testing crate.
//!
//! The build environment has no network access to a cargo registry, so this
//! crate implements the subset of the proptest API the workspace's tests
//! use:
//!
//! * the [`proptest!`] macro (including `#![proptest_config(..)]` and
//!   `arg in strategy` bindings);
//! * [`Strategy`] with [`Strategy::prop_map`], implemented for integer and
//!   float ranges;
//! * [`collection::vec`] and [`collection::btree_set`] with `usize`, range,
//!   or inclusive-range size specifiers;
//! * [`prop_assert!`] / [`prop_assert_eq!`] and
//!   [`ProptestConfig::with_cases`];
//! * [`run_property`], the case loop behind the macro, which
//!   `tests/oracle.rs` calls directly so one test can tally what its cases
//!   drew.
//!
//! Failing cases are re-run verbatim by re-seeding (each case prints its seed
//! on failure), but there is **no shrinking** — the real crate minimizes
//! counterexamples, this one reports them as drawn. Swap the path dependency
//! for the registry crate when a registry is reachable; only the
//! `run_property` call needs a change (to the registry crate's
//! `test_runner::TestRunner`).

#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::SeedableRng;

pub mod collection;
pub mod strategy;

pub use strategy::Strategy;

/// Re-exports matching `proptest::prelude::*` as far as this workspace uses it.
pub mod prelude {
    pub use crate::strategy::Strategy;
    pub use crate::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
}

/// Test-runner configuration (only `cases` is honored).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A default configuration overriding the number of cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Runs a property body over `config.cases` random cases. Called by the
/// [`proptest!`] expansion (and by `tests/oracle.rs`); not part of the
/// registry crate's API.
pub fn run_property(name: &str, config: &ProptestConfig, mut case: impl FnMut(&mut StdRng)) {
    // Deterministic but distinct per property: hash the property name (FNV-1a).
    let seed0 = name
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3));
    for i in 0..config.cases as u64 {
        let seed = seed0.wrapping_add(i);
        let mut rng = StdRng::seed_from_u64(seed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| case(&mut rng)));
        if let Err(payload) = outcome {
            eprintln!("proptest stand-in: property `{name}` failed on case {i} (seed {seed:#x}); no shrinking — values are as drawn");
            std::panic::resume_unwind(payload);
        }
    }
}

/// Defines `#[test]` functions whose arguments are drawn from strategies.
///
/// Supports the same surface shape as proptest's macro:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn my_property(x in 0u64..10, v in collection::vec(0u32..5, 3)) { ... }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:ident in $strategy:expr),* $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                let strategies = ( $($strategy,)* );
                let ( $(ref $arg,)* ) = strategies;
                $crate::run_property(stringify!($name), &config, |rng| {
                    $(let $arg = $crate::Strategy::generate($arg, rng);)*
                    $body
                });
            }
        )*
    };
    ( $( $(#[$meta:meta])* fn $name:ident $rest:tt $body:block )* ) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $( $(#[$meta])* fn $name $rest $body )*
        }
    };
}

/// Assert inside a property body (maps to `assert!`; no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Assert equality inside a property body (maps to `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}
