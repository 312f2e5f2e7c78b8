//! A self-contained, offline property-testing shim exposing the subset
//! of the `proptest` crate's API that this workspace uses.
//!
//! The build environment has no network access to a crates registry,
//! so the real `proptest` cannot be vendored. The tests only rely on a
//! small, stable slice of its surface — `proptest!`, `prop_assert*`,
//! `prop_oneof!`, `any::<T>()`, integer-range strategies, tuple
//! strategies with `prop_map`, and `collection::vec` — which this
//! crate reimplements on top of a deterministic xorshift generator.
//!
//! Differences from the real crate, by design:
//!
//! * **No shrinking.** A failing case reports the generated inputs
//!   (via the panic message) but does not minimize them.
//! * **Deterministic seeding.** The RNG seed is derived from the test
//!   function's name, so every run explores the same cases — failures
//!   reproduce without a persistence file. `RVCAP_PROPTEST_SEED`
//!   overrides the seed and a failure prints the seed it ran with
//!   (see [`test_runner`]).
//! * **Default case count is 64** (the real default of 256 is tuned
//!   for shrinking support; see [`test_runner::ProptestConfig`]);
//!   `RVCAP_PROPTEST_CASES` overrides it.

pub mod arbitrary;
pub mod collection;
pub mod strategy;
pub mod test_runner;

/// Everything the tests import.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Declare property tests. Mirrors `proptest::proptest!`:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(16))]
///     #[test]
///     fn my_prop(x in 0u32..100, v in proptest::collection::vec(any::<u8>(), 0..64)) {
///         prop_assert!(x < 100);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::test_runner::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr); $($(#[$meta:meta])+ fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])+
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let config = config.with_env_overrides();
                let seed = $crate::test_runner::seed_for(stringify!($name));
                let mut rng = $crate::test_runner::TestRng::from_seed(seed);
                for case in 0..config.cases {
                    let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| {
                            $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                            $body
                            #[allow(unreachable_code)]
                            ::std::result::Result::Ok(())
                        })();
                    if let ::std::result::Result::Err(e) = outcome {
                        ::std::panic!(
                            "proptest case {case} of {} failed (seed {seed:#x}; replay with {}={seed:#x}): {e}",
                            config.cases,
                            $crate::test_runner::SEED_ENV,
                        );
                    }
                }
            }
        )*
    };
}

/// `prop_assert!(cond)` / `prop_assert!(cond, "format", ...)` —
/// soft-fails the current case (reported with the case number).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!($($fmt)+),
            ));
        }
    };
}

/// `prop_assert_eq!(a, b)` with optional trailing format message.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "assertion failed: {:?} != {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if !(a == b) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!(
                    "{} ({:?} != {:?})",
                    ::std::format!($($fmt)+),
                    a,
                    b
                ),
            ));
        }
    }};
}

/// `prop_assert_ne!(a, b)` with optional trailing format message.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, "assertion failed: {:?} == {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, $($fmt)+);
    }};
}

/// Uniform choice among strategies producing the same value type.
/// Weights (`n => strat`) are accepted and honoured.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]
        #[test]
        #[should_panic(expected = "replay with RVCAP_PROPTEST_SEED=0x")]
        fn failing_case_reports_its_seed(x in 0u32..10) {
            prop_assert!(x > 100);
        }
    }
}
