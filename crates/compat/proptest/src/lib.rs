//! Offline stand-in for the real `proptest` crate.
//!
//! The workspace builds without network access, so this shim implements the subset of the
//! proptest API its tests use: the [`strategy::Strategy`] trait with range / `Just` /
//! `prop_oneof!` / `collection::vec` / `bool::ANY` strategies, the [`proptest!`] macro, and the
//! `prop_assert*` macros.  Each property runs for a configurable number of cases with inputs
//! drawn from a deterministic per-test RNG (seeded from the test name), so failures are
//! reproducible run to run.  There is no shrinking and no persisted failure corpus; swap the
//! path dependency for the crates.io release to get those, with no call-site changes.

/// Strategies: how input values are drawn.
pub mod strategy {
    use crate::test_runner::TestRng;

    /// A source of random values of one type (the sampling subset of proptest's trait).
    pub trait Strategy {
        /// The type of value produced.
        type Value;
        /// Draw one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;
    }

    /// Strategy producing one fixed value (proptest's `Just`).
    #[derive(Debug, Clone, Copy)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + (rng.next_u64() % span) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo) as u64;
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    lo + (rng.next_u64() % (span + 1)) as $t
                }
            }
        )*};
    }

    impl_int_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! impl_float_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    self.start + (self.end - self.start) * (rng.next_f64() as $t)
                }
            }
        )*};
    }

    impl_float_range_strategy!(f32, f64);

    /// Uniform choice among boxed sub-strategies (what [`prop_oneof!`](crate::prop_oneof)
    /// builds).
    pub struct OneOf<V> {
        options: Vec<Box<dyn Strategy<Value = V>>>,
    }

    impl<V> OneOf<V> {
        /// Build from a non-empty list of boxed strategies.
        pub fn new(options: Vec<Box<dyn Strategy<Value = V>>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one option");
            OneOf { options }
        }
    }

    impl<V> Strategy for OneOf<V> {
        type Value = V;
        fn sample(&self, rng: &mut TestRng) -> V {
            let idx = (rng.next_u64() % self.options.len() as u64) as usize;
            self.options[idx].sample(rng)
        }
    }
}

/// Boolean strategies (`proptest::bool::ANY`).
pub mod bool {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy drawing `true` / `false` with equal probability.
    #[derive(Debug, Clone, Copy)]
    pub struct AnyBool;

    /// Any boolean value.
    pub const ANY: AnyBool = AnyBool;

    impl Strategy for AnyBool {
        type Value = bool;
        fn sample(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy for a `Vec` with element strategy `S` and a length range.
    pub struct VecStrategy<S> {
        element: S,
        len: std::ops::Range<usize>,
    }

    /// A `Vec` whose length is drawn from `len` and whose elements are drawn from `element`.
    pub fn vec<S: Strategy>(element: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range");
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start) as u64;
            let n = self.len.start + (rng.next_u64() % span) as usize;
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// The test runner: per-property configuration and the deterministic RNG.
pub mod test_runner {
    /// Per-property configuration (only the case count in this shim).
    #[derive(Debug, Clone, Copy)]
    pub struct ProptestConfig {
        /// Number of random cases to execute.
        pub cases: u32,
    }

    /// The case count when `PROPTEST_CASES` is unset.
    const DEFAULT_CASES: u32 = 64;

    impl Default for ProptestConfig {
        /// Like the real crate, the default case count can be overridden with the
        /// `PROPTEST_CASES` environment variable; an explicit [`ProptestConfig::with_cases`]
        /// still wins over it.
        fn default() -> Self {
            let var = std::env::var("PROPTEST_CASES").ok();
            ProptestConfig {
                cases: cases_from_env(var.as_deref()),
            }
        }
    }

    impl ProptestConfig {
        /// Run the property for `cases` random cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// The default case count given the value of `PROPTEST_CASES`: unset means
    /// `DEFAULT_CASES`, and a value that does not parse warns and falls back to it, as the
    /// real crate does.
    fn cases_from_env(var: Option<&str>) -> u32 {
        match var.map(str::parse::<u32>) {
            None => DEFAULT_CASES,
            Some(Ok(cases)) => cases,
            Some(Err(_)) => {
                eprintln!(
                    "proptest: PROPTEST_CASES={:?} is not a u32; using {DEFAULT_CASES} cases",
                    var.unwrap_or_default()
                );
                DEFAULT_CASES
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn proptest_cases_sets_the_default_but_not_an_explicit_count() {
            assert_eq!(cases_from_env(None), DEFAULT_CASES);
            assert_eq!(cases_from_env(Some("4096")), 4096);
            assert_eq!(cases_from_env(Some("many")), DEFAULT_CASES);
            assert_eq!(ProptestConfig::with_cases(7).cases, 7);
        }
    }

    /// Deterministic splitmix64 RNG; seeded from the property's name so each test draws a
    /// stable, independent stream.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seed from a label (the test function name).
        pub fn deterministic(label: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in label.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng { state: h }
        }

        /// Next 64 random bits (splitmix64).
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform `f64` in `[0, 1)`.
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

/// Everything a property-test file usually imports.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Uniform choice among several strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {{
        let options: ::std::vec::Vec<
            ::std::boxed::Box<dyn $crate::strategy::Strategy<Value = _>>,
        > = vec![$(::std::boxed::Box::new($strategy)),+];
        $crate::strategy::OneOf::new(options)
    }};
}

/// Assert inside a property (plain `assert!` in this shim — no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Assert equality inside a property (plain `assert_eq!` in this shim).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Define property tests: each `fn name(arg in strategy, ...) { body }` becomes a `#[test]`
/// that runs the body for `cases` sampled inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            config = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $config:expr;
     $($(#[$meta:meta])*
       fn $name:ident($($arg:ident in $strategy:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $config;
                let mut rng = $crate::test_runner::TestRng::deterministic(stringify!($name));
                for _case in 0..config.cases {
                    $(let $arg = $crate::strategy::Strategy::sample(&($strategy), &mut rng);)*
                    $body
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn small_even() -> impl Strategy<Value = u64> {
        prop_oneof![Just(0u64), Just(2u64), Just(4u64)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 10u64..20, y in 0.5f64..1.5, n in 1usize..4) {
            prop_assert!((10..20).contains(&x));
            prop_assert!((0.5..1.5).contains(&y));
            prop_assert!((1..4).contains(&n));
        }

        #[test]
        fn oneof_and_collections(e in small_even(), v in crate::collection::vec(0u64..5, 1..10), b in crate::bool::ANY) {
            prop_assert_eq!(e % 2, 0);
            prop_assert!(!v.is_empty() && v.len() < 10);
            prop_assert!(v.iter().all(|&x| x < 5));
            prop_assert!(u8::from(b) <= 1);
        }
    }

    #[test]
    fn rng_is_deterministic_per_label() {
        let mut a = crate::test_runner::TestRng::deterministic("t");
        let mut b = crate::test_runner::TestRng::deterministic("t");
        let mut c = crate::test_runner::TestRng::deterministic("u");
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }
}
