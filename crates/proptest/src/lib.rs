//! Std-only, in-tree stand-in for the `proptest` crate.
//!
//! The offline build environment cannot fetch crates from a registry, so the
//! workspace's property suites link against this shim instead (via a cargo
//! dependency rename: `proptest = { package = "tesseract-proptest", .. }`).
//! It implements exactly the subset the suites use:
//!
//! * [`Strategy`] with [`Strategy::prop_map`],
//! * range strategies (`lo..hi`) for `usize`, `u64`, `i64`, `f32`, `f64`,
//! * tuple strategies up to arity 6,
//! * [`collection::vec`] with a fixed length,
//! * the [`proptest!`] macro with an optional
//!   `#![proptest_config(ProptestConfig::with_cases(n))]` header,
//! * [`prop_assert!`] / [`prop_assert_eq!`].
//!
//! Unlike real proptest there is no shrinking and no failure persistence:
//! cases are generated from a deterministic per-test seed (hashed from the
//! test name), so every run explores the same inputs and failures reproduce
//! exactly. That trade keeps the shim small while preserving what the suites
//! actually rely on: broad deterministic input coverage.

/// How many cases a `proptest!` test runs.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

/// Deterministic case-generation RNG (splitmix64).
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn from_seed(seed: u64) -> Self {
        Self { state: seed ^ 0x9e37_79b9_7f4a_7c15 }
    }

    /// Seeds from a test name so each test walks its own input sequence.
    pub fn from_name(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Self::from_seed(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`; `bound` must be nonzero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        // Multiply-shift reduction; bias is negligible for test-case bounds.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A generator of values of one type. The shim keeps the real crate's name
/// and combinator spelling so test code is source-compatible.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Output of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + rng.next_below(span) as $t
            }
        }
    )*};
}

int_range_strategy!(usize, u64, u32, u16, u8);

macro_rules! signed_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i64).wrapping_sub(self.start as i64) as u64;
                (self.start as i64).wrapping_add(rng.next_below(span) as i64) as $t
            }
        }
    )*};
}

signed_range_strategy!(i64, i32, i16, i8, isize);

macro_rules! float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let u = rng.next_unit_f64();
                let v = self.start as f64 + u * (self.end as f64 - self.start as f64);
                // Clamp: rounding at the top of a narrow f32 range could
                // otherwise land exactly on `end`.
                if v as $t >= self.end { self.start } else { v as $t }
            }
        }
    )*};
}

float_range_strategy!(f32, f64);

macro_rules! tuple_strategy {
    ($(($($s:ident / $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A/0)
    (A/0, B/1)
    (A/0, B/1, C/2)
    (A/0, B/1, C/2, D/3)
    (A/0, B/1, C/2, D/3, E/4)
    (A/0, B/1, C/2, D/3, E/4, F/5)
}

pub mod collection {
    use super::{Strategy, TestRng};

    /// `Vec` of exactly `len` elements drawn from `element`. (The real crate
    /// also accepts size ranges; the workspace only uses fixed lengths.)
    pub fn vec<S: Strategy>(element: S, len: usize) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    pub struct VecStrategy<S> {
        element: S,
        len: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            (0..self.len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Drop-in for proptest's assertion: failure aborts the current case with a
/// panic carrying the formatted message (no shrinking to re-run, so a plain
/// assert is the honest equivalent).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// The `proptest!` block: an optional config header followed by `#[test]`
/// functions whose arguments are `pattern in strategy` bindings.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($tail:tt)*) => {
        $crate::__proptest_impl! { ($cfg); $($tail)* }
    };
    ($($tail:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()); $($tail)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr); ) => {};
    (($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
     $($tail:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::from_name(concat!(module_path!(), "::", stringify!($name)));
            for _case in 0..config.cases {
                let ($($pat,)+) =
                    $crate::Strategy::generate(&($($strat,)+), &mut rng);
                $body
            }
        }
        $crate::__proptest_impl! { ($cfg); $($tail)* }
    };
}

pub mod prelude {
    /// Alias so `proptest::prelude::prop::collection::vec` style paths work.
    pub use crate as prop;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, ProptestConfig, Strategy,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::from_seed(7);
        for _ in 0..1000 {
            let v = (3usize..17).generate(&mut rng);
            assert!((3..17).contains(&v));
            let f = (-2.0f32..2.0).generate(&mut rng);
            assert!((-2.0..2.0).contains(&f));
            let s = (-5i32..-1).generate(&mut rng);
            assert!((-5..-1).contains(&s));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let mut a = TestRng::from_name("x");
        let mut b = TestRng::from_name("x");
        let s = (0u64..1000, 0.0f32..1.0);
        for _ in 0..100 {
            assert_eq!(s.0.generate(&mut a), s.0.generate(&mut b));
        }
    }

    #[test]
    fn prop_map_and_vec_compose() {
        let mut rng = TestRng::from_seed(1);
        let strat = collection::vec(0usize..10, 5).prop_map(|v| v.len());
        assert_eq!(strat.generate(&mut rng), 5);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_binds_tuples((a, b) in (0usize..5, 0usize..5), c in 0u64..3) {
            prop_assert!(a < 5 && b < 5);
            prop_assert!(c < 3);
        }
    }
}
