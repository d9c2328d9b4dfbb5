//! Offline shim for `proptest`.
//!
//! The build container cannot reach crates.io, so the workspace vendors
//! the subset of the proptest API its tests use: the [`proptest!`] macro
//! (with `#![proptest_config(...)]`), `prop_assert!`/`prop_assert_eq!`,
//! [`arbitrary::any`], integer/float range strategies, tuple strategies
//! and [`collection::vec`]. Differences from the real crate, deliberate
//! for a shim:
//!
//! - Inputs are drawn from a generator seeded by the test's module path
//!   and name — fully deterministic across runs and machines, no
//!   persistence files.
//! - No shrinking. On failure the offending inputs are printed verbatim
//!   (they are reproducible anyway, since the stream is fixed).
//! - `prop_assert*` panics directly instead of returning `Result`.

pub use rand;

/// Strategies: how to draw a value of some type.
pub mod strategy {
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for drawing values of type [`Strategy::Value`].
    pub trait Strategy {
        /// The type of value this strategy produces.
        type Value;
        /// Draw one value.
        fn pick(&self, rng: &mut TestRng) -> Self::Value;
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn pick(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn pick(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    int_range_strategy!(u64, u32, usize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn pick(&self, rng: &mut TestRng) -> f64 {
            rng.gen_range(self.clone())
        }
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident $idx:tt),+)),*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn pick(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.pick(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy!((A 0, B 1), (A 0, B 1, C 2), (A 0, B 1, C 2, D 3));
}

/// `any::<T>()`: the canonical full-domain strategy for a type.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::marker::PhantomData;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary {
        /// Draw one value from the type's full domain.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! int_arbitrary {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.gen::<u64>() as $t
                }
            }
        )*};
    }

    int_arbitrary!(u64, u32, u16, u8, usize, i64, i32);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.gen::<bool>()
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            rng.gen::<f64>()
        }
    }

    /// Strategy returned by [`any`].
    pub struct Any<A>(PhantomData<A>);

    impl<A: Arbitrary> Strategy for Any<A> {
        type Value = A;
        fn pick(&self, rng: &mut TestRng) -> A {
            A::arbitrary(rng)
        }
    }

    /// The full-domain strategy for `A`.
    pub fn any<A: Arbitrary>() -> Any<A> {
        Any(PhantomData)
    }
}

/// Collection strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::ops::Range;

    /// A length distribution for generated collections.
    pub struct SizeRange {
        lo: usize,
        hi_exclusive: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_exclusive: r.end,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange {
                lo: n,
                hi_exclusive: n + 1,
            }
        }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn pick(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.lo..self.size.hi_exclusive);
            (0..len).map(|_| self.element.pick(rng)).collect()
        }
    }

    /// A `Vec` whose length is drawn from `size` and whose elements are
    /// drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Test-execution plumbing used by the [`proptest!`] expansion.
pub mod test_runner {
    /// The generator property tests draw from.
    pub type TestRng = rand::rngs::StdRng;

    /// Per-block configuration (`#![proptest_config(...)]`).
    #[derive(Clone, Copy, Debug)]
    pub struct ProptestConfig {
        /// Number of generated cases per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` generated inputs per test.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 256 }
        }
    }

    /// Deterministic per-test seed: FNV-1a of the fully qualified name.
    pub fn rng_for(test_path: &str) -> TestRng {
        use rand::SeedableRng;
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_path.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng::seed_from_u64(h)
    }

    /// Prints the generated inputs if the test body panics, so failures
    /// are diagnosable without shrinking.
    pub struct FailureWatch(pub String);

    impl Drop for FailureWatch {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("proptest case failed with inputs: {}", self.0);
            }
        }
    }
}

/// Define property tests: each `arg in strategy` is drawn per case.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ( ($cfg:expr) $( $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )* ) => {$(
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::test_runner::ProptestConfig = $cfg;
            let mut __rng =
                $crate::test_runner::rng_for(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__cfg.cases {
                $(let $arg = $crate::strategy::Strategy::pick(&($strat), &mut __rng);)+
                let __watch = $crate::test_runner::FailureWatch(::std::format!(
                    concat!("case #{}:", $(" ", stringify!($arg), " = {:?}"),+),
                    __case, $(&$arg),+
                ));
                $body
                ::std::mem::drop(__watch);
            }
        }
    )*};
}

/// Assert a condition inside a property test (panics on failure).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)+) => { ::std::assert!($($args)+) };
}

/// Assert equality inside a property test (panics on failure).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)+) => { ::std::assert_eq!($($args)+) };
}

/// The glob-import surface: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, proptest};

    /// Namespaced strategy constructors (`prop::collection::vec`).
    pub mod prop {
        pub use crate::collection;
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_vecs_stay_in_domain(
            x in 3u64..9,
            f in 0.5f64..1.5,
            v in prop::collection::vec((0u64..4, any::<bool>()), 2..10),
        ) {
            prop_assert!((3..9).contains(&x));
            prop_assert!((0.5..1.5).contains(&f));
            prop_assert!((2..10).contains(&v.len()));
            prop_assert!(v.iter().all(|&(n, _)| n < 4));
        }
    }

    #[test]
    fn streams_are_deterministic_per_test_name() {
        let mut a = crate::test_runner::rng_for("mod::a");
        let mut b = crate::test_runner::rng_for("mod::a");
        let mut c = crate::test_runner::rng_for("mod::c");
        use rand::Rng;
        let (x, y, z) = (a.gen::<u64>(), b.gen::<u64>(), c.gen::<u64>());
        assert_eq!(x, y);
        assert_ne!(x, z);
    }
}
