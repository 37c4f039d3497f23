//! In-tree, std-only subset of the `proptest` API.
//!
//! The build environment is hermetic (no crates.io), so this crate provides
//! the slice of proptest the workspace actually uses: the [`Strategy`]
//! trait with `prop_map`/`prop_flat_map`, range and tuple strategies, a
//! tiny character-class string strategy, `collection::{vec, hash_set}`, and
//! the [`proptest!`]/[`prop_assert!`] macros. Generation is seeded
//! deterministically from the test name, so failures reproduce; there is no
//! shrinking — the failing inputs are printed instead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashSet;
use std::hash::Hash;
use std::ops::Range;

/// Common imports, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, ProptestConfig,
        Strategy, TestCaseError,
    };
}

/// Per-`proptest!`-block configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each test runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` random cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Why a generated case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` filtered the case out; it is skipped, not failed.
    Reject,
    /// An assertion failed with this message.
    Fail(String),
}

/// Deterministic generator state (splitmix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a raw seed.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`; returns 0 when `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Builds the deterministic generator for a named test (FNV-1a of the name).
pub fn test_rng(test_name: &str) -> TestRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    TestRng::new(h)
}

/// A source of random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms generated values.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> MapStrategy<Self, F>
    where
        Self: Sized,
    {
        MapStrategy { inner: self, f }
    }

    /// Builds a dependent strategy from each generated value.
    fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(self, f: F) -> FlatMapStrategy<Self, F>
    where
        Self: Sized,
    {
        FlatMapStrategy { inner: self, f }
    }
}

/// Result of [`Strategy::prop_map`].
pub struct MapStrategy<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for MapStrategy<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Result of [`Strategy::prop_flat_map`].
pub struct FlatMapStrategy<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMapStrategy<S, F> {
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (self.end as i128 - self.start as i128).max(1) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(usize, u8, u16, u32, u64, isize, i8, i16, i32, i64);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn generate(&self, rng: &mut TestRng) -> f32 {
        self.start + rng.unit_f64() as f32 * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// A string literal is a pattern strategy over a small regex-like subset:
/// sequences of literal characters or `[a-z0-9]`-style classes, each with an
/// optional `{n}` / `{m,n}` / `?` / `*` / `+` repetition.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let items = parse_pattern(self);
        let mut out = String::new();
        for (chars, lo, hi) in &items {
            let n = lo + rng.below((hi - lo + 1) as u64) as usize;
            for _ in 0..n {
                out.push(chars[rng.below(chars.len() as u64) as usize]);
            }
        }
        out
    }
}

/// Parses the pattern into `(alternatives, min_reps, max_reps)` items.
fn parse_pattern(pattern: &str) -> Vec<(Vec<char>, usize, usize)> {
    let chars: Vec<char> = pattern.chars().collect();
    let mut items = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let set: Vec<char> = if chars[i] == '[' {
            let close = chars[i..]
                .iter()
                .position(|&c| c == ']')
                .map(|p| i + p)
                .unwrap_or_else(|| panic!("unclosed '[' in pattern {pattern:?}"));
            let mut set = Vec::new();
            let mut j = i + 1;
            while j < close {
                if j + 2 < close && chars[j + 1] == '-' {
                    let (a, b) = (chars[j], chars[j + 2]);
                    for c in a..=b {
                        set.push(c);
                    }
                    j += 3;
                } else {
                    set.push(chars[j]);
                    j += 1;
                }
            }
            i = close + 1;
            set
        } else {
            let c = if chars[i] == '\\' && i + 1 < chars.len() {
                i += 1;
                chars[i]
            } else {
                chars[i]
            };
            i += 1;
            vec![c]
        };
        let (lo, hi) = match chars.get(i) {
            Some('{') => {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == '}')
                    .map(|p| i + p)
                    .unwrap_or_else(|| panic!("unclosed '{{' in pattern {pattern:?}"));
                let body: String = chars[i + 1..close].iter().collect();
                i = close + 1;
                match body.split_once(',') {
                    Some((a, b)) => (
                        a.trim().parse().expect("bad repetition"),
                        b.trim().parse().expect("bad repetition"),
                    ),
                    None => {
                        let n = body.trim().parse().expect("bad repetition");
                        (n, n)
                    }
                }
            }
            Some('?') => {
                i += 1;
                (0, 1)
            }
            Some('*') => {
                i += 1;
                (0, 8)
            }
            Some('+') => {
                i += 1;
                (1, 8)
            }
            _ => (1, 1),
        };
        items.push((set, lo, hi));
    }
    items
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::*;

    /// Inclusive-exclusive element-count bound for collection strategies.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            SizeRange {
                lo: r.start,
                hi: r.end.max(r.start + 1),
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy for `HashSet<S::Value>`; duplicates are dropped, so the set
    /// may come out smaller than the drawn size.
    pub fn hash_set<S: Strategy>(element: S, size: impl Into<SizeRange>) -> HashSetStrategy<S>
    where
        S::Value: Eq + Hash,
    {
        HashSetStrategy {
            element,
            size: size.into(),
        }
    }

    /// Result of [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.lo + rng.below((self.size.hi - self.size.lo) as u64) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Result of [`hash_set`].
    pub struct HashSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for HashSetStrategy<S>
    where
        S::Value: Eq + Hash,
    {
        type Value = HashSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> HashSet<S::Value> {
            let n = self.size.lo + rng.below((self.size.hi - self.size.lo) as u64) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that runs the body over `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!(($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!(($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::test_rng(stringify!($name));
            for case in 0..config.cases {
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)*
                let inputs = {
                    let mut s = ::std::string::String::new();
                    $(
                        s.push_str(concat!(stringify!($arg), " = "));
                        s.push_str(&::std::format!("{:?}, ", &$arg));
                    )*
                    s
                };
                let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                    (move || {
                        $body
                        Ok(())
                    })();
                match outcome {
                    Ok(()) | Err($crate::TestCaseError::Reject) => {}
                    Err($crate::TestCaseError::Fail(msg)) => panic!(
                        "proptest {} failed on case {case}: {msg}\n  inputs: {inputs}",
                        stringify!($name),
                    ),
                }
            }
        }
        $crate::__proptest_items!(($cfg) $($rest)*);
    };
}

/// Fails the current case unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(
                ::std::format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(
                ::std::format!($($fmt)+),
            ));
        }
    };
}

/// Fails the current case unless both sides compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(, $($fmt:tt)+)?) => {
        match (&$a, &$b) {
            (left, right) => {
                if !(left == right) {
                    return ::std::result::Result::Err($crate::TestCaseError::Fail(
                        ::std::format!(
                            "assertion failed: {} == {}\n  left: {:?}\n  right: {:?}",
                            stringify!($a),
                            stringify!($b),
                            left,
                            right,
                        ),
                    ));
                }
            }
        }
    };
}

/// Fails the current case if both sides compare equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(, $($fmt:tt)+)?) => {
        match (&$a, &$b) {
            (left, right) => {
                if left == right {
                    return ::std::result::Result::Err($crate::TestCaseError::Fail(
                        ::std::format!(
                            "assertion failed: {} != {}\n  both: {:?}",
                            stringify!($a),
                            stringify!($b),
                            left,
                        ),
                    ));
                }
            }
        }
    };
}

/// Skips the current case (rejects it) unless the condition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = test_rng("ranges");
        for _ in 0..200 {
            let u = (3usize..9).generate(&mut rng);
            assert!((3..9).contains(&u));
            let i = (-5i64..5).generate(&mut rng);
            assert!((-5..5).contains(&i));
            let f = (-2.0f64..2.0).generate(&mut rng);
            assert!((-2.0..2.0).contains(&f));
        }
    }

    #[test]
    fn string_pattern_subset() {
        let mut rng = test_rng("pattern");
        for _ in 0..100 {
            let s = "[a-z]{0,8}".generate(&mut rng);
            assert!(s.len() <= 8);
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));
            let t = "x[0-9]{2}".generate(&mut rng);
            assert_eq!(t.len(), 3);
            assert!(t.starts_with('x'));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let strat = collection::vec(0usize..100, 5usize);
        let a = strat.generate(&mut test_rng("same"));
        let b = strat.generate(&mut test_rng("same"));
        assert_eq!(a, b);
    }

    #[test]
    fn map_and_flat_map_compose() {
        let strat = (1usize..4, 1usize..4)
            .prop_flat_map(|(r, c)| collection::vec(0i64..10, r * c).prop_map(move |v| (r, c, v)));
        let mut rng = test_rng("compose");
        for _ in 0..50 {
            let (r, c, v) = strat.generate(&mut rng);
            assert_eq!(v.len(), r * c);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_end_to_end(a in 0usize..50, b in 0usize..50) {
            prop_assume!(a != b);
            prop_assert!(a + b < 100);
            prop_assert_eq!(a + b, b + a);
            prop_assert_ne!(a, b);
        }
    }
}
