//! 64-byte-aligned `f64` storage for [`crate::Matrix`] buffers.
//!
//! `Vec<f64>` only guarantees 8-byte alignment, so on this repo's AVX-512
//! hosts every 512-bit row load in the blocked distance/GEMM kernels can
//! straddle a cache-line boundary and issue as two line accesses. [`AVec`]
//! backs the same slice view with a `Vec` of cache-line-sized lanes of
//! eight `f64`s (`#[repr(align(64))]`), so row-major slabs always start on
//! a line boundary and full-width vector loads stay single-line.
//!
//! Alignment is a pure load-efficiency property: the values, their order,
//! and every arithmetic result are unchanged, so swapping `Vec<f64>` for
//! [`AVec`] is bitwise invisible to all numeric outputs.

use std::ops::Deref;

/// Elements per lane.
const LANE: usize = 8;

/// One 64-byte cache line of eight `f64`s: the [`AVec`] allocation granule.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct LaneF64([f64; LANE]);

const _: () = assert!(std::mem::size_of::<LaneF64>() == 64);
const _: () = assert!(std::mem::align_of::<LaneF64>() == 64);

/// A growable `f64` buffer whose data pointer is always 64-byte aligned.
///
/// Dereferences to `[f64]`, so slice callers are untouched; only the
/// allocation strategy differs from `Vec<f64>`. Lane slots past `len` hold
/// unspecified values and are never exposed through the deref view.
#[derive(Clone, Default)]
pub struct AVec {
    lanes: Vec<LaneF64>,
    len: usize,
}

impl AVec {
    /// An empty buffer.
    pub fn new() -> Self {
        AVec::default()
    }

    /// An empty buffer with room for `n` elements before reallocating.
    pub fn with_capacity(n: usize) -> Self {
        AVec {
            lanes: Vec::with_capacity(n.div_ceil(LANE)),
            len: 0,
        }
    }

    /// A length-`n` buffer with every element set to `value`.
    pub fn from_elem(n: usize, value: f64) -> Self {
        AVec {
            lanes: vec![LaneF64([value; LANE]); n.div_ceil(LANE)],
            len: n,
        }
    }

    /// Copies a slice into a fresh aligned buffer.
    pub fn from_slice(s: &[f64]) -> Self {
        let mut v = AVec::with_capacity(s.len());
        v.extend_from_slice(s);
        v
    }

    /// Sets the length to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Resizes to `n` elements; new elements are set to `value`.
    pub fn resize(&mut self, n: usize, value: f64) {
        let need = n.div_ceil(LANE);
        if self.lanes.len() < need {
            self.lanes.resize(need, LaneF64([0.0; LANE]));
        }
        let old = self.len;
        self.len = n;
        if n > old {
            self[old..n].fill(value);
        }
    }

    /// Appends one element.
    pub fn push(&mut self, value: f64) {
        let need = (self.len + 1).div_ceil(LANE);
        if self.lanes.len() < need {
            self.lanes.push(LaneF64([0.0; LANE]));
        }
        self.len += 1;
        let i = self.len - 1;
        self[i] = value;
    }

    /// Appends every element of `s`.
    pub fn extend_from_slice(&mut self, s: &[f64]) {
        let old = self.len;
        let n = old + s.len();
        let need = n.div_ceil(LANE);
        if self.lanes.len() < need {
            self.lanes.resize(need, LaneF64([0.0; LANE]));
        }
        self.len = n;
        self[old..n].copy_from_slice(s);
    }
}

// Scoped like `par` and `distance::lanes8`: the crate denies unsafe code
// except for small audited blocks. Here it is the two raw-slice views below.
#[allow(unsafe_code)]
mod views {
    use super::AVec;
    use std::ops::{Deref, DerefMut};

    impl Deref for AVec {
        type Target = [f64];
        #[inline]
        fn deref(&self) -> &[f64] {
            // SAFETY: a lane is a `repr(C)` array of `LANE` `f64`s with no
            // padding (compile-time asserted above), so `lanes` is a
            // contiguous run of `LANE * lanes.len()` initialized elements
            // and `len <= LANE * lanes.len()` by construction in every
            // mutator.
            unsafe { std::slice::from_raw_parts(self.lanes.as_ptr().cast::<f64>(), self.len) }
        }
    }

    impl DerefMut for AVec {
        #[inline]
        fn deref_mut(&mut self) -> &mut [f64] {
            // SAFETY: as above; `&mut self` gives exclusive access.
            unsafe {
                std::slice::from_raw_parts_mut(self.lanes.as_mut_ptr().cast::<f64>(), self.len)
            }
        }
    }
}

impl std::fmt::Debug for AVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.deref(), f)
    }
}

// Compare only the live prefix; lane slots past `len` are unspecified.
impl PartialEq for AVec {
    fn eq(&self, other: &Self) -> bool {
        self.deref() == other.deref()
    }
}

impl FromIterator<f64> for AVec {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let iter = iter.into_iter();
        let mut v = AVec::with_capacity(iter.size_hint().0);
        for x in iter {
            v.push(x);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_pointer_is_64_byte_aligned() {
        for n in [1usize, 7, 8, 9, 512 * 32, 2048 * 32] {
            let v = AVec::from_elem(n, 1.5);
            assert_eq!(v.as_ptr() as usize % 64, 0, "n={n}");
            assert_eq!(v.len(), n);
            assert!(v.iter().all(|&x| x == 1.5));
        }
    }

    #[test]
    fn resize_grows_with_value_and_shrinks_len() {
        let mut v = AVec::from_slice(&[1.0, 2.0, 3.0]);
        v.resize(10, 7.0);
        assert_eq!(&v[..4], &[1.0, 2.0, 3.0, 7.0]);
        assert!(v[3..].iter().all(|&x| x == 7.0));
        v.resize(2, 0.0);
        assert_eq!(&v[..], &[1.0, 2.0]);
        // Regrow across the stale tail: new slots must take the fill value.
        v.resize(12, 0.0);
        assert_eq!(&v[..2], &[1.0, 2.0]);
        assert!(v[2..].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn push_and_extend_cross_lane_boundaries() {
        let mut v = AVec::new();
        for i in 0..20 {
            v.push(i as f64);
        }
        v.extend_from_slice(&[100.0, 101.0, 102.0]);
        assert_eq!(v.len(), 23);
        assert_eq!(v[7], 7.0);
        assert_eq!(v[8], 8.0);
        assert_eq!(v[22], 102.0);
    }

    #[test]
    fn collect_clone_and_eq_use_live_prefix_only() {
        let a: AVec = (0..11).map(|i| i as f64).collect();
        let mut b = a.clone();
        assert_eq!(a, b);
        b.resize(12, 0.0);
        assert_ne!(a, b);
        b.resize(11, 0.0);
        assert_eq!(a, b);
    }
}
