//! Vector distances and similarity measures used throughout query selection
//! (diversified typicality) and clustering.
//!
//! Two families live here:
//!
//! * **Scalar reference functions** ([`euclidean`], [`squared_euclidean`],
//!   …) — one pair at a time, a single ascending accumulation chain.
//! * **Blocked kernels** ([`row_norms_sq_into`], [`pairwise_sq_into`],
//!   [`dists_to_row_into`], [`indexed_dists_to_row_into`]) — batched
//!   distances computed with the Gram trick
//!   `D²(i,j) = |xᵢ|² + |yⱼ|² − 2·xᵢ·yⱼᵀ`, routed through the
//!   register-tiled GEMM and the [`crate::Workspace`] pool.
//!
//! Contract for the blocked kernels (see DESIGN.md §6b.2):
//!
//! * **Thread-count invariant.** Every output element is written by
//!   exactly one chunk and computed with a fixed accumulation order, so
//!   results are bitwise identical under any `GALE_THREADS`.
//! * **Tolerance vs the scalar path.** The Gram trick reassociates the
//!   arithmetic, so blocked results are *not* bitwise equal to the scalar
//!   reference; they match within `1e-9` relative to the operand norm
//!   scale (`1 + |x|² + |y|²`), enforced by property tests. Negative
//!   round-off is clamped to zero before any `sqrt`.

/// Euclidean (L2) distance between two equal-length vectors.
#[inline]
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "euclidean: length mismatch");
    squared_euclidean(a, b).sqrt()
}

/// Squared Euclidean distance (avoids the sqrt when only ordering matters).
#[inline]
pub fn squared_euclidean(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Cosine similarity in `[-1, 1]`; 0.0 when either vector is ~zero.
pub fn cosine_similarity(a: &[f64], b: &[f64]) -> f64 {
    let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
    if na < 1e-12 || nb < 1e-12 {
        return 0.0;
    }
    (dot / (na * nb)).clamp(-1.0, 1.0)
}

/// Cosine distance `1 - cosine_similarity` in `[0, 2]`.
#[inline]
pub fn cosine_distance(a: &[f64], b: &[f64]) -> f64 {
    1.0 - cosine_similarity(a, b)
}

/// L2 norm of a vector.
#[inline]
pub fn l2_norm(a: &[f64]) -> f64 {
    a.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Levenshtein edit distance between two strings (unit costs).
///
/// Used by the string-noise detectors to match misspellings against a
/// dictionary. O(|a|*|b|) time, O(min) memory.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let (short, long) = if a.len() <= b.len() {
        (&a, &b)
    } else {
        (&b, &a)
    };
    if short.is_empty() {
        return long.len();
    }
    let mut prev: Vec<usize> = (0..=short.len()).collect();
    let mut cur = vec![0usize; short.len() + 1];
    for (i, &lc) in long.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &sc) in short.iter().enumerate() {
            let sub = prev[j] + usize::from(lc != sc);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[short.len()]
}

/// `n x n` matrix of Euclidean distances between the rows of `points`,
/// computed in parallel over row blocks. Row `i` is filled by exactly one
/// chunk, so the result is identical on any thread count.
pub fn pairwise_euclidean(points: &crate::Matrix) -> crate::Matrix {
    let mut out = crate::Matrix::zeros(0, 0);
    pairwise_euclidean_into(points, &mut out);
    out
}

/// [`pairwise_euclidean`] writing into a reusable output buffer (resized in
/// place; previous contents are discarded).
pub fn pairwise_euclidean_into(points: &crate::Matrix, out: &mut crate::Matrix) {
    let n = points.rows();
    out.resize(n, n);
    gale_obs::counter_add!("kernel.pairwise.calls", 1);
    gale_obs::counter_add!("kernel.pairwise.flops", (3 * n * n * points.cols()) as u64);
    crate::par::par_chunks_mut(out.data_mut(), n.max(1), |start, block| {
        let first_row = start / n.max(1);
        for (b, orow) in block.chunks_mut(n).enumerate() {
            let i = first_row + b;
            for (j, o) in orow.iter_mut().enumerate() {
                *o = euclidean(points.row(i), points.row(j));
            }
        }
    });
}

/// Squared L2 norm of one row, computed as the fixed eight-lane chain
/// `acc[l] += x[8j+l]²` with the remainder folded into lane 0 and a fixed
/// pairwise reduction tree at the end.
///
/// This one summation order is what every blocked row kernel (and the
/// `MemoCache` norms cache) uses — scalar loop, AVX, and AVX-512 backends
/// all evaluate the identical per-lane mul/add sequence, so norms computed
/// anywhere in the system are bitwise interchangeable.
#[inline]
pub fn row_norm_sq(row: &[f64]) -> f64 {
    dot_unrolled(row, row)
}

/// Dot product over the same fixed eight-lane chain as [`row_norm_sq`], so
/// `gram_sq(row_norm_sq(x), row_norm_sq(x), dot_unrolled(x, x))` cancels
/// to exactly zero for self-pairs. Dispatches to the widest SIMD backend
/// the CPU offers; every backend produces identical bits (see [`lanes8`]).
#[inline]
pub(crate) fn dot_unrolled(a: &[f64], b: &[f64]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if let Some(d) = lanes8::dot(a, b) {
        return d;
    }
    dot_scalar8(a, b)
}

/// The SIMD tier the dense kernels run on this CPU: the GEMM tile and
/// the distance kernels' eight-lane dots alike. `avx512`, `avx` or
/// `scalar` (always `scalar` off x86-64).
pub fn simd_tier() -> &'static str {
    crate::simd::tier().name()
}

/// Portable reference body of the eight-lane dot chain.
#[inline]
fn dot_scalar8(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = [0.0f64; 8];
    let mut ac = a.chunks_exact(8);
    let mut bc = b.chunks_exact(8);
    for (ca, cb) in (&mut ac).zip(&mut bc) {
        for l in 0..8 {
            acc[l] += ca[l] * cb[l];
        }
    }
    for (&x, &y) in ac.remainder().iter().zip(bc.remainder()) {
        acc[0] += x * y;
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// Four dot products against one shared `target` row, interleaved so four
/// independent eight-lane accumulator chains stream through one sweep of
/// `target`. Each row's arithmetic is element-for-element identical to
/// [`dot_unrolled`] (same lane assignment, same reduction tree), so the
/// blocked fan-out kernels can mix this with the single-row path freely
/// without changing any output bit.
#[inline]
fn dot4_to_target(rows: [&[f64]; 4], t: &[f64]) -> [f64; 4] {
    #[cfg(target_arch = "x86_64")]
    if let Some(d) = lanes8::dot4(rows, t) {
        return d;
    }
    dot4_scalar8(rows, t)
}

/// Portable reference body of the four-row interleaved dot.
#[inline]
fn dot4_scalar8(rows: [&[f64]; 4], t: &[f64]) -> [f64; 4] {
    let d = t.len();
    let main = d - d % 8;
    let mut acc = [[0.0f64; 8]; 4];
    let mut j = 0;
    while j < main {
        let tc = &t[j..j + 8];
        for (a, row) in acc.iter_mut().zip(rows) {
            let c = &row[j..j + 8];
            for l in 0..8 {
                a[l] += c[l] * tc[l];
            }
        }
        j += 8;
    }
    for jj in main..d {
        let tv = t[jj];
        for (a, row) in acc.iter_mut().zip(rows) {
            a[0] += row[jj] * tv;
        }
    }
    let red = |a: &[f64; 8]| ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]));
    [red(&acc[0]), red(&acc[1]), red(&acc[2]), red(&acc[3])]
}

/// Fan-out sweep `out[i] = gram_sq(norms[i], tsq, dot(slab row i, t))`
/// over a contiguous row-major slab (`out.len()` rows of `cols`). One SIMD
/// dispatch covers the whole sweep; the portable fallback interleaves four
/// eight-lane dot chains per step. Per-row arithmetic matches
/// [`dot_unrolled`] bit for bit at any block position.
fn sq_sweep(slab: &[f64], cols: usize, norms: &[f64], t: &[f64], tsq: f64, out: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if lanes8::sq_sweep(slab, cols, norms, t, tsq, out) {
        return;
    }
    let n = out.len();
    let mut off = 0;
    while off + 4 <= n {
        let dots = dot4_to_target(
            [
                &slab[off * cols..(off + 1) * cols],
                &slab[(off + 1) * cols..(off + 2) * cols],
                &slab[(off + 2) * cols..(off + 3) * cols],
                &slab[(off + 3) * cols..(off + 4) * cols],
            ],
            t,
        );
        for (r, &dot) in dots.iter().enumerate() {
            out[off + r] = gram_sq(norms[off + r], tsq, dot);
        }
        off += 4;
    }
    for (off, slot) in out.iter_mut().enumerate().skip(off) {
        *slot = gram_sq(
            norms[off],
            tsq,
            dot_unrolled(&slab[off * cols..(off + 1) * cols], t),
        );
    }
}

/// As [`sq_sweep`] over a gathered candidate subset: `out[i]` pairs row
/// `indices[i]` of the full `points` slab with `t`; `norms` covers all
/// rows.
fn sq_sweep_indexed(
    points: &[f64],
    cols: usize,
    norms: &[f64],
    indices: &[usize],
    t: &[f64],
    tsq: f64,
    out: &mut [f64],
) {
    #[cfg(target_arch = "x86_64")]
    if lanes8::sq_sweep_indexed(points, cols, norms, indices, t, tsq, out) {
        return;
    }
    let mut off = 0;
    while off + 4 <= out.len() {
        let ix = &indices[off..off + 4];
        let dots = dot4_to_target(
            [
                &points[ix[0] * cols..(ix[0] + 1) * cols],
                &points[ix[1] * cols..(ix[1] + 1) * cols],
                &points[ix[2] * cols..(ix[2] + 1) * cols],
                &points[ix[3] * cols..(ix[3] + 1) * cols],
            ],
            t,
        );
        for (r, &dot) in dots.iter().enumerate() {
            out[off + r] = gram_sq(norms[ix[r]], tsq, dot);
        }
        off += 4;
    }
    for (off, slot) in out.iter_mut().enumerate().skip(off) {
        let v = indices[off];
        *slot = gram_sq(
            norms[v],
            tsq,
            dot_unrolled(&points[v * cols..(v + 1) * cols], t),
        );
    }
}

/// Explicit SIMD backends for the eight-lane dot chains.
///
/// The auto-vectorizer refuses to pack the strict-FP lane accumulators
/// (it costs them as a serial reduction), so the hot dots here are written
/// with `std::arch` intrinsics and selected by the process's SIMD tier
/// (`crate::simd`, the detection the GEMM shares). Every backend evaluates
/// *exactly* the arithmetic of [`dot_scalar8`]: lane `l` accumulates
/// `a[8j+l] * b[8j+l]` with separate mul and add (never FMA — contraction
/// would change rounding), the remainder folds into lane 0 after the main
/// loop, and the final reduce uses the same fixed pairwise tree. Results
/// are therefore bitwise identical across Scalar, AVX, and AVX-512, and
/// the determinism contract never observes which backend ran.
// Scoped allowance mirroring `par`: the unsafety is confined to
// feature-gated intrinsics whose loads stay inside slice bounds (the main
// loop covers `len - len % 8` elements) and which are only callable after
// `isa()` has proven the feature exists.
#[allow(unsafe_code)]
#[cfg(target_arch = "x86_64")]
mod lanes8 {
    use crate::simd::Isa;
    use std::arch::x86_64::*;

    /// The process's SIMD tier (see [`crate::simd::tier`]).
    fn isa() -> Isa {
        crate::simd::tier().isa()
    }

    /// Safe dispatcher: `Some(dot)` from the widest SIMD backend, `None`
    /// when the CPU offers neither AVX-512 nor AVX (caller falls back to
    /// the portable chain).
    #[inline]
    pub fn dot(a: &[f64], b: &[f64]) -> Option<f64> {
        match isa() {
            Isa::Avx512 => Some(unsafe { dot_avx512(a, b) }),
            Isa::Avx => Some(unsafe { dot_avx(a, b) }),
            Isa::Portable => None,
        }
    }

    /// Safe dispatcher for the four-row interleaved dot; `None` as [`dot`].
    #[inline]
    pub fn dot4(rows: [&[f64]; 4], t: &[f64]) -> Option<[f64; 4]> {
        match isa() {
            Isa::Avx512 => Some(unsafe { dot4_avx512(rows, t) }),
            Isa::Avx => Some(unsafe { dot4_avx(rows, t) }),
            Isa::Portable => None,
        }
    }

    /// Safe dispatcher for a whole contiguous fan-out sweep:
    /// `out[i] = gram_sq(norms[i], tsq, dot(row i, t))` over the rows of the
    /// row-major `points` slab. One runtime dispatch covers the entire
    /// sweep (the per-four-rows dispatch and call overhead of [`dot4`] is
    /// what this exists to amortize). Returns `false` when the CPU offers
    /// no SIMD backend, leaving `out` untouched for the portable path.
    ///
    /// Per-row arithmetic is the same eight-lane chain as [`dot`]/[`dot4`]
    /// at any block position, so results are bitwise identical to the
    /// portable path and independent of where chunk boundaries fall.
    pub fn sq_sweep(
        points: &[f64],
        cols: usize,
        norms: &[f64],
        t: &[f64],
        tsq: f64,
        out: &mut [f64],
    ) -> bool {
        assert_eq!(out.len(), norms.len(), "sq_sweep: norms/out mismatch");
        assert_eq!(points.len(), out.len() * cols, "sq_sweep: slab shape");
        match isa() {
            Isa::Avx512 => unsafe { sweep_avx512(points, cols, norms, t, tsq, out) },
            Isa::Avx => unsafe { sweep_avx(points, cols, norms, t, tsq, out) },
            Isa::Portable => return false,
        }
        true
    }

    /// As [`sq_sweep`] over an index subset: `out[i]` pairs
    /// `points.row(indices[i])` with `t`. `norms` covers all rows of the
    /// slab. Out-of-range indices panic (slice checks inside the kernels).
    pub fn sq_sweep_indexed(
        points: &[f64],
        cols: usize,
        norms: &[f64],
        indices: &[usize],
        t: &[f64],
        tsq: f64,
        out: &mut [f64],
    ) -> bool {
        assert_eq!(out.len(), indices.len(), "sq_sweep_indexed: out length");
        match isa() {
            Isa::Avx512 => unsafe {
                sweep_indexed_avx512(points, cols, norms, indices, t, tsq, out)
            },
            Isa::Avx => unsafe { sweep_indexed_avx(points, cols, norms, indices, t, tsq, out) },
            Isa::Portable => return false,
        }
        true
    }

    #[inline]
    fn reduce8(l: &[f64; 8]) -> f64 {
        ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
    }

    /// In-register evaluation of the [`reduce8`] pairwise tree: each add
    /// has the same two operands in the same order, only performed with
    /// shuffles instead of extracted scalars, so the result bits match.
    ///
    /// # Safety
    /// Caller must have verified `avx512f` support.
    #[target_feature(enable = "avx512f")]
    unsafe fn reduce_tree_512(acc: __m512d) -> f64 {
        // Swap adjacent elements: lane 2i holds l[2i+1] afterwards.
        let sw = _mm512_permute_pd(acc, 0x55);
        // p lane 2i = l[2i] + l[2i+1].
        let p = _mm512_add_pd(acc, sw);
        // q lane 0 = p0 + p2, q lane 4 = p4 + p6.
        let idx = _mm512_setr_epi64(2, 0, 0, 0, 6, 0, 0, 0);
        let q = _mm512_add_pd(p, _mm512_permutexvar_pd(idx, p));
        let lo = _mm512_castpd512_pd256(q);
        let hi = _mm512_extractf64x4_pd::<1>(q);
        // Final add: left half-tree + right half-tree.
        _mm_cvtsd_f64(_mm_add_sd(
            _mm256_castpd256_pd128(lo),
            _mm256_castpd256_pd128(hi),
        ))
    }

    /// As [`reduce_tree_512`] for the split 256-bit accumulator pair
    /// (`lo` = lanes 0..4, `hi` = lanes 4..8).
    ///
    /// # Safety
    /// Caller must have verified `avx` support.
    #[target_feature(enable = "avx")]
    unsafe fn reduce_tree_256(lo: __m256d, hi: __m256d) -> f64 {
        // Per half: lane 0 = l[0]+l[1], lane 2 = l[2]+l[3].
        let plo = _mm256_add_pd(lo, _mm256_permute_pd(lo, 0x5));
        let phi = _mm256_add_pd(hi, _mm256_permute_pd(hi, 0x5));
        let l = _mm_add_sd(_mm256_castpd256_pd128(plo), _mm256_extractf128_pd::<1>(plo));
        let r = _mm_add_sd(_mm256_castpd256_pd128(phi), _mm256_extractf128_pd::<1>(phi));
        _mm_cvtsd_f64(_mm_add_sd(l, r))
    }

    /// # Safety
    /// Caller must have verified `avx512f` support (see [`isa`]).
    #[target_feature(enable = "avx512f")]
    unsafe fn dot_avx512(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len().min(b.len());
        let main = n - n % 8;
        let mut acc = _mm512_setzero_pd();
        let mut j = 0;
        while j < main {
            let va = _mm512_loadu_pd(a.as_ptr().add(j));
            let vb = _mm512_loadu_pd(b.as_ptr().add(j));
            acc = _mm512_add_pd(acc, _mm512_mul_pd(va, vb));
            j += 8;
        }
        if main == n {
            return reduce_tree_512(acc);
        }
        let mut lanes = [0.0f64; 8];
        _mm512_storeu_pd(lanes.as_mut_ptr(), acc);
        for jj in main..n {
            lanes[0] += a[jj] * b[jj];
        }
        reduce8(&lanes)
    }

    /// # Safety
    /// Caller must have verified `avx512f` support (see [`isa`]).
    #[target_feature(enable = "avx512f")]
    unsafe fn dot4_avx512(rows: [&[f64]; 4], t: &[f64]) -> [f64; 4] {
        let d = t.len();
        let main = d - d % 8;
        let mut acc = [_mm512_setzero_pd(); 4];
        let mut j = 0;
        while j < main {
            let vt = _mm512_loadu_pd(t.as_ptr().add(j));
            for (a, row) in acc.iter_mut().zip(rows) {
                let vr = _mm512_loadu_pd(row.as_ptr().add(j));
                *a = _mm512_add_pd(*a, _mm512_mul_pd(vr, vt));
            }
            j += 8;
        }
        let mut out = [0.0f64; 4];
        for (r, a) in acc.iter().enumerate() {
            if main == d {
                out[r] = reduce_tree_512(*a);
                continue;
            }
            let mut lanes = [0.0f64; 8];
            _mm512_storeu_pd(lanes.as_mut_ptr(), *a);
            for jj in main..d {
                lanes[0] += rows[r][jj] * t[jj];
            }
            out[r] = reduce8(&lanes);
        }
        out
    }

    /// # Safety
    /// Caller must have verified `avx` support (see [`isa`]).
    #[target_feature(enable = "avx")]
    unsafe fn dot_avx(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len().min(b.len());
        let main = n - n % 8;
        // Lanes 0..4 live in `lo`, lanes 4..8 in `hi` — same per-lane
        // chains as one 512-bit register split in half.
        let mut lo = _mm256_setzero_pd();
        let mut hi = _mm256_setzero_pd();
        let mut j = 0;
        while j < main {
            let al = _mm256_loadu_pd(a.as_ptr().add(j));
            let bl = _mm256_loadu_pd(b.as_ptr().add(j));
            lo = _mm256_add_pd(lo, _mm256_mul_pd(al, bl));
            let ah = _mm256_loadu_pd(a.as_ptr().add(j + 4));
            let bh = _mm256_loadu_pd(b.as_ptr().add(j + 4));
            hi = _mm256_add_pd(hi, _mm256_mul_pd(ah, bh));
            j += 8;
        }
        if main == n {
            return reduce_tree_256(lo, hi);
        }
        let mut lanes = [0.0f64; 8];
        _mm256_storeu_pd(lanes.as_mut_ptr(), lo);
        _mm256_storeu_pd(lanes.as_mut_ptr().add(4), hi);
        for jj in main..n {
            lanes[0] += a[jj] * b[jj];
        }
        reduce8(&lanes)
    }

    /// # Safety
    /// Caller must have verified `avx` support (see [`isa`]).
    #[target_feature(enable = "avx")]
    unsafe fn dot4_avx(rows: [&[f64]; 4], t: &[f64]) -> [f64; 4] {
        let d = t.len();
        let main = d - d % 8;
        let mut lo = [_mm256_setzero_pd(); 4];
        let mut hi = [_mm256_setzero_pd(); 4];
        let mut j = 0;
        while j < main {
            let tl = _mm256_loadu_pd(t.as_ptr().add(j));
            let th = _mm256_loadu_pd(t.as_ptr().add(j + 4));
            for r in 0..4 {
                let rl = _mm256_loadu_pd(rows[r].as_ptr().add(j));
                lo[r] = _mm256_add_pd(lo[r], _mm256_mul_pd(rl, tl));
                let rh = _mm256_loadu_pd(rows[r].as_ptr().add(j + 4));
                hi[r] = _mm256_add_pd(hi[r], _mm256_mul_pd(rh, th));
            }
            j += 8;
        }
        let mut out = [0.0f64; 4];
        for r in 0..4 {
            if main == d {
                out[r] = reduce_tree_256(lo[r], hi[r]);
                continue;
            }
            let mut lanes = [0.0f64; 8];
            _mm256_storeu_pd(lanes.as_mut_ptr(), lo[r]);
            _mm256_storeu_pd(lanes.as_mut_ptr().add(4), hi[r]);
            for jj in main..d {
                lanes[0] += rows[r][jj] * t[jj];
            }
            out[r] = reduce8(&lanes);
        }
        out
    }

    /// Eight-row interleaved sweep body: eight independent accumulator
    /// chains (AVX-512 has 32 vector registers; ten live here) stream one
    /// load of each `t` block. Per-row arithmetic matches [`dot_avx512`].
    ///
    /// # Safety
    /// Caller must have verified `avx512f` support (see [`isa`]).
    #[target_feature(enable = "avx512f")]
    unsafe fn sweep_avx512(
        points: &[f64],
        cols: usize,
        norms: &[f64],
        t: &[f64],
        tsq: f64,
        out: &mut [f64],
    ) {
        let n = out.len();
        let main = cols - cols % 8;
        let mut i = 0;
        while i + 8 <= n {
            let block = &points[i * cols..(i + 8) * cols];
            let mut acc = [_mm512_setzero_pd(); 8];
            let mut j = 0;
            while j < main {
                let vt = _mm512_loadu_pd(t.as_ptr().add(j));
                for (r, a) in acc.iter_mut().enumerate() {
                    let vr = _mm512_loadu_pd(block.as_ptr().add(r * cols + j));
                    *a = _mm512_add_pd(*a, _mm512_mul_pd(vr, vt));
                }
                j += 8;
            }
            for (r, a) in acc.iter().enumerate() {
                let dot = if main == cols {
                    reduce_tree_512(*a)
                } else {
                    let mut lanes = [0.0f64; 8];
                    _mm512_storeu_pd(lanes.as_mut_ptr(), *a);
                    for jj in main..cols {
                        lanes[0] += block[r * cols + jj] * t[jj];
                    }
                    reduce8(&lanes)
                };
                out[i + r] = super::gram_sq(norms[i + r], tsq, dot);
            }
            i += 8;
        }
        while i < n {
            let row = &points[i * cols..(i + 1) * cols];
            out[i] = super::gram_sq(norms[i], tsq, dot_avx512(row, t));
            i += 1;
        }
    }

    /// # Safety
    /// Caller must have verified `avx` support (see [`isa`]).
    #[target_feature(enable = "avx")]
    unsafe fn sweep_avx(
        points: &[f64],
        cols: usize,
        norms: &[f64],
        t: &[f64],
        tsq: f64,
        out: &mut [f64],
    ) {
        let n = out.len();
        let mut i = 0;
        while i + 4 <= n {
            let rows = [
                &points[i * cols..(i + 1) * cols],
                &points[(i + 1) * cols..(i + 2) * cols],
                &points[(i + 2) * cols..(i + 3) * cols],
                &points[(i + 3) * cols..(i + 4) * cols],
            ];
            let dots = dot4_avx(rows, t);
            for (r, &dot) in dots.iter().enumerate() {
                out[i + r] = super::gram_sq(norms[i + r], tsq, dot);
            }
            i += 4;
        }
        while i < n {
            let row = &points[i * cols..(i + 1) * cols];
            out[i] = super::gram_sq(norms[i], tsq, dot_avx(row, t));
            i += 1;
        }
    }

    /// # Safety
    /// Caller must have verified `avx512f` support (see [`isa`]).
    #[target_feature(enable = "avx512f")]
    unsafe fn sweep_indexed_avx512(
        points: &[f64],
        cols: usize,
        norms: &[f64],
        indices: &[usize],
        t: &[f64],
        tsq: f64,
        out: &mut [f64],
    ) {
        let n = out.len();
        let main = cols - cols % 8;
        let mut i = 0;
        while i + 8 <= n {
            let ix = &indices[i..i + 8];
            let mut rows = [&points[..0]; 8];
            for (r, slot) in rows.iter_mut().enumerate() {
                let v = ix[r];
                *slot = &points[v * cols..(v + 1) * cols];
            }
            let mut acc = [_mm512_setzero_pd(); 8];
            let mut j = 0;
            while j < main {
                let vt = _mm512_loadu_pd(t.as_ptr().add(j));
                for (a, row) in acc.iter_mut().zip(rows) {
                    let vr = _mm512_loadu_pd(row.as_ptr().add(j));
                    *a = _mm512_add_pd(*a, _mm512_mul_pd(vr, vt));
                }
                j += 8;
            }
            for (r, a) in acc.iter().enumerate() {
                let dot = if main == cols {
                    reduce_tree_512(*a)
                } else {
                    let mut lanes = [0.0f64; 8];
                    _mm512_storeu_pd(lanes.as_mut_ptr(), *a);
                    for jj in main..cols {
                        lanes[0] += rows[r][jj] * t[jj];
                    }
                    reduce8(&lanes)
                };
                out[i + r] = super::gram_sq(norms[ix[r]], tsq, dot);
            }
            i += 8;
        }
        while i < n {
            let v = indices[i];
            let row = &points[v * cols..(v + 1) * cols];
            out[i] = super::gram_sq(norms[v], tsq, dot_avx512(row, t));
            i += 1;
        }
    }

    /// # Safety
    /// Caller must have verified `avx` support (see [`isa`]).
    #[target_feature(enable = "avx")]
    unsafe fn sweep_indexed_avx(
        points: &[f64],
        cols: usize,
        norms: &[f64],
        indices: &[usize],
        t: &[f64],
        tsq: f64,
        out: &mut [f64],
    ) {
        let n = out.len();
        let mut i = 0;
        while i + 4 <= n {
            let ix = &indices[i..i + 4];
            let rows = [
                &points[ix[0] * cols..(ix[0] + 1) * cols],
                &points[ix[1] * cols..(ix[1] + 1) * cols],
                &points[ix[2] * cols..(ix[2] + 1) * cols],
                &points[ix[3] * cols..(ix[3] + 1) * cols],
            ];
            let dots = dot4_avx(rows, t);
            for (r, &dot) in dots.iter().enumerate() {
                out[i + r] = super::gram_sq(norms[ix[r]], tsq, dot);
            }
            i += 4;
        }
        while i < n {
            let v = indices[i];
            let row = &points[v * cols..(v + 1) * cols];
            out[i] = super::gram_sq(norms[v], tsq, dot_avx(row, t));
            i += 1;
        }
    }
}

/// Assembles a squared distance from the Gram identity, clamping the
/// round-off that can drive `|x|² + |y|² − 2·x·y` a hair below zero. The
/// expression order is fixed so every caller produces identical bits for
/// identical `(na, nb, dot)`.
#[inline]
pub(crate) fn gram_sq(na: f64, nb: f64, dot: f64) -> f64 {
    let v = na + nb - 2.0 * dot;
    if v < 0.0 {
        0.0
    } else {
        v
    }
}

/// Writes `|xᵢ|²` for every row `i` of `points` into `out` (resized in
/// place). Parallel over row chunks; one writer per slot.
pub fn row_norms_sq_into(points: &crate::Matrix, out: &mut Vec<f64>) {
    let n = points.rows();
    out.clear();
    out.resize(n, 0.0);
    gale_obs::counter_add!("kernel.rownorms.calls", 1);
    crate::par::par_chunks_mut(out, 1, |start, chunk| {
        for (off, slot) in chunk.iter_mut().enumerate() {
            *slot = row_norm_sq(points.row(start + off));
        }
    });
}

/// [`row_norms_sq_into`] returning a fresh vector.
pub fn row_norms_sq(points: &crate::Matrix) -> Vec<f64> {
    let mut out = Vec::new();
    row_norms_sq_into(points, &mut out);
    out
}

/// Blocked `x.rows() x y.rows()` matrix of **squared** Euclidean distances
/// between the rows of `x` and the rows of `y`, with the row norms
/// supplied by the caller (`xn[i] = |xᵢ|²`, `yn[j] = |yⱼ|²`, as produced
/// by [`row_norms_sq_into`]).
///
/// The Gram product `x·yᵀ` goes through the register-tiled GEMM directly
/// into `out`, then a second parallel pass rewrites each element as
/// `xn[i] + yn[j] − 2·g[i][j]` clamped at zero.
pub fn pairwise_sq_with_norms_into(
    x: &crate::Matrix,
    y: &crate::Matrix,
    xn: &[f64],
    yn: &[f64],
    out: &mut crate::Matrix,
) {
    assert_eq!(x.cols(), y.cols(), "pairwise_sq: dim mismatch");
    assert_eq!(xn.len(), x.rows(), "pairwise_sq: xn length");
    assert_eq!(yn.len(), y.rows(), "pairwise_sq: yn length");
    let (n, m) = (x.rows(), y.rows());
    gale_obs::counter_add!("kernel.pairwise_sq.calls", 1);
    gale_obs::counter_add!(
        "kernel.pairwise_sq.flops",
        (n * m * (2 * x.cols() + 3)) as u64
    );
    x.matmul_nt_into(y, out);
    crate::par::par_chunks_mut(out.data_mut(), m.max(1), |start, block| {
        let first_row = start / m.max(1);
        for (b, orow) in block.chunks_mut(m).enumerate() {
            let na = xn[first_row + b];
            for (o, &nb) in orow.iter_mut().zip(yn) {
                *o = gram_sq(na, nb, *o);
            }
        }
    });
}

/// [`pairwise_sq_with_norms_into`] computing the norms itself, with the
/// two norm buffers drawn from (and returned to) a [`crate::Workspace`].
pub fn pairwise_sq_into(
    x: &crate::Matrix,
    y: &crate::Matrix,
    ws: &mut crate::Workspace,
    out: &mut crate::Matrix,
) {
    let mut xn = ws.take_vec(x.rows());
    let mut yn = ws.take_vec(y.rows());
    row_norms_sq_into(x, &mut xn);
    row_norms_sq_into(y, &mut yn);
    pairwise_sq_with_norms_into(x, y, &xn, &yn, out);
    ws.give_vec(xn);
    ws.give_vec(yn);
}

/// Euclidean distance from every row of `points` to one `target` row:
/// `out[i] = d(pointsᵢ, target)`, with `norms[i] = |pointsᵢ|²` and
/// `target_sq = |target|²` precomputed. `out.len()` must equal
/// `points.rows()`. One four-lane dot per row; parallel over chunks.
pub fn dists_to_row_into(
    points: &crate::Matrix,
    norms: &[f64],
    target: &[f64],
    target_sq: f64,
    out: &mut [f64],
) {
    assert_eq!(out.len(), points.rows(), "dists_to_row: out length");
    assert_eq!(norms.len(), points.rows(), "dists_to_row: norms length");
    gale_obs::counter_add!("kernel.dist_row.calls", 1);
    gale_obs::counter_add!(
        "kernel.dist_row.flops",
        (points.rows() * (2 * points.cols() + 4)) as u64
    );
    crate::par::par_chunks_mut(out, 1, |start, chunk| {
        // Two passes per chunk: Gram-trick squared distances first (the
        // interleaved dot chains), then a dependence-free sqrt sweep the
        // vectorizer can pack.
        fill_sq_to_row(points, norms, target, target_sq, start, chunk);
        for slot in chunk.iter_mut() {
            *slot = slot.sqrt();
        }
    });
}

/// Core of the contiguous fan-out: writes Gram-trick **squared** distances
/// for rows `start..start + chunk.len()` of `points` against `target`,
/// through the whole-sweep kernel [`sq_sweep`].
#[inline]
fn fill_sq_to_row(
    points: &crate::Matrix,
    norms: &[f64],
    target: &[f64],
    target_sq: f64,
    start: usize,
    chunk: &mut [f64],
) {
    let cols = points.cols();
    let slab = &points.data()[start * cols..(start + chunk.len()) * cols];
    let sub_norms = &norms[start..start + chunk.len()];
    sq_sweep(slab, cols, sub_norms, target, target_sq, chunk);
}

/// As [`dists_to_row_into`] but **squared** (no sqrt pass): the shape the
/// k-means++ seeding and other nearest-centroid scans consume. Same
/// determinism contract.
pub fn sq_dists_to_row_into(
    points: &crate::Matrix,
    norms: &[f64],
    target: &[f64],
    target_sq: f64,
    out: &mut [f64],
) {
    assert_eq!(out.len(), points.rows(), "sq_dists_to_row: out length");
    assert_eq!(norms.len(), points.rows(), "sq_dists_to_row: norms length");
    gale_obs::counter_add!("kernel.dist_row.calls", 1);
    gale_obs::counter_add!(
        "kernel.dist_row.flops",
        (points.rows() * (2 * points.cols() + 3)) as u64
    );
    crate::par::par_chunks_mut(out, 1, |start, chunk| {
        fill_sq_to_row(points, norms, target, target_sq, start, chunk);
    });
}

/// As [`dists_to_row_into`], but over an index subset: `out[i]` is the
/// Euclidean distance from `points.row(indices[i])` to
/// `points.row(target)`. `norms` covers *all* rows of `points`. This is
/// the QSelect fan-out shape: one kernel call per greedy round instead of
/// `n` scalar distance calls.
pub fn indexed_dists_to_row_into(
    points: &crate::Matrix,
    norms: &[f64],
    indices: &[usize],
    target: usize,
    out: &mut [f64],
) {
    assert_eq!(out.len(), indices.len(), "indexed_dists: out length");
    assert_eq!(norms.len(), points.rows(), "indexed_dists: norms length");
    // A full identity candidate set needs no gather: delegate to the
    // contiguous sweep, which the property tests prove bit-identical.
    if indices.len() == points.rows() && indices.iter().enumerate().all(|(i, &v)| v == i) {
        dists_to_row_into(points, norms, points.row(target), norms[target], out);
        return;
    }
    gale_obs::counter_add!("kernel.dist_row.calls", 1);
    gale_obs::counter_add!(
        "kernel.dist_row.flops",
        (indices.len() * (2 * points.cols() + 4)) as u64
    );
    let trow = points.row(target);
    let tsq = norms[target];
    crate::par::par_chunks_mut(out, 1, |start, chunk| {
        let sub_idx = &indices[start..start + chunk.len()];
        sq_sweep_indexed(
            points.data(),
            points.cols(),
            norms,
            sub_idx,
            trow,
            tsq,
            chunk,
        );
        // Dependence-free sqrt sweep, vectorizable separately from the
        // gathered dot pass.
        for slot in chunk.iter_mut() {
            *slot = slot.sqrt();
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_hand_checked() {
        assert!((euclidean(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert_eq!(squared_euclidean(&[1.0, 1.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn cosine_cases() {
        assert!((cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-12);
        assert!((cosine_similarity(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-12);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
        assert!((cosine_distance(&[2.0, 0.0], &[5.0, 0.0])).abs() < 1e-12);
    }

    #[test]
    fn levenshtein_classics() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        // The paper's case study: Melvaceae vs Malvaceae — one substitution.
        assert_eq!(levenshtein("Melvaceae", "Malvaceae"), 1);
    }

    #[test]
    fn levenshtein_symmetric() {
        assert_eq!(
            levenshtein("graph", "graphs"),
            levenshtein("graphs", "graph")
        );
    }

    #[test]
    fn unicode_edit_distance_counts_chars() {
        assert_eq!(levenshtein("héllo", "hello"), 1);
    }

    #[test]
    fn simd_backends_match_scalar_chain_bitwise() {
        // Whatever backend the dispatch picked must reproduce the portable
        // eight-lane chain bit for bit, including ragged remainders.
        let mut rng = crate::Rng::seed_from_u64(11);
        for d in [1usize, 5, 8, 13, 16, 32, 37] {
            let a: Vec<f64> = (0..d).map(|_| rng.gauss() * 3.0).collect();
            let b: Vec<f64> = (0..d).map(|_| rng.gauss() * 3.0).collect();
            assert_eq!(
                dot_unrolled(&a, &b).to_bits(),
                dot_scalar8(&a, &b).to_bits()
            );
            assert_eq!(row_norm_sq(&a).to_bits(), dot_scalar8(&a, &a).to_bits());
            let rows = [&a[..], &b[..], &a[..], &b[..]];
            let fast = dot4_to_target(rows, &b);
            let slow = dot4_scalar8(rows, &b);
            for (f, s) in fast.iter().zip(&slow) {
                assert_eq!(f.to_bits(), s.to_bits());
            }
        }
    }

    #[test]
    fn sweep_kernels_match_portable_chain_bitwise() {
        // The full-sweep backends (8-row AVX-512 blocks, 4-row AVX blocks,
        // single-row tails) must reproduce the portable per-row chain bit
        // for bit at every block position, for contiguous and gathered
        // candidate sets alike. n = 23 exercises two 8-blocks plus a
        // 7-row tail; ragged dims exercise the lane-0 remainder fold.
        let mut rng = crate::Rng::seed_from_u64(21);
        for d in [5usize, 8, 13, 32] {
            let x = crate::Matrix::randn(23, d, 2.0, &mut rng);
            let norms = row_norms_sq(&x);
            let mut got = vec![0.0; 23];
            dists_to_row_into(&x, &norms, x.row(9), norms[9], &mut got);
            for (i, &g) in got.iter().enumerate() {
                let want = gram_sq(norms[i], norms[9], dot_scalar8(x.row(i), x.row(9))).sqrt();
                assert_eq!(g.to_bits(), want.to_bits(), "row {i} dim {d}");
            }
            // Gathered sweep, arbitrary candidate order.
            let idx: Vec<usize> = (0..23).rev().chain([9, 9, 0]).collect();
            let mut sub = vec![0.0; idx.len()];
            indexed_dists_to_row_into(&x, &norms, &idx, 9, &mut sub);
            for (o, &v) in sub.iter().zip(&idx) {
                let want = gram_sq(norms[v], norms[9], dot_scalar8(x.row(v), x.row(9))).sqrt();
                assert_eq!(o.to_bits(), want.to_bits(), "cand {v} dim {d}");
            }
        }
    }

    #[test]
    fn row_norms_match_scalar() {
        let mut rng = crate::Rng::seed_from_u64(3);
        let m = crate::Matrix::randn(17, 7, 1.0, &mut rng);
        let norms = row_norms_sq(&m);
        for (i, &n) in norms.iter().enumerate() {
            let scalar: f64 = m.row(i).iter().map(|x| x * x).sum();
            assert!((n - scalar).abs() <= 1e-12 * (1.0 + scalar));
        }
    }

    #[test]
    fn blocked_pairwise_matches_scalar_within_tolerance() {
        let mut rng = crate::Rng::seed_from_u64(4);
        let x = crate::Matrix::randn(23, 11, 1.0, &mut rng);
        let y = crate::Matrix::randn(9, 11, 1.0, &mut rng);
        let mut ws = crate::Workspace::new();
        let mut out = crate::Matrix::zeros(0, 0);
        pairwise_sq_into(&x, &y, &mut ws, &mut out);
        for i in 0..x.rows() {
            for j in 0..y.rows() {
                let scalar = squared_euclidean(x.row(i), y.row(j));
                let scale = 1.0 + row_norm_sq(x.row(i)) + row_norm_sq(y.row(j));
                assert!(
                    (out[(i, j)] - scalar).abs() <= 1e-9 * scale,
                    "({i},{j}): {} vs {scalar}",
                    out[(i, j)]
                );
            }
        }
    }

    #[test]
    fn identical_rows_have_near_zero_distance() {
        // The pairwise kernel's norms (4-lane unrolled) and dot (GEMM's
        // ascending chain) round differently, so identical rows cancel to a
        // tiny non-negative residual rather than an exact zero; the row
        // fan-out kernels, whose norm and dot share one summation order, do
        // give exact self-zeros (tested below).
        let mut rng = crate::Rng::seed_from_u64(5);
        let mut x = crate::Matrix::randn(6, 13, 3.0, &mut rng);
        let dup: Vec<f64> = x.row(0).to_vec();
        x.set_row(4, &dup);
        let norms = row_norms_sq(&x);
        let mut out = crate::Matrix::zeros(0, 0);
        pairwise_sq_with_norms_into(&x, &x, &norms, &norms, &mut out);
        for (i, j) in (0..6).map(|i| (i, i)).chain([(0, 4), (4, 0)]) {
            let tol = 1e-12 * (1.0 + 2.0 * norms[i]);
            assert!(
                out[(i, j)] >= 0.0 && out[(i, j)] <= tol,
                "({i},{j}): {} not in [0, {tol}]",
                out[(i, j)]
            );
        }
    }

    #[test]
    fn dists_to_row_agree_with_indexed_variant() {
        let mut rng = crate::Rng::seed_from_u64(6);
        let x = crate::Matrix::randn(12, 5, 1.0, &mut rng);
        let norms = row_norms_sq(&x);
        let mut all = vec![0.0; 12];
        dists_to_row_into(&x, &norms, x.row(7), norms[7], &mut all);
        let idx: Vec<usize> = (0..12).collect();
        let mut sub = vec![0.0; 12];
        indexed_dists_to_row_into(&x, &norms, &idx, 7, &mut sub);
        for (a, b) in all.iter().zip(&sub) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (i, d) in all.iter().enumerate() {
            let scalar = euclidean(x.row(i), x.row(7));
            assert!((d - scalar).abs() <= 1e-9 * (1.0 + norms[i] + norms[7]));
        }
        assert_eq!(all[7], 0.0);
    }

    #[test]
    fn zero_row_matrices_are_fine() {
        let x = crate::Matrix::zeros(0, 4);
        let y = crate::Matrix::zeros(3, 4);
        let mut ws = crate::Workspace::new();
        let mut out = crate::Matrix::zeros(0, 0);
        pairwise_sq_into(&x, &y, &mut ws, &mut out);
        assert_eq!(out.shape(), (0, 3));
        assert!(row_norms_sq(&x).is_empty());
        let mut empty: [f64; 0] = [];
        indexed_dists_to_row_into(&y, &row_norms_sq(&y), &[], 0, &mut empty);
    }
}
