//! Register-tiled dense GEMM micro-kernels.
//!
//! All three dense products funnel through the two micro-kernels here:
//! `A·B` and `Aᵀ·B` directly, and `A·Bᵀ` through the `A·B` tile over a
//! packed `Bᵀ` (`Matrix::matmul_nt_into`; `B` is a weight matrix or a
//! centroid block, so the packing costs `1/m` of the product). The
//! tiling scheme unrolls over *output elements* only — an `MR x NR`
//! register tile accumulates `MR * NR` independent sums — while the
//! reduction dimension `k` is always traversed in a single ascending
//! scalar chain per output element. That keeps every
//! output bitwise identical to the textbook three-loop formulation (and
//! therefore identical across tile paths, ragged edges, and thread
//! counts), yet cuts load traffic by `~MR`/`~NR` per operand: each loaded
//! `a` value feeds `NR` accumulators and each loaded `b` vector feeds
//! `MR` rows.
//!
//! The kernels operate on a caller-provided *block* of output rows, which
//! [`par_rows`] hands to the worker pool. Its chunks ([`row_chunks`]) start
//! on multiples of `MR`, so every chunk but the last is a whole number of
//! tiles: a product with at least `MR` output rows and `NR` columns runs
//! the tile, and only the last chunk's remainder rows and the columns
//! past the last full `NR` take the edge path. Row results never depend
//! on which chunk computed them.
//!
//! Each tile body is one `#[inline(always)]` function compiled three
//! times: as written, for baseline x86-64 (two-lane SSE2 registers), and
//! inside `#[target_feature]` wrappers for AVX-512 and AVX, where an
//! `NR`-wide accumulator row fills one or two registers. The block entries
//! run the copy for the process's SIMD tier (`crate::simd`, detected once
//! and shared with the distance kernels). The copies give the same bits:
//! Rust never contracts a separate multiply and add into an FMA, so every
//! output element is still one ascending-`k` chain of the same rounded
//! products and sums, whatever the register width.

use crate::simd;
use std::ops::Range;

/// Output rows per register tile.
pub(crate) const MR: usize = 4;
/// Output columns per register tile.
pub(crate) const NR: usize = 8;

/// Row chunks of a `rows`-row GEMM output: [`crate::par::chunk_ranges`]
/// over whole `MR`-row tiles, so every chunk but the last holds a multiple
/// of `MR` rows. Like `chunk_ranges`, a pure function of `rows`. Cutting
/// the rows themselves would give one-row chunks below 64 rows and
/// 1-3-row chunks below 256, where the tile never runs: every weight
/// gradient and small forward the models compute.
pub(crate) fn row_chunks(rows: usize) -> Vec<Range<usize>> {
    crate::par::chunk_ranges(rows.div_ceil(MR))
        .into_iter()
        .map(|t| t.start * MR..(t.end * MR).min(rows))
        .collect()
}

/// Runs `kernel(row0, block)` in parallel over the [`row_chunks`] of the
/// row-major `n`-column output `out`; `block` holds rows `row0..` of it.
pub(crate) fn par_rows(out: &mut [f64], n: usize, kernel: impl Fn(usize, &mut [f64]) + Sync) {
    let n = n.max(1);
    let chunks = row_chunks(out.len() / n);
    crate::par::par_row_ranges_mut(out, n, &chunks, |start, block| kernel(start / n, block));
}

/// `block = A[row0..row0+rows, :] * B` for row-major `A` (`lda = k_dim`)
/// and `B` (`k_dim x n`). `block` holds `rows * n` elements and is fully
/// overwritten. Runs the process's SIMD tier.
pub(crate) fn gemm_nn_block(
    a: &[f64],
    lda: usize,
    k_dim: usize,
    b: &[f64],
    n: usize,
    row0: usize,
    block: &mut [f64],
) {
    tiers::nn(simd::tier(), a, lda, k_dim, b, n, row0, block);
}

/// `Aᵀ·B` counterpart of [`gemm_nn_block`]: `block = (Aᵀ B)[row0.., :]`
/// for row-major `A` (`k_dim x lda`, so output row `i` reads `A[:, i]`)
/// and `B` (`k_dim x n`). When `acc0` is true the tile accumulators start
/// from the existing block contents (the `C += Aᵀ B` form used for
/// gradient accumulation); otherwise the block is fully overwritten. Runs
/// the process's SIMD tier.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_tn_block(
    a: &[f64],
    lda: usize,
    k_dim: usize,
    b: &[f64],
    n: usize,
    row0: usize,
    block: &mut [f64],
    acc0: bool,
) {
    tiers::tn(simd::tier(), a, lda, k_dim, b, n, row0, block, acc0);
}

/// The `A·B` tile body of [`gemm_nn_block`], compiled into each tier's
/// copy.
#[inline(always)]
fn nn_body(
    a: &[f64],
    lda: usize,
    k_dim: usize,
    b: &[f64],
    n: usize,
    row0: usize,
    block: &mut [f64],
) {
    if n == 0 {
        return;
    }
    let rows = block.len() / n;
    let mut ib = 0;
    while ib < rows {
        let il = MR.min(rows - ib);
        let mut jb = 0;
        while jb < n {
            let jl = NR.min(n - jb);
            if il == MR && jl == NR {
                let mut acc = [[0.0f64; NR]; MR];
                for k in 0..k_dim {
                    let brow = &b[k * n + jb..k * n + jb + NR];
                    for ii in 0..MR {
                        let aik = a[(row0 + ib + ii) * lda + k];
                        for jj in 0..NR {
                            acc[ii][jj] += aik * brow[jj];
                        }
                    }
                }
                for ii in 0..MR {
                    block[(ib + ii) * n + jb..(ib + ii) * n + jb + NR].copy_from_slice(&acc[ii]);
                }
            } else {
                // Ragged edge: same ascending-k chain per element.
                for ii in 0..il {
                    let arow = &a[(row0 + ib + ii) * lda..(row0 + ib + ii) * lda + k_dim];
                    for jj in 0..jl {
                        let mut s = 0.0;
                        for (k, &aik) in arow.iter().enumerate() {
                            s += aik * b[k * n + jb + jj];
                        }
                        block[(ib + ii) * n + jb + jj] = s;
                    }
                }
            }
            jb += jl;
        }
        ib += il;
    }
}

/// The `Aᵀ·B` tile body of [`gemm_tn_block`], compiled into each tier's
/// copy.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn tn_body(
    a: &[f64],
    lda: usize,
    k_dim: usize,
    b: &[f64],
    n: usize,
    row0: usize,
    block: &mut [f64],
    acc0: bool,
) {
    if n == 0 {
        return;
    }
    let rows = block.len() / n;
    let mut ib = 0;
    while ib < rows {
        let il = MR.min(rows - ib);
        let mut jb = 0;
        while jb < n {
            let jl = NR.min(n - jb);
            if il == MR && jl == NR {
                let mut acc = [[0.0f64; NR]; MR];
                if acc0 {
                    for ii in 0..MR {
                        acc[ii]
                            .copy_from_slice(&block[(ib + ii) * n + jb..(ib + ii) * n + jb + NR]);
                    }
                }
                for k in 0..k_dim {
                    // Columns row0+ib .. +MR of A are contiguous in row k.
                    let avals = &a[k * lda + row0 + ib..k * lda + row0 + ib + MR];
                    let brow = &b[k * n + jb..k * n + jb + NR];
                    for ii in 0..MR {
                        let aki = avals[ii];
                        for jj in 0..NR {
                            acc[ii][jj] += aki * brow[jj];
                        }
                    }
                }
                for ii in 0..MR {
                    block[(ib + ii) * n + jb..(ib + ii) * n + jb + NR].copy_from_slice(&acc[ii]);
                }
            } else {
                for ii in 0..il {
                    let i = row0 + ib + ii;
                    for jj in 0..jl {
                        let mut s = if acc0 {
                            block[(ib + ii) * n + jb + jj]
                        } else {
                            0.0
                        };
                        for k in 0..k_dim {
                            s += a[k * lda + i] * b[k * n + jb + jj];
                        }
                        block[(ib + ii) * n + jb + jj] = s;
                    }
                }
            }
            jb += jl;
        }
        ib += il;
    }
}

/// The tile bodies' per-tier copies and the dispatch into them.
// Scoped allowance: the only unsafe operation is calling a tier's
// `#[target_feature]` copy, which needs the CPU to offer the tier's
// features. Only `simd::offer` makes a `Tier`, after detecting them.
#[allow(unsafe_code)]
mod tiers {
    use super::{nn_body, tn_body};
    use crate::simd::{Isa, Tier};

    /// [`nn_body`] in `tier`'s copy: the run-on-this-tier entry.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn nn(
        tier: Tier,
        a: &[f64],
        lda: usize,
        k_dim: usize,
        b: &[f64],
        n: usize,
        row0: usize,
        block: &mut [f64],
    ) {
        match tier.isa() {
            // SAFETY: `tier` proves the CPU offers AVX-512F.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => unsafe { nn_avx512(a, lda, k_dim, b, n, row0, block) },
            // SAFETY: `tier` proves the CPU offers AVX.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx => unsafe { nn_avx(a, lda, k_dim, b, n, row0, block) },
            _ => nn_body(a, lda, k_dim, b, n, row0, block),
        }
    }

    /// [`tn_body`] in `tier`'s copy: the run-on-this-tier entry.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn tn(
        tier: Tier,
        a: &[f64],
        lda: usize,
        k_dim: usize,
        b: &[f64],
        n: usize,
        row0: usize,
        block: &mut [f64],
        acc0: bool,
    ) {
        match tier.isa() {
            // SAFETY: `tier` proves the CPU offers AVX-512F.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => unsafe { tn_avx512(a, lda, k_dim, b, n, row0, block, acc0) },
            // SAFETY: `tier` proves the CPU offers AVX.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx => unsafe { tn_avx(a, lda, k_dim, b, n, row0, block, acc0) },
            _ => tn_body(a, lda, k_dim, b, n, row0, block, acc0),
        }
    }

    /// # Safety
    /// The CPU must offer AVX-512F.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn nn_avx512(
        a: &[f64],
        lda: usize,
        k_dim: usize,
        b: &[f64],
        n: usize,
        row0: usize,
        block: &mut [f64],
    ) {
        nn_body(a, lda, k_dim, b, n, row0, block);
    }

    /// # Safety
    /// The CPU must offer AVX.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx")]
    unsafe fn nn_avx(
        a: &[f64],
        lda: usize,
        k_dim: usize,
        b: &[f64],
        n: usize,
        row0: usize,
        block: &mut [f64],
    ) {
        nn_body(a, lda, k_dim, b, n, row0, block);
    }

    /// # Safety
    /// The CPU must offer AVX-512F.
    #[allow(clippy::too_many_arguments)]
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn tn_avx512(
        a: &[f64],
        lda: usize,
        k_dim: usize,
        b: &[f64],
        n: usize,
        row0: usize,
        block: &mut [f64],
        acc0: bool,
    ) {
        tn_body(a, lda, k_dim, b, n, row0, block, acc0);
    }

    /// # Safety
    /// The CPU must offer AVX.
    #[allow(clippy::too_many_arguments)]
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx")]
    unsafe fn tn_avx(
        a: &[f64],
        lda: usize,
        k_dim: usize,
        b: &[f64],
        n: usize,
        row0: usize,
        block: &mut [f64],
        acc0: bool,
    ) {
        tn_body(a, lda, k_dim, b, n, row0, block, acc0);
    }
}

/// Records the standard GEMM telemetry for an `m x k * k x n` product of
/// `f64` elements.
#[inline]
pub(crate) fn record_gemm_counters(m: usize, k: usize, n: usize) {
    gale_obs::counter_add!("kernel.gemm.calls", 1);
    gale_obs::counter_add!("kernel.gemm.flops", (2 * m * n * k) as u64);
    gale_obs::counter_add!(
        "kernel.gemm.bytes",
        (std::mem::size_of::<f64>() * (m * k + k * n + m * n)) as u64
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::with_threads;
    use crate::simd::{Isa, Tier};
    use crate::{Matrix, Rng};

    fn bits(data: &[f64]) -> Vec<u64> {
        data.iter().map(|v| v.to_bits()).collect()
    }

    /// `A·B` through [`par_rows`], in `tier`'s copy of the tile body.
    fn nn_on(tier: Tier, a: &Matrix, b: &Matrix) -> Vec<u64> {
        let n = b.cols();
        let mut out = vec![f64::NAN; a.rows() * n];
        par_rows(&mut out, n, |row0, block| {
            tiers::nn(tier, a.data(), a.cols(), a.cols(), b.data(), n, row0, block);
        });
        bits(&out)
    }

    /// `Aᵀ·B`, or `start + Aᵀ·B` when `start` is given, through
    /// [`par_rows`] in `tier`'s copy of the tile body.
    fn tn_on(tier: Tier, a: &Matrix, b: &Matrix, start: Option<&Matrix>) -> Vec<u64> {
        let n = b.cols();
        let mut out = start.map_or_else(|| vec![f64::NAN; a.cols() * n], |s| s.data().to_vec());
        par_rows(&mut out, n, |row0, block| {
            let (lda, k) = (a.cols(), a.rows());
            tiers::tn(
                tier,
                a.data(),
                lda,
                k,
                b.data(),
                n,
                row0,
                block,
                start.is_some(),
            );
        });
        bits(&out)
    }

    /// Every tier this CPU offers gives the portable copy's bits at the
    /// shapes the models run: weight gradients of 810 and 7,080 rows (from
    /// zero and accumulating onto a non-zero start), and 1-65-row forwards.
    /// The pinned tests elsewhere run only the process's tier.
    #[test]
    fn every_tier_matches_the_portable_body() {
        let mut offered = vec![Tier::PORTABLE];
        for isa in [Isa::Avx512, Isa::Avx] {
            match simd::offer(isa) {
                Some(tier) => offered.push(tier),
                None => println!("skipped tier {isa:?}: this CPU does not offer it"),
            }
        }
        let threads = [1usize, 2, 8];
        let mut rng = Rng::seed_from_u64(23);
        for k in [810usize, 7080] {
            for (m, n) in [(58usize, 48usize), (51, 24), (24, 12), (24, 3)] {
                let a = Matrix::randn(k, m, 1.0, &mut rng);
                let b = Matrix::randn(k, n, 1.0, &mut rng);
                let start = Matrix::randn(m, n, 1.0, &mut rng);
                let want = with_threads(1, || tn_on(Tier::PORTABLE, &a, &b, None));
                let want_acc = with_threads(1, || tn_on(Tier::PORTABLE, &a, &b, Some(&start)));
                for &tier in &offered {
                    for t in threads {
                        let got = with_threads(t, || tn_on(tier, &a, &b, None));
                        assert!(
                            got == want,
                            "tn {k} rows into {m}x{n}, {tier:?}, {t} threads"
                        );
                        let got = with_threads(t, || tn_on(tier, &a, &b, Some(&start)));
                        assert!(
                            got == want_acc,
                            "tn acc {k} rows into {m}x{n}, {tier:?}, {t} threads"
                        );
                    }
                }
            }
        }
        for (k, n) in [(58usize, 48usize), (24, 3)] {
            let w = Matrix::randn(k, n, 1.0, &mut rng);
            for rows in [1usize, 3, 4, 5, 65] {
                let x = Matrix::randn(rows, k, 1.0, &mut rng);
                let want = with_threads(1, || nn_on(Tier::PORTABLE, &x, &w));
                for &tier in &offered {
                    for t in threads {
                        let got = with_threads(t, || nn_on(tier, &x, &w));
                        assert!(
                            got == want,
                            "nn {rows} rows through {k}x{n}, {tier:?}, {t} threads"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn row_chunks_align_to_the_tile() {
        for rows in [
            0usize, 1, 3, 4, 5, 13, 24, 48, 51, 58, 65, 128, 255, 256, 810, 7080,
        ] {
            let chunks = with_threads(1, || row_chunks(rows));
            for threads in [2, 8] {
                assert_eq!(with_threads(threads, || row_chunks(rows)), chunks);
            }
            let mut next = 0;
            for (c, r) in chunks.iter().enumerate() {
                assert_eq!(r.start, next, "{rows} rows: chunks tile 0..rows");
                assert!(!r.is_empty(), "{rows} rows: empty chunk {c}");
                if c + 1 < chunks.len() {
                    assert_eq!(r.len() % MR, 0, "{rows} rows: chunk {c} is {r:?}");
                }
                next = r.end;
            }
            assert_eq!(next, rows);
            assert!(chunks.len() <= 64, "{rows} rows: {} chunks", chunks.len());
        }
    }
}
