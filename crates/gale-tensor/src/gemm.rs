//! Register-tiled dense GEMM micro-kernels.
//!
//! All three dense products (`A·B`, `Aᵀ·B`, `A·Bᵀ`) funnel through the
//! micro-kernels here. The tiling scheme unrolls over *output elements*
//! only — an `MR x NR` register tile accumulates `MR * NR` independent
//! sums — while the reduction dimension `k` is always traversed in a
//! single ascending scalar chain per output element. That keeps every
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
/// overwritten.
pub(crate) fn gemm_nn_block(
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

/// `block = (Aᵀ B)[row0..row0+rows, :]` for row-major `A` (`k_dim x lda`,
/// so output row `i` reads `A[:, i]`) and `B` (`k_dim x n`). When `acc0`
/// is true the tile accumulators start from the existing block contents
/// (the `C += Aᵀ B` form used for gradient accumulation); otherwise the
/// block is fully overwritten.
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

/// `block = (A Bᵀ)[row0..row0+rows, :]` for row-major `A` (`lda = k_dim`)
/// and `B` (`n x k_dim`); output column `j` reads `B`'s row `j`. `block`
/// holds `rows * n` elements and is fully overwritten.
pub(crate) fn gemm_nt_block(
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
                    let mut bvals = [0.0f64; NR];
                    for jj in 0..NR {
                        bvals[jj] = b[(jb + jj) * k_dim + k];
                    }
                    for ii in 0..MR {
                        let aik = a[(row0 + ib + ii) * lda + k];
                        for jj in 0..NR {
                            acc[ii][jj] += aik * bvals[jj];
                        }
                    }
                }
                for ii in 0..MR {
                    block[(ib + ii) * n + jb..(ib + ii) * n + jb + NR].copy_from_slice(&acc[ii]);
                }
            } else {
                for ii in 0..il {
                    let arow = &a[(row0 + ib + ii) * lda..(row0 + ib + ii) * lda + k_dim];
                    for jj in 0..jl {
                        let brow = &b[(jb + jj) * k_dim..(jb + jj) * k_dim + k_dim];
                        let mut s = 0.0;
                        for k in 0..k_dim {
                            s += arow[k] * brow[k];
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
