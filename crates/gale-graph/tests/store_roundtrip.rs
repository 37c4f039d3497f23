//! Property tests for the on-disk CSR store: write → map → read must be
//! byte-identical to the in-memory CSR, on ragged graphs with empty rows,
//! through both the mapped and the decoded backing.

use gale_graph::{write_csr, CsrStore};
use gale_tensor::{EdgeSample, NeighborAccess, Rng, SparseMatrix};
use proptest::prelude::*;
use std::path::PathBuf;

fn tmp(name: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gale-store-prop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{case}.csr"))
}

/// Ragged random CSR: rows draw 0..=per_row entries, so empty rows (and
/// with small sizes, fully empty column ranges) occur routinely.
fn ragged_sparse(rows: usize, cols: usize, per_row: usize, seed: u64) -> SparseMatrix {
    let mut rng = Rng::seed_from_u64(seed);
    let mut triplets = Vec::new();
    for r in 0..rows {
        for _ in 0..rng.below(per_row + 1) {
            triplets.push((r, rng.below(cols), rng.gauss()));
        }
    }
    SparseMatrix::from_triplets(rows, cols, triplets)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn store_roundtrips_bitwise_vs_in_memory_csr(
        rows in 1usize..120,
        cols in 1usize..90,
        per_row in 0usize..6,
        seed in 0u64..10_000,
    ) {
        let s = ragged_sparse(rows, cols, per_row, seed);
        let path = tmp("roundtrip", seed ^ ((rows as u64) << 32) ^ (cols as u64));
        write_csr(&s, cols, &path).unwrap();

        let mapped = CsrStore::open(&path).unwrap();
        let decoded = CsrStore::open_in_memory(&path).unwrap();
        for store in [&mapped, &decoded] {
            prop_assert_eq!(store.rows(), rows);
            prop_assert_eq!(store.cols(), cols);
            prop_assert_eq!(store.nnz(), s.nnz());
            prop_assert_eq!(store.entry_count(), s.entry_count());
            for r in 0..rows {
                let mut got: Vec<(usize, u64)> = Vec::new();
                store.visit_neighbors(r, &mut |c, v| got.push((c, v.to_bits())));
                let want: Vec<(usize, u64)> =
                    s.row_iter(r).map(|(c, v)| (c, v.to_bits())).collect();
                prop_assert_eq!(got, want, "row {}", r);
                prop_assert_eq!(store.neighbor_count(r), s.row_nnz(r));
                for (c, _) in s.row_iter(r) {
                    prop_assert!(store.has_neighbor(r, c));
                }
            }
            for k in 0..s.nnz() {
                prop_assert_eq!(store.entry_at(k), s.entry_at(k), "entry {}", k);
            }
        }
        std::fs::remove_file(&path).unwrap();
    }
}

const PAGE: usize = 4096;

/// A valid store's bytes: 12 rows over 9 columns, two entries per row.
fn valid_bytes(case: u64) -> Vec<u8> {
    let path = tmp("valid", case);
    let s = SparseMatrix::from_triplets(
        12,
        9,
        (0..12).flat_map(|r| [(r, r % 9, 1.0), (r, (r + 4) % 9, 2.0)]),
    );
    write_csr(&s, 9, &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    bytes
}

fn put_u64(bytes: &mut [u8], at: usize, v: u64) {
    bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

fn get_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// Opens `bytes` through both backings; an opened store must read every
/// row, neighbor and entry in range.
fn open_both(bytes: &[u8], name: &str, case: u64) -> Vec<std::io::Result<()>> {
    let path = tmp(name, case);
    std::fs::write(&path, bytes).unwrap();
    let outcomes = [CsrStore::open(&path), CsrStore::open_in_memory(&path)]
        .into_iter()
        .map(|opened| {
            let store = opened?;
            for r in 0..store.rows() {
                store.visit_neighbors(r, &mut |c, _| assert!(c < store.cols()));
                let _ = store.neighbor_count(r);
            }
            for k in 0..store.entry_count() {
                let (r, c) = store.entry_at(k);
                assert!(r < store.rows() && c < store.cols());
            }
            Ok(())
        })
        .collect();
    std::fs::remove_file(&path).unwrap();
    outcomes
}

#[test]
fn crafted_stores_are_refused_by_both_backings() {
    let valid = valid_bytes(0);
    let (rows, nnz) = (get_u64(&valid, 8), get_u64(&valid, 24));
    let cols_off = (PAGE + 8 * (rows as usize + 1)).next_multiple_of(PAGE);
    let indptr = |r: usize| PAGE + 8 * r;
    let mut cases: Vec<(&str, Vec<u8>)> = Vec::new();
    let mut patch = |name, at, v| {
        let mut b = valid.clone();
        put_u64(&mut b, at, v);
        cases.push((name, b));
    };
    patch("offsets start past 0", indptr(0), 1);
    patch(
        "offsets decrease",
        indptr(3),
        get_u64(&valid, indptr(2)) - 1,
    );
    patch("offset past nnz", indptr(1), nnz + 5);
    patch("offsets end off nnz", indptr(rows as usize), nnz - 1);
    patch("column out of range", cols_off, 9);
    patch("rows overflow the file", 8, u64::MAX / 16);
    patch("rows overflow the layout", 8, u64::MAX / 4);
    patch("nnz overflows the layout", 24, u64::MAX / 2);
    let vals_end = (cols_off + 8 * nnz as usize).next_multiple_of(PAGE) + 8 * nnz as usize;
    cases.push(("truncated", valid[..vals_end - 1].to_vec()));
    for (i, (name, bytes)) in cases.iter().enumerate() {
        for outcome in open_both(bytes, "crafted", i as u64) {
            let err = outcome.expect_err(name);
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{name}: {err}");
        }
    }
    assert!(open_both(&valid, "crafted-valid", 0)
        .iter()
        .all(Result::is_ok));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A flipped bit anywhere in the header, offset or column section
    /// gives an error or a store that reads in range; never a panic.
    #[test]
    fn bit_flipped_stores_never_panic(at in 0usize..100_000, bit in 0u32..64) {
        let mut bytes = valid_bytes(1 + ((at as u64) << 8 | bit as u64));
        let cols_end = PAGE * 3;
        let at = (at % (cols_end / 8)) * 8;
        let v = get_u64(&bytes, at) ^ (1u64 << bit);
        put_u64(&mut bytes, at, v);
        open_both(&bytes, "flipped", (at as u64) << 8 | bit as u64);
    }
}
