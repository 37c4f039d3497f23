//! Memorization structures (Section VII).
//!
//! GALE's iterative loop re-runs query selection every iteration, whose
//! dominant costs are (a) pairwise embedding distances and (b) recomputing
//! node typicality. The paper's optimization keeps a distance store, a
//! per-node dirty flag tracking whether the learned embedding changed
//! between consecutive iterations (element-wise within a tolerance), a
//! typicality dictionary, and the pre-computed (static) propagation
//! operator. This cache keeps the dirty flags, the typicality dictionary
//! and the squared row norms, but no distance store: QSelect computes each
//! round's fan-out with one blocked kernel over the cached norms and never
//! looks a pair up again. `U_GALE` — the un-memoized ablation — simply
//! runs with `enabled = false`, recomputing everything from scratch.

use gale_tensor::Matrix;
use std::collections::HashMap;

/// Cached per-iteration selection state: the k'-means centroids and the
/// PPR class-conflict vectors from the last full typicality computation.
/// When only a small fraction of embeddings changed, the next iteration
/// re-scores changed nodes against this state instead of re-running
/// k-means and the propagation smoothings — the paper's main saving.
#[derive(Debug, Clone)]
pub struct SelectionState {
    /// k'-means centroids over the unlabeled embeddings.
    pub centroids: Matrix,
    /// Smoothed class influence, `n x 2`: column `l` is `P m_l`.
    pub conflict: Matrix,
    /// Soft-label class per node (usize::MAX = unknown).
    pub soft_classes: Vec<usize>,
}

/// The memoization cache shared across active-learning iterations.
pub struct MemoCache {
    /// Master switch (false reproduces `U_GALE`).
    pub enabled: bool,
    /// Relative tolerance under which an embedding row counts as unchanged:
    /// a row is "significantly changed" only when some element moves by
    /// more than `tolerance x (mean |value| + 0.05)`. The paper explicitly
    /// permits approximate distances for not-significantly-changed
    /// embeddings (Section VII); a relative criterion keeps that judgement
    /// scale-free.
    pub tolerance: f64,
    snapshot: Option<Matrix>,
    /// Bumps every time a row's embedding changes materially.
    versions: Vec<u64>,
    /// Cached per-node typicality from the previous iteration, with the
    /// version each entry was computed at.
    typicality: HashMap<usize, (u64, f64)>,
    /// Statistics: typicality-cache interrogations and hits (for the
    /// Fig. 7(f) bench).
    pub lookups: u64,
    /// Typicality-cache hits.
    pub hits: u64,
    /// Cached selection state from the previous full typicality pass.
    pub selection_state: Option<SelectionState>,
    /// Fraction of embedding rows that changed at the last
    /// [`MemoCache::update_embeddings`] call.
    pub last_changed_fraction: f64,
    /// Number of full typicality recomputations skipped thanks to the cache.
    pub typicality_reuses: u64,
    /// Cached squared row norms `|h_v|²` for the blocked distance kernels,
    /// persisting across AL iterations (see [`MemoCache::ensure_row_norms`]).
    norms: Vec<f64>,
    /// Version each cached norm was computed at (`u64::MAX` = never).
    norm_versions: Vec<u64>,
}

impl MemoCache {
    /// A fresh cache.
    pub fn new(enabled: bool, tolerance: f64) -> Self {
        MemoCache {
            enabled,
            tolerance,
            snapshot: None,
            versions: Vec::new(),
            typicality: HashMap::new(),
            lookups: 0,
            hits: 0,
            selection_state: None,
            last_changed_fraction: 1.0,
            typicality_reuses: 0,
            norms: Vec::new(),
            norm_versions: Vec::new(),
        }
    }

    /// Brings the cached squared row norms up to date with `h`.
    ///
    /// When the cache is enabled, only rows whose dirty version moved since
    /// their norm was last computed are refreshed — unchanged rows never
    /// recompute `|x|²` across AL iterations. When disabled (`U_GALE`), all
    /// norms are recomputed from scratch, preserving the ablation's
    /// no-cross-iteration-reuse semantics while still using the batched
    /// kernels. Callers must invoke this before [`MemoCache::fanout_distances`]
    /// whenever `h` may have changed.
    pub fn ensure_row_norms(&mut self, h: &Matrix) {
        if !self.enabled {
            gale_tensor::distance::row_norms_sq_into(h, &mut self.norms);
            return;
        }
        let n = h.rows();
        if self.norm_versions.len() != n || self.norms.len() != n {
            self.norm_versions.clear();
            self.norm_versions.resize(n, u64::MAX);
            self.norms.clear();
            self.norms.resize(n, 0.0);
        }
        for r in 0..n {
            let v = self.version(r);
            if self.norm_versions[r] != v {
                self.norms[r] = gale_tensor::distance::row_norm_sq(h.row(r));
                self.norm_versions[r] = v;
            }
        }
    }

    /// The cached squared row norms (valid after
    /// [`MemoCache::ensure_row_norms`]).
    pub fn row_norms(&self) -> &[f64] {
        &self.norms
    }

    /// One selection round's distance fan-out: Euclidean distances from
    /// embedding row `target` to every row in `candidates`, computed by a
    /// single blocked kernel call over the cached row norms instead of
    /// `candidates.len()` scalar euclidean calls. The memoized and
    /// un-memoized paths evaluate the identical kernel, so toggling
    /// memoization cannot change which nodes a selection round picks.
    pub fn fanout_distances(
        &self,
        h: &Matrix,
        candidates: &[usize],
        target: usize,
        out: &mut Vec<f64>,
    ) {
        assert_eq!(
            self.norms.len(),
            h.rows(),
            "fanout_distances: call ensure_row_norms first"
        );
        out.clear();
        out.resize(candidates.len(), 0.0);
        gale_tensor::distance::indexed_dists_to_row_into(h, &self.norms, candidates, target, out);
    }

    /// Installs the iteration's embeddings, diffing against the previous
    /// snapshot to bump versions of materially-changed rows. Returns the
    /// number of changed rows.
    pub fn update_embeddings(&mut self, h: &Matrix) -> usize {
        if self.versions.len() != h.rows() {
            self.versions = vec![0; h.rows()];
        }
        let changed = match (&self.snapshot, self.enabled) {
            (Some(prev), true) if prev.shape() == h.shape() => {
                let mut changed = 0usize;
                for r in 0..h.rows() {
                    let row = prev.row(r);
                    let scale =
                        row.iter().map(|x| x.abs()).sum::<f64>() / row.len().max(1) as f64 + 0.05;
                    let budget = self.tolerance * scale;
                    let same = row
                        .iter()
                        .zip(h.row(r))
                        .all(|(a, b)| (a - b).abs() <= budget);
                    if !same {
                        self.versions[r] += 1;
                        changed += 1;
                    }
                }
                changed
            }
            _ => {
                for v in &mut self.versions {
                    *v += 1;
                }
                h.rows()
            }
        };
        // Only an enabled cache diffs against the snapshot; reuse its
        // allocation across iterations.
        if self.enabled {
            match &mut self.snapshot {
                Some(snap) => snap.copy_from(h),
                None => self.snapshot = Some(h.clone()),
            }
        }
        self.last_changed_fraction = if h.rows() == 0 {
            0.0
        } else {
            changed as f64 / h.rows() as f64
        };
        gale_obs::counter_add!("memo.updates", 1);
        gale_obs::counter_add!("memo.dirty_rows", changed as u64);
        changed
    }

    /// Cached typicality of a node, if its embedding hasn't changed since
    /// the value was stored. With the cache enabled every call counts as a
    /// lookup and every returned value as a hit.
    pub fn typicality(&mut self, node: usize) -> Option<f64> {
        if !self.enabled {
            return None;
        }
        self.lookups += 1;
        gale_obs::counter_add!("memo.lookups", 1);
        let cached = self
            .typicality
            .get(&node)
            .and_then(|&(v, t)| (v == self.versions[node]).then_some(t));
        if cached.is_some() {
            self.hits += 1;
            gale_obs::counter_add!("memo.hits", 1);
        }
        cached
    }

    /// Stores a node's typicality at its current version.
    pub fn store_typicality(&mut self, node: usize, value: f64) {
        if self.enabled {
            self.typicality.insert(node, (self.versions[node], value));
        }
    }

    /// Current version of a node's embedding (diagnostics).
    pub fn version(&self, node: usize) -> u64 {
        self.versions.get(node).copied().unwrap_or(0)
    }

    /// Typicality-cache hit rate so far (0 before the first lookup).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gale_tensor::Rng;

    fn embeddings(rng: &mut Rng) -> Matrix {
        Matrix::randn(10, 4, 1.0, rng)
    }

    #[test]
    fn tolerance_ignores_tiny_drift() {
        let mut rng = Rng::seed_from_u64(3);
        let h = embeddings(&mut rng);
        let mut memo = MemoCache::new(true, 1e-3);
        memo.update_embeddings(&h);
        let mut h2 = h.clone();
        h2[(4, 2)] += 1e-5;
        assert_eq!(memo.update_embeddings(&h2), 0);
    }

    #[test]
    fn disabled_cache_never_hits() {
        let mut rng = Rng::seed_from_u64(4);
        let h = embeddings(&mut rng);
        let mut memo = MemoCache::new(false, 1e-9);
        memo.update_embeddings(&h);
        memo.store_typicality(1, 0.4);
        assert!(memo.typicality(1).is_none());
        assert_eq!(memo.lookups, 0);
        assert_eq!(memo.hit_rate(), 0.0);
        // Every row counts as changed, and nothing is kept to diff against.
        assert_eq!(memo.update_embeddings(&h), h.rows());
        assert_eq!(memo.last_changed_fraction, 1.0);
        assert!(memo.snapshot.is_none());
    }

    #[test]
    fn typicality_cache_tracks_versions_and_counts_hits() {
        let mut rng = Rng::seed_from_u64(5);
        let h = embeddings(&mut rng);
        let mut memo = MemoCache::new(true, 1e-9);
        memo.update_embeddings(&h);
        memo.store_typicality(3, 0.7);
        assert_eq!(memo.typicality(3), Some(0.7));
        assert_eq!(memo.typicality(4), None);
        let mut h2 = h.clone();
        h2[(3, 0)] += 1.0;
        memo.update_embeddings(&h2);
        assert_eq!(memo.typicality(3), None, "stale typicality survived");
        assert_eq!((memo.lookups, memo.hits), (3, 1));
        assert_eq!(memo.hit_rate(), 1.0 / 3.0);
    }

    #[test]
    fn norms_cache_refreshes_only_dirty_rows() {
        let mut rng = Rng::seed_from_u64(7);
        let h = embeddings(&mut rng);
        let mut memo = MemoCache::new(true, 1e-9);
        memo.update_embeddings(&h);
        memo.ensure_row_norms(&h);
        for r in 0..h.rows() {
            assert_eq!(
                memo.row_norms()[r],
                gale_tensor::distance::row_norm_sq(h.row(r))
            );
        }
        let before = memo.row_norms().to_vec();
        let mut h2 = h.clone();
        h2[(0, 0)] += 1.0;
        assert_eq!(memo.update_embeddings(&h2), 1, "one changed row");
        memo.ensure_row_norms(&h2);
        assert_eq!(
            memo.row_norms()[0],
            gale_tensor::distance::row_norm_sq(h2.row(0))
        );
        assert_eq!(&memo.row_norms()[1..], &before[1..]);
    }

    #[test]
    fn fanout_matches_scalar_with_and_without_memoization() {
        let mut rng = Rng::seed_from_u64(8);
        let h = embeddings(&mut rng);
        let candidates: Vec<usize> = (0..h.rows()).collect();
        let mut rows = Vec::new();
        for enabled in [true, false] {
            let mut memo = MemoCache::new(enabled, 1e-9);
            memo.update_embeddings(&h);
            memo.ensure_row_norms(&h);
            let mut out = Vec::new();
            memo.fanout_distances(&h, &candidates, 3, &mut out);
            for (i, &v) in candidates.iter().enumerate() {
                let exact = gale_tensor::distance::euclidean(h.row(v), h.row(3));
                assert!(
                    (out[i] - exact).abs() <= 1e-9 * (1.0 + exact),
                    "candidate {v}: {} vs scalar {exact}",
                    out[i]
                );
            }
            assert_eq!(out[3], 0.0, "self pair");
            rows.push(out);
        }
        assert_eq!(rows[0], rows[1], "memoization changed the fan-out");
    }
}
