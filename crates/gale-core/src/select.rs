//! QSelect (Section V-B): greedy diversified-typicality query selection.
//!
//! Maximizes `T(Q) + λ Σ_{v,v'∈Q} d(h(v), h(v'))` over size-`k` subsets of
//! the unlabeled pool. The greedy rule adds the node with the largest
//! marginal gain `B'_v(Q) = ½ T(v) + λ Σ_{q∈Q} d(h(v), h(q))`, the standard
//! 2-approximation for max-sum p-dispersion with a monotone submodular
//! utility (Borodin et al., the paper's Lemma 1).
//!
//! Tie-break rule: when several candidates share the maximal marginal gain,
//! the one at the **lowest index in the candidate slice wins** — the
//! ascending argmax scan rejects equal gains (`gain <= best`), so the first
//! maximum seen is kept. The rule is part of the determinism contract (see
//! DESIGN.md §6b.2) and holds identically for the memoized and
//! un-memoized paths.
//!
//! Each round's distance fan-out (picked node → every remaining candidate)
//! is one blocked [`MemoCache::fanout_distances`] kernel call feeding the
//! running diversity sums, instead of `n` scalar euclidean calls.

use crate::memo::MemoCache;
use gale_tensor::Matrix;

/// Greedy diversified-typicality selection.
///
/// * `embeddings` — full `H_n(X_R)` matrix (rows indexed by node id);
/// * `unlabeled` — candidate node ids;
/// * `typicality` — `T(v)` per candidate (parallel to `unlabeled`);
/// * `k` — query budget;
/// * `lambda` — diversity weight λ;
/// * `memo` — row-norm cache (pass a disabled cache for `U_GALE`).
///
/// Returns at most `k` node ids.
pub fn qselect(
    embeddings: &Matrix,
    unlabeled: &[usize],
    typicality: &[f64],
    k: usize,
    lambda: f64,
    memo: &mut MemoCache,
) -> Vec<usize> {
    assert_eq!(
        unlabeled.len(),
        typicality.len(),
        "qselect: typicality/candidate mismatch"
    );
    let k = k.min(unlabeled.len());
    if k == 0 {
        return Vec::new();
    }
    // The fan-out kernel reads cached |x|² row norms; refresh them once per
    // selection (the embeddings cannot change mid-selection).
    memo.ensure_row_norms(embeddings);
    let mut selected: Vec<usize> = Vec::with_capacity(k);
    // Running Σ_{q∈Q} d(h(v), h(q)) per candidate. `half_typ` hoists the
    // `0.5 * T(v)` product out of the argmax so the fused pass below
    // evaluates the exact gain expression `0.5*T(v) + λ*Σd` bit for bit.
    // Picked candidates have their entry masked to `-inf`, which makes
    // every future gain `-inf` — rejected by the `gain <= best` test
    // without a membership branch in the hot loop.
    let mut div_sum = vec![0.0f64; unlabeled.len()];
    let mut half_typ: Vec<f64> = typicality.iter().map(|t| 0.5 * t).collect();
    // One fan-out row per round, parallel to `unlabeled`, reused across
    // rounds.
    let mut fan: Vec<f64> = Vec::new();

    // Round 0 argmax: all diversity sums are zero, so the gain is `½ T(v)`
    // alone. `gain <= best` rejects equal gains, so ties break to the
    // lowest candidate index (documented determinism contract, here and
    // below).
    let mut best_i = usize::MAX;
    let mut best_gain = f64::NEG_INFINITY;
    for (i, &ht) in half_typ.iter().enumerate() {
        let gain = ht + lambda * 0.0;
        if gain > best_gain {
            best_gain = gain;
            best_i = i;
        }
    }

    while best_i != usize::MAX {
        let round_start = std::time::Instant::now();
        let pick = best_i;
        half_typ[pick] = f64::NEG_INFINITY;
        let picked_node = unlabeled[pick];
        selected.push(picked_node);
        // Update diversity sums against the new member: one blocked kernel
        // call covering every candidate. Memoized and un-memoized runs
        // evaluate the identical kernel, so the toggle cannot change
        // selections.
        memo.fanout_distances(embeddings, unlabeled, picked_node, &mut fan);
        // Fused merge + next-round argmax: one streaming pass over the
        // fan-out row folds each candidate's new distance into its running
        // sum and immediately scores the updated gain, instead of a second
        // scan re-reading cache lines the kernel sweep just evicted.
        // Already-selected candidates still accumulate (their masked gains
        // are `-inf` and never win), preserving the un-fused semantics.
        best_i = usize::MAX;
        best_gain = f64::NEG_INFINITY;
        for i in 0..unlabeled.len() {
            let s = div_sum[i] + fan[i];
            div_sum[i] = s;
            let gain = half_typ[i] + lambda * s;
            if gain > best_gain {
                best_gain = gain;
                best_i = i;
            }
        }
        gale_obs::hist_record!(
            "select.round_time",
            gale_obs::metrics::buckets::TIME_US,
            round_start.elapsed().as_secs_f64() * 1e6
        );
        if selected.len() == k {
            break;
        }
    }
    selected
}

/// Objective value of a query set (used by tests and the approximation
/// check): `T(Q) + λ Σ_{v<v'} d(h(v), h(v'))`.
pub fn objective(
    embeddings: &Matrix,
    queries: &[usize],
    typicality_of: impl Fn(usize) -> f64,
    lambda: f64,
) -> f64 {
    let t: f64 = queries.iter().map(|&v| typicality_of(v)).sum();
    let mut div = 0.0;
    for (i, &a) in queries.iter().enumerate() {
        for &b in &queries[i + 1..] {
            div += gale_tensor::distance::euclidean(embeddings.row(a), embeddings.row(b));
        }
    }
    t + lambda * div
}

#[cfg(test)]
mod tests {
    use super::*;
    use gale_tensor::Rng;
    use std::collections::HashMap;

    fn random_instance(n: usize, dim: usize, seed: u64) -> (Matrix, Vec<usize>, Vec<f64>) {
        let mut rng = Rng::seed_from_u64(seed);
        let h = Matrix::randn(n, dim, 1.0, &mut rng);
        let unlabeled: Vec<usize> = (0..n).collect();
        let typ: Vec<f64> = (0..n).map(|_| rng.f64() * 2.0).collect();
        (h, unlabeled, typ)
    }

    /// Exhaustive best objective over all size-k subsets (tiny n only).
    #[allow(clippy::too_many_arguments)]
    fn brute_force(
        h: &Matrix,
        unlabeled: &[usize],
        typ: &HashMap<usize, f64>,
        k: usize,
        lambda: f64,
    ) -> f64 {
        #[allow(clippy::too_many_arguments)]
        fn rec(
            h: &Matrix,
            cands: &[usize],
            typ: &HashMap<usize, f64>,
            k: usize,
            lambda: f64,
            start: usize,
            cur: &mut Vec<usize>,
            best: &mut f64,
        ) {
            if cur.len() == k {
                let val = objective(h, cur, |v| typ[&v], lambda);
                if val > *best {
                    *best = val;
                }
                return;
            }
            for i in start..cands.len() {
                cur.push(cands[i]);
                rec(h, cands, typ, k, lambda, i + 1, cur, best);
                cur.pop();
            }
        }
        let mut best = f64::NEG_INFINITY;
        rec(h, unlabeled, typ, k, lambda, 0, &mut Vec::new(), &mut best);
        best
    }

    #[test]
    fn selects_exactly_k() {
        let (h, u, t) = random_instance(30, 4, 1);
        let mut memo = MemoCache::new(true, 1e-9);
        memo.update_embeddings(&h);
        let q = qselect(&h, &u, &t, 7, 0.5, &mut memo);
        assert_eq!(q.len(), 7);
        let mut dedup = q.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 7, "duplicates selected");
    }

    #[test]
    fn k_larger_than_pool_clamps() {
        let (h, u, t) = random_instance(5, 3, 2);
        let mut memo = MemoCache::new(false, 1e-9);
        let q = qselect(&h, &u, &t, 50, 0.5, &mut memo);
        assert_eq!(q.len(), 5);
    }

    #[test]
    fn pure_typicality_when_lambda_zero() {
        let (h, u, t) = random_instance(20, 3, 3);
        let mut memo = MemoCache::new(false, 1e-9);
        let q = qselect(&h, &u, &t, 5, 0.0, &mut memo);
        // With λ=0 the greedy picks the top-5 typicality nodes.
        let mut by_t: Vec<usize> = (0..20).collect();
        by_t.sort_by(|&a, &b| t[b].partial_cmp(&t[a]).unwrap());
        let expected: std::collections::HashSet<usize> = by_t[..5].iter().copied().collect();
        let got: std::collections::HashSet<usize> = q.into_iter().collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn diversity_spreads_selection() {
        // Two tight clusters; high typicality in cluster A only. With large
        // λ, the selection still crosses into cluster B.
        let mut rows = Vec::new();
        let mut typ = Vec::new();
        for i in 0..10 {
            let c = if i < 5 { 0.0 } else { 20.0 };
            rows.push(vec![c + (i % 5) as f64 * 0.01, 0.0]);
            typ.push(if i < 5 { 1.0 } else { 0.2 });
        }
        let h = Matrix::from_rows(&rows);
        let u: Vec<usize> = (0..10).collect();
        let mut memo = MemoCache::new(false, 1e-9);
        let q = qselect(&h, &u, &typ, 4, 1.0, &mut memo);
        let far = q.iter().filter(|&&v| v >= 5).count();
        assert!(far >= 1, "no diversity: {q:?}");
        // And with λ = 0 it never leaves cluster A.
        let q0 = qselect(&h, &u, &typ, 4, 0.0, &mut memo);
        assert!(q0.iter().all(|&v| v < 5), "λ=0 left cluster A: {q0:?}");
    }

    #[test]
    fn greedy_within_half_of_optimum_on_small_instances() {
        // Lemma 1: 2-approximation. Verify empirically against brute force.
        for seed in 0..5 {
            let (h, u, t) = random_instance(9, 3, 100 + seed);
            let typ_map: HashMap<usize, f64> = u.iter().copied().zip(t.iter().copied()).collect();
            let mut memo = MemoCache::new(true, 1e-9);
            memo.update_embeddings(&h);
            let q = qselect(&h, &u, &t, 4, 0.7, &mut memo);
            let greedy_val = objective(&h, &q, |v| typ_map[&v], 0.7);
            let opt = brute_force(&h, &u, &typ_map, 4, 0.7);
            assert!(
                greedy_val >= opt / 2.0 - 1e-9,
                "seed {seed}: greedy {greedy_val} < half of optimum {opt}"
            );
        }
    }

    #[test]
    fn empty_pool_or_zero_budget() {
        let (h, u, t) = random_instance(10, 3, 4);
        let mut memo = MemoCache::new(false, 1e-9);
        assert!(qselect(&h, &u, &t, 0, 0.5, &mut memo).is_empty());
        assert!(qselect(&h, &[], &[], 5, 0.5, &mut memo).is_empty());
    }

    #[test]
    fn argmax_ties_break_to_lowest_candidate_index() {
        // All-equal typicality with λ = 0 makes every round a full tie: the
        // contract says the lowest candidate index wins each time, so the
        // selection is simply the candidates in slice order.
        let (h, u, _) = random_instance(12, 3, 6);
        let t = vec![1.0; 12];
        let mut memo = MemoCache::new(false, 1e-9);
        let q = qselect(&h, &u, &t, 4, 0.0, &mut memo);
        assert_eq!(q, vec![0, 1, 2, 3]);
        // Ties break by position in `unlabeled`, not by node id.
        let u2 = vec![9, 4, 7, 1, 0, 3];
        let t2 = vec![1.0; 6];
        let q2 = qselect(&h, &u2, &t2, 3, 0.0, &mut memo);
        assert_eq!(q2, vec![9, 4, 7]);
    }

    #[test]
    fn memoized_and_unmemoized_agree() {
        let (h, u, t) = random_instance(40, 5, 5);
        let mut m1 = MemoCache::new(true, 1e-9);
        m1.update_embeddings(&h);
        let mut m2 = MemoCache::new(false, 1e-9);
        let q1 = qselect(&h, &u, &t, 10, 0.8, &mut m1);
        let q2 = qselect(&h, &u, &t, 10, 0.8, &mut m2);
        assert_eq!(q1, q2, "memoization changed the selection");
    }
}
