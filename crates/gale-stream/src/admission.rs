//! Structure-aware admission filtering for streamed edges.
//!
//! Streamed edges are noisy: "Active Learning for Graphs with Noisy
//! Structures" (arXiv 2402.02321) motivates filtering structure-suspect
//! edges *before* they poison embeddings rather than hoping the learner
//! shrugs them off. Two cheap heuristics run at admission time:
//!
//! 1. **Feature distance** — an edge whose endpoint features sit far
//!    outside the distance distribution of edges admitted so far is
//!    suspect. The filter keeps running mean/variance (Welford) over
//!    admitted-edge feature distances, seeded deterministically from the
//!    base graph's edges, and rejects when `dist > mean + z·std` (once
//!    enough samples exist for the bound to mean anything).
//! 2. **Degree cap** — a node accreting unbounded degree in a stream is
//!    the classic spam/crawler signature; edges that would push an
//!    endpoint past the cap are rejected.
//!
//! Rejected edges land in a fixed-capacity quarantine ring surfaced
//! through `/debug/stream` and the `stream.quarantined_total` counter —
//! quarantine is observable, not a silent drop.

use std::collections::VecDeque;

/// Why an edge was quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Endpoint feature distance beyond the z-score bound.
    FeatureDistance,
    /// An endpoint would exceed the degree cap.
    DegreeCap,
}

impl RejectReason {
    /// Wire/debug label.
    pub fn label(&self) -> &'static str {
        match self {
            RejectReason::FeatureDistance => "feature_distance",
            RejectReason::DegreeCap => "degree_cap",
        }
    }
}

/// A quarantined edge, as surfaced in `/debug/stream`.
#[derive(Debug, Clone)]
pub struct QuarantinedEdge {
    /// Mutation sequence number that proposed the edge.
    pub seq: u64,
    /// One endpoint.
    pub u: usize,
    /// The other endpoint.
    pub v: usize,
    /// Endpoint feature distance at assessment time.
    pub distance: f64,
    /// Why it was rejected.
    pub reason: RejectReason,
}

/// Admission filter configuration.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Master switch; when off every edge is admitted.
    pub enabled: bool,
    /// Reject when `dist > mean + z_threshold * std`.
    pub z_threshold: f64,
    /// Minimum observed samples before the distance bound binds.
    pub min_samples: usize,
    /// Maximum endpoint degree an admitted edge may produce (0 = no cap).
    pub max_degree: usize,
    /// Quarantine ring capacity.
    pub quarantine_capacity: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            enabled: true,
            z_threshold: 4.0,
            min_samples: 32,
            max_degree: 0,
            quarantine_capacity: 256,
        }
    }
}

/// Welford-accumulated admission statistics plus the quarantine ring.
pub struct AdmissionFilter {
    cfg: AdmissionConfig,
    count: u64,
    mean: f64,
    m2: f64,
    ring: VecDeque<QuarantinedEdge>,
    /// Total edges quarantined (ring evictions included).
    pub quarantined: u64,
}

impl AdmissionFilter {
    /// A fresh filter with no observed distances.
    pub fn new(cfg: AdmissionConfig) -> Self {
        AdmissionFilter {
            cfg,
            count: 0,
            mean: 0.0,
            m2: 0.0,
            ring: VecDeque::with_capacity(cfg.quarantine_capacity.min(1024)),
            quarantined: 0,
        }
    }

    /// Number of admitted-edge distances observed so far.
    pub fn samples(&self) -> u64 {
        self.count
    }

    /// Current mean admitted-edge distance.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Current admitted-edge distance standard deviation.
    pub fn std(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / self.count as f64).sqrt()
        }
    }

    /// Folds an admitted edge's feature distance into the statistics
    /// (also used to seed from the base graph's edges at build time).
    pub fn observe(&mut self, dist: f64) {
        if !dist.is_finite() {
            return;
        }
        self.count += 1;
        let delta = dist - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (dist - self.mean);
    }

    /// Assesses a proposed edge; `None` admits it. Admitted distances
    /// are *not* auto-observed — call [`AdmissionFilter::observe`] after
    /// the edge is actually applied, so rejected proposals never skew
    /// the statistics.
    pub fn assess(&self, dist: f64, deg_u: usize, deg_v: usize) -> Option<RejectReason> {
        if !self.cfg.enabled {
            return None;
        }
        if self.cfg.max_degree > 0 && (deg_u >= self.cfg.max_degree || deg_v >= self.cfg.max_degree)
        {
            return Some(RejectReason::DegreeCap);
        }
        if self.count >= self.cfg.min_samples as u64 {
            let bound = self.mean + self.cfg.z_threshold * self.std();
            if dist > bound {
                return Some(RejectReason::FeatureDistance);
            }
        }
        None
    }

    /// Records a rejection in the quarantine ring.
    pub fn quarantine(&mut self, edge: QuarantinedEdge) {
        self.quarantined += 1;
        gale_obs::counter_add!("stream.quarantined_total", 1);
        if self.ring.len() == self.cfg.quarantine_capacity.max(1) {
            self.ring.pop_front();
        }
        self.ring.push_back(edge);
    }

    /// The quarantine ring, oldest first.
    pub fn ring(&self) -> impl Iterator<Item = &QuarantinedEdge> {
        self.ring.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filter_with(samples: &[f64], cfg: AdmissionConfig) -> AdmissionFilter {
        let mut f = AdmissionFilter::new(cfg);
        for &d in samples {
            f.observe(d);
        }
        f
    }

    #[test]
    fn outlier_distance_is_rejected_after_warmup() {
        let cfg = AdmissionConfig {
            min_samples: 4,
            z_threshold: 3.0,
            ..Default::default()
        };
        let f = filter_with(&[1.0, 1.1, 0.9, 1.0, 1.05, 0.95], cfg);
        assert_eq!(f.assess(1.15, 1, 1), None, "inlier admitted");
        assert_eq!(
            f.assess(50.0, 1, 1),
            Some(RejectReason::FeatureDistance),
            "outlier rejected"
        );
    }

    #[test]
    fn bound_does_not_bind_before_min_samples() {
        let cfg = AdmissionConfig {
            min_samples: 100,
            ..Default::default()
        };
        let f = filter_with(&[1.0, 1.0], cfg);
        assert_eq!(f.assess(1e9, 1, 1), None);
    }

    #[test]
    fn degree_cap_rejects_hubs() {
        let cfg = AdmissionConfig {
            max_degree: 5,
            ..Default::default()
        };
        let f = AdmissionFilter::new(cfg);
        assert_eq!(f.assess(0.0, 5, 1), Some(RejectReason::DegreeCap));
        assert_eq!(f.assess(0.0, 4, 4), None);
    }

    #[test]
    fn disabled_filter_admits_everything() {
        let cfg = AdmissionConfig {
            enabled: false,
            max_degree: 1,
            min_samples: 0,
            ..Default::default()
        };
        let f = filter_with(&[0.1], cfg);
        assert_eq!(f.assess(1e12, 100, 100), None);
    }

    #[test]
    fn quarantine_ring_is_bounded() {
        let cfg = AdmissionConfig {
            quarantine_capacity: 2,
            ..Default::default()
        };
        let mut f = AdmissionFilter::new(cfg);
        for seq in 0..4 {
            f.quarantine(QuarantinedEdge {
                seq,
                u: 0,
                v: 1,
                distance: 9.0,
                reason: RejectReason::FeatureDistance,
            });
        }
        assert_eq!(f.quarantined, 4);
        let seqs: Vec<u64> = f.ring().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3]);
    }
}
