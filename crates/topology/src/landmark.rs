//! Landmark-based bandwidth estimation.
//!
//! The paper estimates network status with a "landmark based mechanism" (its reference \[17\]):
//! each node only monitors its links towards `log2(n)` landmark nodes and propagates that list
//! through the epidemic gossip protocol, after which every node can *estimate* the bandwidth of
//! any pair without ever probing it directly.  The classic landmark estimate of the bandwidth
//! between `u` and `v` is the best bottleneck through a common landmark:
//!
//! ```text
//! est(u, v) = max over landmarks L of min(bw(u, L), bw(L, v))
//! ```
//!
//! This under-estimates the true widest-path bandwidth (the real best path need not pass
//! through a landmark) but requires only `O(n log n)` probes instead of `O(n^2)`.
//!
//! The schedulers ask for the same pairs millions of times per session, so the first estimate
//! folds every pair once into an `n × n` table and each later one is a single read.  The table
//! holds `f32`: every probe is an `f32` bandwidth of [`PairwiseMetrics`] widened to `f64`, so
//! every min/max of probes is an exact `f32` and the table returns the fold's value bit for bit.

use crate::graph::NodeId;
use crate::paths::PairwiseMetrics;
use p2pgrid_sim::SimRng;
use std::sync::OnceLock;

/// Landmark-based estimator of pairwise bandwidth.
#[derive(Debug, Clone)]
pub struct LandmarkEstimator {
    landmarks: Vec<NodeId>,
    /// `probes[u][k]` = measured bandwidth from node `u` to landmark `k` (Mb/s).
    probes: Vec<Vec<f64>>,
    /// `table[u * n + v]` = the estimate for `(u, v)`, built by the first estimate.
    table: OnceLock<Vec<f32>>,
}

impl LandmarkEstimator {
    /// Number of landmarks the paper prescribes for an `n`-node system: `ceil(log2 n)`, at
    /// least 1.
    pub fn recommended_landmark_count(n: usize) -> usize {
        if n <= 2 {
            1
        } else {
            (n as f64).log2().ceil() as usize
        }
    }

    /// Build an estimator by choosing `k` random landmarks and probing every node's bandwidth
    /// towards each of them using the ground-truth metrics.
    pub fn build(metrics: &PairwiseMetrics, k: usize, rng: &mut SimRng) -> Self {
        let n = metrics.node_count();
        let k = k.clamp(1, n.max(1));
        let all: Vec<NodeId> = (0..n).collect();
        let landmarks: Vec<NodeId> = rng.choose_multiple(&all, k).into_iter().copied().collect();
        let probes = (0..n)
            .map(|u| {
                landmarks
                    .iter()
                    .map(|&l| {
                        let bw = metrics.bandwidth_mbps(u, l);
                        if bw.is_infinite() {
                            // A landmark probing itself sees "infinite" local bandwidth; cap it
                            // with its best real link so estimates stay finite.
                            (0..n)
                                .filter(|&v| v != u)
                                .map(|v| metrics.bandwidth_mbps(u, v))
                                .fold(0.0f64, f64::max)
                        } else {
                            bw
                        }
                    })
                    .collect()
            })
            .collect();
        LandmarkEstimator {
            landmarks,
            probes,
            table: OnceLock::new(),
        }
    }

    /// Build an estimator with the paper-recommended `log2(n)` landmarks.
    pub fn build_default(metrics: &PairwiseMetrics, rng: &mut SimRng) -> Self {
        let k = Self::recommended_landmark_count(metrics.node_count());
        Self::build(metrics, k, rng)
    }

    /// The chosen landmark nodes.
    pub fn landmarks(&self) -> &[NodeId] {
        &self.landmarks
    }

    /// Estimate the bandwidth between `u` and `v` in Mb/s.
    ///
    /// # Panics
    /// If `u` or `v` is not a node of the topology the estimator was built on.
    pub fn estimate_bandwidth_mbps(&self, u: NodeId, v: NodeId) -> f64 {
        let n = self.probes.len();
        let table = self.table.get_or_init(|| self.build_table());
        // Slice the row first so `v` is checked against `n`: a flat `u * n + v` index would
        // read pair (0, n) as pair (1, 0).
        f64::from(table[u * n..(u + 1) * n][v])
    }

    /// Fold every pair through the landmarks once: `max_L min(bw(u, L), bw(L, v))`, and ∞ on
    /// the diagonal.
    fn build_table(&self) -> Vec<f32> {
        let n = self.probes.len();
        let mut table = Vec::with_capacity(n * n);
        for (u, pu) in self.probes.iter().enumerate() {
            table.extend(self.probes.iter().enumerate().map(|(v, pv)| {
                if u == v {
                    f32::INFINITY
                } else {
                    let est = pu
                        .iter()
                        .zip(pv)
                        .map(|(a, b)| a.min(*b))
                        .fold(0.0f64, f64::max);
                    est as f32
                }
            }));
        }
        table
    }

    /// Mean relative error of the estimate against ground truth over all connected pairs.
    #[cfg(test)]
    pub(crate) fn mean_relative_error(&self, metrics: &PairwiseMetrics) -> f64 {
        let n = metrics.node_count();
        let mut sum = 0.0;
        let mut cnt = 0u64;
        for u in 0..n {
            for v in (u + 1)..n {
                let truth = metrics.bandwidth_mbps(u, v);
                if truth <= 0.0 || truth.is_infinite() {
                    continue;
                }
                let est = self.estimate_bandwidth_mbps(u, v);
                sum += (est - truth).abs() / truth;
                cnt += 1;
            }
        }
        if cnt == 0 {
            0.0
        } else {
            sum / cnt as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waxman::{WaxmanConfig, WaxmanGenerator};

    fn setup(n: usize, seed: u64) -> (PairwiseMetrics, SimRng) {
        let mut rng = SimRng::seed_from_u64(seed);
        let topo = WaxmanGenerator::new(WaxmanConfig::with_nodes(n)).generate(&mut rng);
        (PairwiseMetrics::compute(&topo), rng)
    }

    #[test]
    fn recommended_count_is_log2() {
        assert_eq!(LandmarkEstimator::recommended_landmark_count(2), 1);
        assert_eq!(LandmarkEstimator::recommended_landmark_count(1024), 10);
        assert_eq!(LandmarkEstimator::recommended_landmark_count(1000), 10);
        assert_eq!(LandmarkEstimator::recommended_landmark_count(1_000_000), 20);
    }

    #[test]
    fn estimates_never_exceed_ground_truth_widest_path() {
        let (metrics, mut rng) = setup(60, 5);
        let est = LandmarkEstimator::build_default(&metrics, &mut rng);
        for u in 0..metrics.node_count() {
            for v in 0..metrics.node_count() {
                if u == v {
                    continue;
                }
                let e = est.estimate_bandwidth_mbps(u, v);
                let t = metrics.bandwidth_mbps(u, v);
                assert!(
                    e <= t + 1e-6,
                    "landmark estimate {e} exceeded ground truth {t} for ({u},{v})"
                );
                assert!(e >= 0.0);
            }
        }
    }

    /// The landmark fold, evaluated per call straight from the probes: the reference the
    /// estimate table must reproduce bit for bit.
    fn reference_estimate(est: &LandmarkEstimator, u: NodeId, v: NodeId) -> f64 {
        if u == v {
            return f64::INFINITY;
        }
        est.landmarks
            .iter()
            .enumerate()
            .map(|(k, _)| est.probes[u][k].min(est.probes[v][k]))
            .fold(0.0f64, f64::max)
    }

    proptest::proptest! {
        #[test]
        fn table_estimates_match_the_landmark_fold(
            n in 1usize..=64,
            k_draw in 0usize..=67,
            seed in 0u64..=u64::MAX,
        ) {
            let (metrics, mut rng) = setup(n, seed);
            // k from 0 to n + 3: below, at and above the clamp to 1..=n.
            let est = LandmarkEstimator::build(&metrics, k_draw % (n + 4), &mut rng);
            for u in 0..n {
                for v in 0..n {
                    proptest::prop_assert_eq!(
                        est.estimate_bandwidth_mbps(u, v).to_bits(),
                        reference_estimate(&est, u, v).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn estimate_is_symmetric() {
        let (metrics, mut rng) = setup(40, 7);
        let est = LandmarkEstimator::build_default(&metrics, &mut rng);
        for u in 0..40 {
            for v in 0..40 {
                let a = est.estimate_bandwidth_mbps(u, v);
                let b = est.estimate_bandwidth_mbps(v, u);
                if u == v {
                    assert_eq!(a, f64::INFINITY);
                }
                assert_eq!(a.to_bits(), b.to_bits(), "({u}, {v})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn a_node_id_past_the_topology_panics() {
        // Row-major, (0, n) sits where (1, 0) does: the read must be bounds-checked per row.
        let (metrics, mut rng) = setup(6, 3);
        let est = LandmarkEstimator::build_default(&metrics, &mut rng);
        est.estimate_bandwidth_mbps(0, 6);
    }

    #[test]
    fn more_landmarks_reduce_error() {
        let (metrics, rng) = setup(80, 11);
        let few = LandmarkEstimator::build(&metrics, 2, &mut rng.derive("few"));
        let many = LandmarkEstimator::build(&metrics, 40, &mut rng.derive("many"));
        let err_few = few.mean_relative_error(&metrics);
        let err_many = many.mean_relative_error(&metrics);
        assert!(
            err_many <= err_few + 1e-9,
            "error with 40 landmarks ({err_many}) should not exceed error with 2 ({err_few})"
        );
    }

    #[test]
    fn landmark_count_is_clamped_to_node_count() {
        let (metrics, mut rng) = setup(5, 13);
        let est = LandmarkEstimator::build(&metrics, 100, &mut rng);
        assert_eq!(est.landmarks().len(), 5);
        let est1 = LandmarkEstimator::build(&metrics, 0, &mut rng);
        assert_eq!(est1.landmarks().len(), 1);
    }

    #[test]
    fn error_is_moderate_on_wan_topologies() {
        let (metrics, mut rng) = setup(100, 23);
        let est = LandmarkEstimator::build_default(&metrics, &mut rng);
        let err = est.mean_relative_error(&metrics);
        // The estimate is a lower bound; with log2(n) landmarks it should still be within a
        // reasonable band of the truth on Waxman graphs.
        assert!(err < 0.9, "mean relative error unexpectedly large: {err}");
    }
}
