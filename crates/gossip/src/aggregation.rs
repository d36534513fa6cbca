//! Aggregation gossip (push–pull averaging).
//!
//! Jelasity et al.'s averaging protocol: every cycle each alive node contacts one random alive
//! peer and both replace their current estimates by the pair's mean.  The estimates converge
//! exponentially fast to the global average of the nodes' local values.  The paper uses this
//! protocol to give every node the **system-wide average node capacity** and **average
//! bandwidth**, which feed all expected-time estimates (`eet`, `ett`, RPM, `eft`).
//!
//! To track values that drift over time (node churn changes the true averages) the protocol is
//! restarted in epochs: every `restart_every` cycles each node re-seeds its estimate from its
//! current local value, as in the original paper's periodic restart mechanism.  Consumers never
//! see the freshly re-seeded values, though: at each restart the converged estimates of the
//! finished epoch are snapshotted, and [`AggregationGossip::estimate`] reports that snapshot
//! while the new epoch converges in the background — so scheduling decisions taken right after
//! a restart are as well informed as ones taken at the end of an epoch.

use crate::state::PeerId;
use crate::view::NewscastView;
use p2pgrid_sim::SimRng;

/// Configuration of the aggregation protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggregationConfig {
    /// Number of cycles per epoch; estimates are re-seeded from local values at epoch start.
    pub restart_every: u32,
}

impl Default for AggregationConfig {
    fn default() -> Self {
        AggregationConfig { restart_every: 12 }
    }
}

/// Push–pull averaging state for one metric across all nodes.
#[derive(Debug, Clone)]
pub struct AggregationGossip {
    config: AggregationConfig,
    estimates: Vec<f64>,
    initialized: Vec<bool>,
    /// Converged estimates snapshotted at the last epoch restart (reported to consumers).
    reported: Vec<f64>,
    has_report: Vec<bool>,
    cycle: u32,
    exchanges: u64,
}

impl AggregationGossip {
    /// Create the protocol state for `n` nodes.
    pub fn new(n: usize, config: AggregationConfig) -> Self {
        AggregationGossip {
            config,
            estimates: vec![0.0; n],
            initialized: vec![false; n],
            reported: vec![0.0; n],
            has_report: vec![false; n],
            cycle: 0,
            exchanges: 0,
        }
    }

    /// The estimate `node` currently reports: the converged value of the last finished epoch,
    /// or the in-progress estimate while the first epoch is still running.
    ///
    /// Before the first cycle (or right after a node joins) this is the node's own local value.
    pub fn estimate(&self, node: PeerId) -> f64 {
        if self.has_report[node] {
            self.reported[node]
        } else {
            self.estimates[node]
        }
    }

    /// Number of pairwise exchanges performed so far.
    pub fn exchanges(&self) -> u64 {
        self.exchanges
    }

    /// Run one push–pull averaging cycle.
    ///
    /// `local[i]` is the node's current local value (`None` for departed nodes) and `views[i]`
    /// supplies peer candidates; nodes with empty views fall back to a uniformly random alive
    /// peer so that bootstrap and churn cannot stall convergence.
    pub fn run_cycle(&mut self, local: &[Option<f64>], views: &[NewscastView], rng: &mut SimRng) {
        let n = self.estimates.len();
        assert_eq!(local.len(), n);
        assert_eq!(views.len(), n);

        let alive: Vec<PeerId> = (0..n).filter(|&i| local[i].is_some()).collect();
        if alive.is_empty() {
            self.cycle += 1;
            return;
        }

        // Epoch restart / (re-)initialisation from local values.  The finished epoch's
        // converged estimates become the reported snapshot before they are re-seeded.
        let restart = self.cycle.is_multiple_of(self.config.restart_every);
        if restart && self.cycle > 0 {
            for &i in &alive {
                if self.initialized[i] {
                    self.reported[i] = self.estimates[i];
                    self.has_report[i] = true;
                }
            }
        }
        for &i in &alive {
            if restart || !self.initialized[i] {
                self.estimates[i] = local[i].expect("alive");
                self.initialized[i] = true;
            }
        }
        for (i, v) in local.iter().enumerate() {
            if v.is_none() {
                self.initialized[i] = false;
                self.has_report[i] = false;
            }
        }

        // Push-pull exchanges.
        for &i in &alive {
            let peer = views[i]
                .random_peer(rng)
                .filter(|&p| p != i && local[p].is_some())
                .or_else(|| {
                    let candidates: Vec<PeerId> =
                        alive.iter().copied().filter(|&p| p != i).collect();
                    rng.choose(&candidates).copied()
                });
            if let Some(p) = peer {
                let mean = (self.estimates[i] + self.estimates[p]) / 2.0;
                self.estimates[i] = mean;
                self.estimates[p] = mean;
                self.exchanges += 1;
            }
        }
        self.cycle += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pgrid_sim::SimTime;

    fn full_views(n: usize) -> Vec<NewscastView> {
        (0..n)
            .map(|i| {
                let mut v = NewscastView::new(i, n);
                for p in 0..n {
                    if p != i {
                        v.insert(p, SimTime::ZERO);
                    }
                }
                v
            })
            .collect()
    }

    /// Mean absolute relative error of the alive nodes' estimates against the exact average
    /// of their local values.
    fn mean_relative_error(agg: &AggregationGossip, local: &[Option<f64>]) -> f64 {
        let alive: Vec<(usize, f64)> = local
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|v| (i, v)))
            .collect();
        let truth = alive.iter().map(|&(_, v)| v).sum::<f64>() / alive.len() as f64;
        let errors = alive
            .iter()
            .map(|&(i, _)| (agg.estimate(i) - truth).abs() / truth);
        errors.sum::<f64>() / alive.len() as f64
    }

    #[test]
    fn estimates_converge_exponentially_to_the_mean() {
        let n = 100;
        let local: Vec<Option<f64>> = (0..n).map(|i| Some((i % 16 + 1) as f64)).collect();
        let views = full_views(n);
        let mut agg = AggregationGossip::new(
            n,
            AggregationConfig {
                restart_every: 1000,
            },
        );
        let mut rng = SimRng::seed_from_u64(1);
        agg.run_cycle(&local, &views, &mut rng);
        let err_after_1 = mean_relative_error(&agg, &local);
        for _ in 0..14 {
            agg.run_cycle(&local, &views, &mut rng);
        }
        let err_after_15 = mean_relative_error(&agg, &local);
        assert!(
            err_after_15 < err_after_1 / 10.0,
            "convergence too slow: {err_after_1} -> {err_after_15}"
        );
        assert!(
            err_after_15 < 0.02,
            "estimates should be within 2% after 15 cycles"
        );
    }

    #[test]
    fn averaging_preserves_the_total_mass() {
        // Push-pull averaging conserves the sum of estimates within an epoch, which is the
        // mechanism behind its correctness.
        let n = 32;
        let local: Vec<Option<f64>> = (0..n).map(|i| Some(i as f64)).collect();
        let views = full_views(n);
        let mut agg = AggregationGossip::new(
            n,
            AggregationConfig {
                restart_every: 1000,
            },
        );
        let mut rng = SimRng::seed_from_u64(2);
        agg.run_cycle(&local, &views, &mut rng);
        let sum_after_first: f64 = (0..n).map(|i| agg.estimate(i)).sum();
        for _ in 0..10 {
            agg.run_cycle(&local, &views, &mut rng);
        }
        let sum_after_many: f64 = (0..n).map(|i| agg.estimate(i)).sum();
        assert!((sum_after_first - sum_after_many).abs() < 1e-6);
    }

    #[test]
    fn epoch_restart_tracks_changing_local_values() {
        let n = 50;
        let views = full_views(n);
        let mut agg = AggregationGossip::new(n, AggregationConfig { restart_every: 8 });
        let mut rng = SimRng::seed_from_u64(3);
        let local_a: Vec<Option<f64>> = (0..n).map(|_| Some(10.0)).collect();
        for _ in 0..16 {
            agg.run_cycle(&local_a, &views, &mut rng);
        }
        assert!((agg.estimate(0) - 10.0).abs() < 1e-9);
        // The system-wide truth drops to 5.0; after a couple of epochs the estimates follow.
        let local_b: Vec<Option<f64>> = (0..n).map(|_| Some(5.0)).collect();
        for _ in 0..24 {
            agg.run_cycle(&local_b, &views, &mut rng);
        }
        assert!(
            (agg.estimate(0) - 5.0).abs() < 0.5,
            "estimate {} did not track the new mean",
            agg.estimate(0)
        );
    }

    #[test]
    fn restart_reports_the_finished_epochs_converged_estimate() {
        let n = 64;
        let views = full_views(n);
        let mut agg = AggregationGossip::new(n, AggregationConfig { restart_every: 8 });
        let mut rng = SimRng::seed_from_u64(9);
        let local: Vec<Option<f64>> = (0..n).map(|i| Some((i % 16 + 1) as f64)).collect();
        // Run exactly one cycle past a restart: the raw estimates were just re-seeded from
        // wildly spread local values, but the *reported* estimates must still be the previous
        // epoch's converged values.
        for _ in 0..9 {
            agg.run_cycle(&local, &views, &mut rng);
        }
        let err = mean_relative_error(&agg, &local);
        assert!(
            err < 0.05,
            "reported estimates right after a restart should stay converged, error {err}"
        );
    }

    #[test]
    fn churned_nodes_are_excluded_from_the_average() {
        let n = 40;
        let views = full_views(n);
        let mut agg = AggregationGossip::new(n, AggregationConfig { restart_every: 4 });
        let mut rng = SimRng::seed_from_u64(4);
        // Half the nodes have capacity 2, half 8; full population mean = 5.
        let mut local: Vec<Option<f64>> = (0..n)
            .map(|i| Some(if i % 2 == 0 { 2.0 } else { 8.0 }))
            .collect();
        for _ in 0..12 {
            agg.run_cycle(&local, &views, &mut rng);
        }
        // All the capacity-8 nodes leave; the mean of the survivors is 2.
        for (i, v) in local.iter_mut().enumerate() {
            if i % 2 == 1 {
                *v = None;
            }
        }
        for _ in 0..24 {
            agg.run_cycle(&local, &views, &mut rng);
        }
        let err = mean_relative_error(&agg, &local);
        assert!(
            err < 0.05,
            "survivor estimates should re-converge, error {err}"
        );
    }

    #[test]
    fn joining_node_adopts_its_local_value_then_blends_in() {
        let n = 10;
        let views = full_views(n);
        let mut agg = AggregationGossip::new(n, AggregationConfig::default());
        let mut rng = SimRng::seed_from_u64(5);
        let mut local: Vec<Option<f64>> = (0..n).map(|_| Some(4.0)).collect();
        local[7] = None;
        agg.run_cycle(&local, &views, &mut rng);
        // Node 7 joins with a very different local value.
        local[7] = Some(400.0);
        agg.run_cycle(&local, &views, &mut rng);
        assert!(
            agg.estimate(7) > 4.0,
            "joining node must start from its local value"
        );
        assert!(agg.exchanges() > 0);
    }
}
