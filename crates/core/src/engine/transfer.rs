//! The ground-truth transfer timing model.
//!
//! Scheduling decisions *estimate* transfer times from gossip and landmark data; the engine
//! then times the actual migrations on the ground-truth network (the all-pairs bottleneck
//! bandwidths of the generated Waxman topology).  This module owns that ground truth: a
//! migrated task's inputs — its program image from the home node plus one dependent-data
//! transfer per finished precedent — all flow concurrently, so the task becomes data-complete
//! after the *slowest* individual transfer.  A local dispatch with no remote inputs is
//! data-complete at once, within the dispatching instant.

use crate::estimate::PredecessorData;
use crate::NodeId;
use p2pgrid_topology::PairwiseMetrics;

/// Ground-truth transfer timing over the generated topology.
#[derive(Debug, Clone)]
pub struct TransferModel {
    metrics: PairwiseMetrics,
}

impl TransferModel {
    /// Wrap the precomputed all-pairs metrics of the run's topology.
    pub fn new(metrics: PairwiseMetrics) -> Self {
        TransferModel { metrics }
    }

    /// The underlying all-pairs metrics.
    pub fn metrics(&self) -> &PairwiseMetrics {
        &self.metrics
    }

    /// True bottleneck bandwidth between two nodes, Mb/s.
    pub fn bandwidth_mbps(&self, a: NodeId, b: NodeId) -> f64 {
        self.metrics.bandwidth_mbps(a, b)
    }

    /// Average pairwise bandwidth of the whole topology, Mb/s.
    pub fn average_bandwidth_mbps(&self) -> f64 {
        self.metrics.average_bandwidth_mbps()
    }

    /// Seconds to move `data_mb` megabits from `from` to `to` (zero for local transfers).
    pub fn transfer_secs(&self, from: NodeId, to: NodeId, data_mb: f64) -> f64 {
        self.metrics.transfer_secs(from, to, data_mb)
    }

    /// Seconds until a task dispatched to `target` is data-complete: its program image flows
    /// from `home` while every precedent's data flows from its `location`, all in parallel —
    /// the slowest transfer gates the task.  It reads the precedent list the first phase's
    /// estimate reads, so a dispatch is timed over the transfers it was planned on.
    pub fn arrival_delay_secs(
        &self,
        home: NodeId,
        target: NodeId,
        image_size_mb: f64,
        predecessors: &[PredecessorData],
    ) -> f64 {
        let image = self.transfer_secs(home, target, image_size_mb);
        predecessors
            .iter()
            .map(|p| self.transfer_secs(p.location, target, p.data_mb))
            .fold(image, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pgrid_sim::SimRng;
    use p2pgrid_topology::{WaxmanConfig, WaxmanGenerator};

    fn model(nodes: usize) -> TransferModel {
        let mut rng = SimRng::seed_from_u64(5);
        let topo = WaxmanGenerator::new(WaxmanConfig::with_nodes(nodes)).generate(&mut rng);
        TransferModel::new(PairwiseMetrics::compute(&topo))
    }

    fn from(location: NodeId, data_mb: f64) -> PredecessorData {
        PredecessorData { location, data_mb }
    }

    #[test]
    fn arrival_delay_is_the_slowest_concurrent_transfer() {
        let m = model(12);
        let image = m.transfer_secs(0, 5, 40.0);
        let dep_a = m.transfer_secs(1, 5, 200.0);
        let dep_b = m.transfer_secs(2, 5, 10.0);
        let delay = m.arrival_delay_secs(0, 5, 40.0, &[from(1, 200.0), from(2, 10.0)]);
        assert_eq!(delay, image.max(dep_a).max(dep_b));
        // Data already on the target contributes nothing.
        assert_eq!(m.transfer_secs(5, 5, 1000.0), 0.0);
        assert_eq!(m.arrival_delay_secs(5, 5, 1000.0, &[from(5, 1000.0)]), 0.0);
    }

    #[test]
    fn local_dispatch_with_local_inputs_is_instantaneous() {
        let m = model(8);
        assert_eq!(m.arrival_delay_secs(3, 3, 25.0, &[]), 0.0);
    }
}
