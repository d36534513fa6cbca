//! The mixed gossip protocol: Newscast views + epidemic state dissemination + aggregation.
//!
//! [`MixedGossip`] is the facade the scheduling core drives.  Once per gossip cycle (five
//! minutes in the paper) the core hands it a snapshot of every node's local truth
//! ([`LocalNodeState`]); the protocol then
//!
//! 1. reshuffles the Newscast views (random peer sampling),
//! 2. runs one epidemic push cycle spreading `(capacity, total load)` records into the
//!    bounded per-node `RSS`, and
//! 3. runs one push–pull averaging cycle each for the average node capacity and the average
//!    bandwidth.
//!
//! The schedulers later read [`MixedGossip::rss`] to pick candidate resource nodes
//! (Formula 9) and [`MixedGossip::expected_costs`] to estimate RPM / `eft` (Eq. 1, 7, 8).
//!
//! [`MixedGossip::run_cycle`] borrows the snapshot slice and advances the caller's RNG stream
//! in place.  Which records a node holds never depends on the advertised loads: merges,
//! purges and forwarding compare only `(updated_at, node)` and `hops`, and aggregation
//! averages the static capacities and bandwidths.  A record's `total_load_mi` is just carried
//! along — it is always its node's load at the cycle `updated_at`.  The scheduling core
//! relies on this: it runs the protocol once per world, under the world's liveness timeline,
//! keeps every home node's `RSS` as `(node, age)` pairs, and lets each session supply the
//! loads its own scheduler produced.

use crate::aggregation::{AggregationConfig, AggregationGossip};
use crate::epidemic::{EpidemicConfig, EpidemicGossip, LocalAdvertisement};
use crate::state::{PeerId, ResourceStateSet};
use crate::view::NewscastView;
use p2pgrid_sim::{SimDuration, SimRng, SimTime};

/// Ground-truth local state of one node, supplied by the simulation core every cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalNodeState {
    /// False once the node has churned away.
    pub alive: bool,
    /// Aggregate node capacity in MIPS (all execution slots combined).
    pub capacity_mips: f64,
    /// Number of execution slots behind that aggregate (paper: 1).
    pub slots: usize,
    /// Current total load (running + ready tasks) in MI.
    pub total_load_mi: f64,
    /// The node's locally measured average bandwidth towards its landmarks, in Mb/s.
    pub local_avg_bandwidth_mbps: f64,
}

impl LocalNodeState {
    /// The execution rate of *one* slot in MIPS — what a single task runs at.
    pub fn per_slot_capacity_mips(&self) -> f64 {
        self.capacity_mips / self.slots.max(1) as f64
    }
}

/// Configuration of the mixed protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixedGossipConfig {
    /// Epidemic fan-out; `None` selects the paper's `log2(n)` rule.
    pub fanout: Option<usize>,
    /// Record TTL in hops (paper: 4).
    pub ttl: u32,
    /// Bound on each node's `RSS`; `None` selects `4 * log2(n)`, which keeps the measured
    /// size in the "less than 30 even at 2 000 nodes" band of Fig. 11(a).
    pub rss_capacity: Option<usize>,
    /// Newscast view size; `None` selects `2 * log2(n)`.
    pub view_size: Option<usize>,
    /// Records older than this are purged.
    pub staleness_limit: SimDuration,
    /// Aggregation epoch length in cycles.
    pub aggregation_restart_every: u32,
    /// Payload + header bytes per gossip message (paper: ~100 bytes).
    pub bytes_per_message: u64,
}

impl Default for MixedGossipConfig {
    fn default() -> Self {
        MixedGossipConfig {
            fanout: None,
            ttl: 4,
            rss_capacity: None,
            view_size: None,
            staleness_limit: SimDuration::from_mins(30),
            aggregation_restart_every: 12,
            bytes_per_message: 100,
        }
    }
}

/// Traffic statistics of the protocol.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GossipStats {
    /// Gossip cycles executed.
    pub cycles: u64,
    /// Epidemic push messages sent.
    pub epidemic_messages: u64,
    /// Aggregation exchanges performed.
    pub aggregation_exchanges: u64,
    /// Estimated bytes placed on the network.
    pub bytes_sent: u64,
}

/// The combined protocol state for all nodes.
#[derive(Debug, Clone)]
pub struct MixedGossip {
    n: usize,
    config: MixedGossipConfig,
    views: Vec<NewscastView>,
    epidemic: EpidemicGossip,
    agg_capacity: AggregationGossip,
    agg_bandwidth: AggregationGossip,
    stats: GossipStats,
}

impl MixedGossip {
    /// Create the protocol state for `n` nodes, bootstrapping every view with random peers.
    pub fn new(n: usize, config: MixedGossipConfig, rng: &mut SimRng) -> Self {
        let fanout = config.fanout.unwrap_or_else(|| crate::default_fanout(n));
        let view_size = config
            .view_size
            .unwrap_or_else(|| (2 * crate::default_fanout(n)).max(4));
        let rss_capacity = config
            .rss_capacity
            .unwrap_or_else(|| (4 * crate::default_fanout(n)).max(8));
        let mut views: Vec<NewscastView> =
            (0..n).map(|i| NewscastView::new(i, view_size)).collect();
        let all: Vec<PeerId> = (0..n).collect();
        for (i, view) in views.iter_mut().enumerate() {
            for &p in rng.choose_multiple(&all, view_size.min(n.saturating_sub(1)) + 1) {
                if p != i {
                    view.insert(p, SimTime::ZERO);
                }
            }
        }
        let epidemic = EpidemicGossip::new(
            n,
            EpidemicConfig {
                fanout,
                ttl: config.ttl,
                rss_capacity,
                staleness_limit: config.staleness_limit,
            },
        );
        let agg_cfg = AggregationConfig {
            restart_every: config.aggregation_restart_every,
        };
        MixedGossip {
            n,
            config,
            views,
            epidemic,
            agg_capacity: AggregationGossip::new(n, agg_cfg),
            agg_bandwidth: AggregationGossip::new(n, agg_cfg),
            stats: GossipStats::default(),
        }
    }

    /// Number of nodes the protocol was created for.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The configuration in use.
    pub fn config(&self) -> &MixedGossipConfig {
        &self.config
    }

    /// Traffic statistics accumulated so far.
    pub fn stats(&self) -> GossipStats {
        self.stats
    }

    /// The resource state set node `i` currently holds.
    pub fn rss(&self, i: PeerId) -> &ResourceStateSet {
        self.epidemic.rss(i)
    }

    /// Node `i`'s current estimate of the system-wide average *per-slot* execution rate
    /// (MIPS) — the rate one task runs at on an average node.  With the paper's single-slot
    /// nodes this is exactly the average capacity; multi-slot nodes contribute
    /// `capacity / slots`, not their aggregate, because the expected-cost model (Eq. 1, 7, 8)
    /// uses this average as the rate a *single* task executes at.
    pub fn avg_capacity_estimate(&self, i: PeerId) -> f64 {
        self.agg_capacity.estimate(i)
    }

    /// Node `i`'s current estimate of the system-wide average bandwidth (Mb/s).
    pub fn avg_bandwidth_estimate(&self, i: PeerId) -> f64 {
        self.agg_bandwidth.estimate(i)
    }

    /// The `(average capacity, average bandwidth)` pair node `i` would use for expected-time
    /// estimates, with a floor to keep the values usable before the protocol has converged.
    pub fn expected_costs(&self, i: PeerId) -> (f64, f64) {
        let cap = self.avg_capacity_estimate(i).max(1e-6);
        let bw = self.avg_bandwidth_estimate(i).max(1e-6);
        (cap, bw)
    }

    /// Clear every trace of a departed node (called by the churn model).
    pub fn forget_node(&mut self, node: PeerId) {
        self.epidemic.forget_node(node);
        for v in &mut self.views {
            v.retain_alive(&|p| p == node);
        }
    }

    /// Run one full mixed-gossip cycle at virtual time `now`.
    pub fn run_cycle(&mut self, now: SimTime, local: &[LocalNodeState], rng: &mut SimRng) {
        assert_eq!(local.len(), self.n);
        let alive: Vec<PeerId> = (0..self.n).filter(|&i| local[i].alive).collect();

        // 1. Newscast view maintenance: drop departed peers, bootstrap empty views, and perform
        //    one exchange per alive node.
        for v in &mut self.views {
            v.retain_alive(&|p| !local[p].alive);
        }
        for &i in &alive {
            if self.views[i].is_empty() {
                let candidates: Vec<PeerId> = alive.iter().copied().filter(|&p| p != i).collect();
                for &p in rng.choose_multiple(&candidates, self.views[i].size_limit()) {
                    self.views[i].insert(p, now);
                }
            }
        }
        for &i in &alive {
            let peer = self.views[i]
                .random_peer(rng)
                .filter(|&p| local[p].alive && p != i);
            if let Some(p) = peer {
                // Split-borrow the two views.
                let (a, b) = if i < p {
                    let (lo, hi) = self.views.split_at_mut(p);
                    (&mut lo[i], &mut hi[0])
                } else {
                    let (lo, hi) = self.views.split_at_mut(i);
                    (&mut hi[0], &mut lo[p])
                };
                NewscastView::exchange(a, b, now);
            }
        }

        // 2. Epidemic dissemination of node state.
        let adverts: Vec<Option<LocalAdvertisement>> = local
            .iter()
            .map(|s| {
                s.alive.then_some(LocalAdvertisement {
                    capacity_mips: s.capacity_mips,
                    slots: s.slots,
                    total_load_mi: s.total_load_mi,
                })
            })
            .collect();
        // Derived streams depend only on (key, label), never on the parent's position, so a
        // constant label would replay the identical random sequence every cycle; indexing the
        // derivation by the cycle counter keeps each cycle's peer sampling fresh.
        let cycle = self.stats.cycles;
        let epidemic_before = self.epidemic.messages_sent();
        self.epidemic.run_cycle(
            now,
            &adverts,
            &self.views,
            &mut rng.derive_indexed("epidemic", cycle),
        );
        let epidemic_delta = self.epidemic.messages_sent() - epidemic_before;

        // 3. Aggregation of the two global statistics.  The capacity average feeds the
        //    expected-cost model as "the rate one task runs at", so multi-slot nodes
        //    contribute their per-slot rate — dividing by 1 is exact, keeping single-slot
        //    runs bit-identical to the paper model.
        let caps: Vec<Option<f64>> = local
            .iter()
            .map(|s| s.alive.then_some(s.per_slot_capacity_mips()))
            .collect();
        let bws: Vec<Option<f64>> = local
            .iter()
            .map(|s| s.alive.then_some(s.local_avg_bandwidth_mbps))
            .collect();
        let agg_before = self.agg_capacity.exchanges() + self.agg_bandwidth.exchanges();
        self.agg_capacity.run_cycle(
            &caps,
            &self.views,
            &mut rng.derive_indexed("agg-capacity", cycle),
        );
        self.agg_bandwidth.run_cycle(
            &bws,
            &self.views,
            &mut rng.derive_indexed("agg-bandwidth", cycle),
        );
        let agg_delta = self.agg_capacity.exchanges() + self.agg_bandwidth.exchanges() - agg_before;

        // 4. Traffic accounting (~100 bytes per message / exchange, as argued in §IV.A).
        self.stats.cycles += 1;
        self.stats.epidemic_messages += epidemic_delta;
        self.stats.aggregation_exchanges += agg_delta;
        self.stats.bytes_sent += (epidemic_delta + agg_delta) * self.config.bytes_per_message;
    }

    /// Average `RSS` size over all alive nodes — the quantity plotted in Fig. 11(a).
    pub fn average_rss_size(&self, local: &[LocalNodeState]) -> f64 {
        let alive: Vec<PeerId> = (0..self.n).filter(|&i| local[i].alive).collect();
        if alive.is_empty() {
            return 0.0;
        }
        alive.iter().map(|&i| self.rss(i).len() as f64).sum::<f64>() / alive.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_local(n: usize) -> Vec<LocalNodeState> {
        (0..n)
            .map(|i| LocalNodeState {
                alive: true,
                capacity_mips: [1.0, 2.0, 4.0, 8.0, 16.0][i % 5],
                slots: 1,
                total_load_mi: (i as f64) * 50.0,
                local_avg_bandwidth_mbps: 5.0,
            })
            .collect()
    }

    #[test]
    fn cycle_spreads_state_and_estimates_averages() {
        let n = 100;
        let mut rng = SimRng::seed_from_u64(1);
        let mut gossip = MixedGossip::new(n, MixedGossipConfig::default(), &mut rng);
        let local = uniform_local(n);
        for c in 0..12 {
            gossip.run_cycle(SimTime::from_secs(c * 300), &local, &mut rng);
        }
        // Average capacity of the population: (1+2+4+8+16)/5 = 6.2 MIPS.
        let (cap, bw) = gossip.expected_costs(0);
        assert!(
            (cap - 6.2).abs() < 0.6,
            "capacity estimate {cap} too far from 6.2"
        );
        assert!(
            (bw - 5.0).abs() < 0.5,
            "bandwidth estimate {bw} too far from 5.0"
        );
        // RSS populated but bounded.
        let avg = gossip.average_rss_size(&local);
        assert!(avg > 3.0, "RSS too small: {avg}");
        let bound = gossip.rss(0).capacity() as f64;
        assert!(avg <= bound + 1e-9);
        // Traffic was accounted.
        let stats = gossip.stats();
        assert_eq!(stats.cycles, 12);
        assert!(stats.epidemic_messages > 0);
        assert!(stats.bytes_sent >= stats.epidemic_messages * 100);
    }

    #[test]
    fn rss_stays_within_o_log_n_band_across_scales() {
        // The Fig. 11(a) claim: the number of nodes known per node stays below ~30 as the
        // system scales (here we check a few scales cheaply).
        for &n in &[50usize, 100, 200, 400] {
            let mut rng = SimRng::seed_from_u64(n as u64);
            let mut gossip = MixedGossip::new(n, MixedGossipConfig::default(), &mut rng);
            let local = uniform_local(n);
            for c in 0..10 {
                gossip.run_cycle(SimTime::from_secs(c * 300), &local, &mut rng);
            }
            let avg = gossip.average_rss_size(&local);
            assert!(
                avg <= 40.0,
                "n={n}: average RSS {avg} exceeds the O(log n) band"
            );
            assert!(avg >= 3.0, "n={n}: average RSS {avg} suspiciously small");
        }
    }

    #[test]
    fn capacity_aggregation_averages_per_slot_rates() {
        // A population of 16-slot nodes advertising a 16 MIPS aggregate runs one task at
        // 1 MIPS per slot; the capacity estimate must converge towards 1, not 16.
        let n = 80;
        let mut rng = SimRng::seed_from_u64(23);
        let mut gossip = MixedGossip::new(n, MixedGossipConfig::default(), &mut rng);
        let local: Vec<LocalNodeState> = (0..n)
            .map(|_| LocalNodeState {
                alive: true,
                capacity_mips: 16.0,
                slots: 16,
                total_load_mi: 0.0,
                local_avg_bandwidth_mbps: 5.0,
            })
            .collect();
        for c in 0..12 {
            gossip.run_cycle(SimTime::from_secs(c * 300), &local, &mut rng);
        }
        let est = gossip.avg_capacity_estimate(0);
        assert!(
            (est - 1.0).abs() < 0.1,
            "per-slot rate estimate {est} should approach 1 MIPS, not the 16 MIPS aggregate"
        );
    }

    #[test]
    fn churned_nodes_disappear_from_views_and_rss() {
        let n = 60;
        let mut rng = SimRng::seed_from_u64(7);
        let mut gossip = MixedGossip::new(n, MixedGossipConfig::default(), &mut rng);
        let mut local = uniform_local(n);
        for c in 0..6 {
            gossip.run_cycle(SimTime::from_secs(c * 300), &local, &mut rng);
        }
        // A third of the nodes churn away.
        for (i, s) in local.iter_mut().enumerate() {
            if i % 3 == 0 {
                s.alive = false;
                gossip.forget_node(i);
            }
        }
        for c in 6..14 {
            gossip.run_cycle(SimTime::from_secs(c * 300), &local, &mut rng);
        }
        for i in 0..n {
            if !local[i].alive {
                continue;
            }
            for r in gossip.rss(i).records() {
                assert!(
                    local[r.node].alive,
                    "node {i} still lists departed node {}",
                    r.node
                );
            }
        }
        // The capacity estimate now reflects only the survivors.
        let survivors: Vec<f64> = local
            .iter()
            .filter(|s| s.alive)
            .map(|s| s.capacity_mips)
            .collect();
        let truth = survivors.iter().sum::<f64>() / survivors.len() as f64;
        let est = gossip.avg_capacity_estimate(1);
        assert!(
            (est - truth).abs() / truth < 0.25,
            "estimate {est} vs truth {truth}"
        );
    }

    #[test]
    fn determinism_per_seed() {
        let n = 40;
        let run = |seed: u64| {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut gossip = MixedGossip::new(n, MixedGossipConfig::default(), &mut rng);
            let local = uniform_local(n);
            for c in 0..8 {
                gossip.run_cycle(SimTime::from_secs(c * 300), &local, &mut rng);
            }
            let sizes: Vec<usize> = (0..n).map(|i| gossip.rss(i).len()).collect();
            (sizes, gossip.stats())
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5).1.epidemic_messages, 0);
    }

    #[test]
    fn joined_node_catches_up() {
        let n = 30;
        let mut rng = SimRng::seed_from_u64(9);
        let mut gossip = MixedGossip::new(n, MixedGossipConfig::default(), &mut rng);
        let mut local = uniform_local(n);
        local[29].alive = false;
        for c in 0..6 {
            gossip.run_cycle(SimTime::from_secs(c * 300), &local, &mut rng);
        }
        assert_eq!(gossip.rss(29).len(), 0);
        // Node 29 joins.
        local[29].alive = true;
        for c in 6..12 {
            gossip.run_cycle(SimTime::from_secs(c * 300), &local, &mut rng);
        }
        assert!(
            gossip.rss(29).len() >= 2,
            "joined node never learned about peers"
        );
        assert!(gossip.avg_capacity_estimate(29) > 0.0);
    }

    #[test]
    fn single_node_system_is_degenerate_but_stable() {
        let mut rng = SimRng::seed_from_u64(11);
        let mut gossip = MixedGossip::new(1, MixedGossipConfig::default(), &mut rng);
        let local = vec![LocalNodeState {
            alive: true,
            capacity_mips: 4.0,
            slots: 1,
            total_load_mi: 0.0,
            local_avg_bandwidth_mbps: 2.0,
        }];
        for c in 0..3 {
            gossip.run_cycle(SimTime::from_secs(c * 300), &local, &mut rng);
        }
        assert_eq!(gossip.rss(0).len(), 1, "a node always knows itself");
        assert!((gossip.avg_capacity_estimate(0) - 4.0).abs() < 1e-9);
    }
}
