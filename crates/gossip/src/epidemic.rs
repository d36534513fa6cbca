//! Epidemic (push) gossip of per-node state records.
//!
//! Every gossip cycle each alive node refreshes its own record and pushes the records it knows
//! to `fanout` random neighbours drawn from its Newscast view.  Records carry a hop counter and
//! stop being forwarded once they have travelled `ttl` hops (four in the paper), which bounds
//! the flooding radius while still spreading state to `O(n)` nodes in `O(log n)` cycles.

use crate::state::{MergeScratch, NodeStateRecord, PeerId, ResourceStateSet};
use crate::view::NewscastView;
use p2pgrid_sim::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// Configuration of the epidemic gossip protocol.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpidemicConfig {
    /// Number of neighbours each node pushes to per cycle (`log2 n` in the paper).
    pub fanout: usize,
    /// Maximum number of hops a record may travel (paper: 4).
    pub ttl: u32,
    /// Maximum number of records each node retains in its `RSS`.
    pub rss_capacity: usize,
    /// Records older than this are purged from the `RSS`.
    pub staleness_limit: SimDuration,
}

impl Default for EpidemicConfig {
    fn default() -> Self {
        EpidemicConfig {
            fanout: 8,
            ttl: 4,
            rss_capacity: 32,
            staleness_limit: SimDuration::from_mins(30),
        }
    }
}

/// The local ground truth a node advertises in the current cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalAdvertisement {
    /// Aggregate node capacity in MIPS (all execution slots combined).
    pub capacity_mips: f64,
    /// Number of execution slots behind that aggregate (paper: 1).
    pub slots: usize,
    /// Current total load (running + ready tasks) in MI.
    pub total_load_mi: f64,
}

/// The epidemic gossip protocol state for all nodes.
#[derive(Debug, Clone)]
pub struct EpidemicGossip {
    config: EpidemicConfig,
    rss: Vec<ResourceStateSet>,
    messages_sent: u64,
    records_sent: u64,
    /// Per-cycle scratch, reused across cycles and empty until the first one: the records
    /// every node forwards this cycle, back to back; node `i`'s are
    /// `outbox[outbox_starts[i]..outbox_starts[i + 1]]`.
    outbox: Vec<NodeStateRecord>,
    outbox_starts: Vec<usize>,
    /// Scratch of the same kind: `inboxes[t]` lists the sources that push to node `t` this
    /// cycle, in arrival order, and `merge_scratch` serves every destination's batch merge.
    inboxes: Vec<Vec<PeerId>>,
    merge_scratch: MergeScratch,
}

impl EpidemicGossip {
    /// Create protocol state for `n` nodes.
    pub fn new(n: usize, config: EpidemicConfig) -> Self {
        EpidemicGossip {
            config,
            rss: (0..n)
                .map(|_| ResourceStateSet::new(config.rss_capacity))
                .collect(),
            messages_sent: 0,
            records_sent: 0,
            outbox: Vec::new(),
            outbox_starts: Vec::new(),
            inboxes: Vec::new(),
            merge_scratch: MergeScratch::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &EpidemicConfig {
        &self.config
    }

    /// The resource state set currently held by `node`.
    pub fn rss(&self, node: PeerId) -> &ResourceStateSet {
        &self.rss[node]
    }

    /// Total push messages sent so far.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Total records carried inside those messages.
    pub fn records_sent(&self) -> u64 {
        self.records_sent
    }

    /// Drop all records describing `node` from every `RSS` (used when a node departs).
    pub fn forget_node(&mut self, node: PeerId) {
        for rss in &mut self.rss {
            rss.remove(node);
        }
        self.rss[node] = ResourceStateSet::new(self.config.rss_capacity);
    }

    /// Run one push cycle.
    ///
    /// `local[i]` is `Some` for alive nodes and `None` for departed ones; `views[i]` supplies
    /// the gossip neighbours.
    pub fn run_cycle(
        &mut self,
        now: SimTime,
        local: &[Option<LocalAdvertisement>],
        views: &[NewscastView],
        rng: &mut SimRng,
    ) {
        let n = self.rss.len();
        assert_eq!(local.len(), n);
        assert_eq!(views.len(), n);

        // 1. Every alive node refreshes its own record.
        for (i, adv) in local.iter().enumerate() {
            if let Some(adv) = adv {
                self.rss[i].merge(NodeStateRecord {
                    node: i,
                    capacity_mips: adv.capacity_mips,
                    slots: adv.slots,
                    total_load_mi: adv.total_load_mi,
                    updated_at: now,
                    hops: 0,
                });
            }
        }

        // 2. Snapshot what every alive node forwards before delivering anything, so the cycle
        //    is synchronous: the records with fewer than `ttl` hops, sent with one hop more.
        let ttl = self.config.ttl;
        self.outbox.clear();
        self.outbox_starts.clear();
        for (rss, adv) in self.rss.iter().zip(local) {
            self.outbox_starts.push(self.outbox.len());
            if adv.is_some() {
                let forwarded = rss.records().filter(|r| r.hops < ttl);
                self.outbox.extend(forwarded.map(|r| NodeStateRecord {
                    hops: r.hops + 1,
                    ..*r
                }));
            }
        }
        self.outbox_starts.push(self.outbox.len());

        // 3. Address the pushes: every alive source, ascending, draws its targets — even one
        //    with nothing to forward, so the RNG stream does not depend on the records — and
        //    joins the inbox of each target it sends to.  Each inbox therefore lists its
        //    sources in arrival order.
        self.inboxes.resize_with(n, Vec::new);
        for inbox in &mut self.inboxes {
            inbox.clear();
        }
        for (i, adv) in local.iter().enumerate() {
            if adv.is_none() {
                continue;
            }
            let mut targets = views[i].random_peers(self.config.fanout, rng);
            targets.retain(|&t| t != i && local[t].is_some());
            let forwarded = self.outbox_starts[i + 1] - self.outbox_starts[i];
            if forwarded == 0 {
                continue;
            }
            for t in targets {
                self.messages_sent += 1;
                self.records_sent += forwarded as u64;
                self.inboxes[t].push(i);
            }
        }

        // 4. Deliver: each destination merges all its pushes in one batch, sources in arrival
        //    order and each source's records by node id, exactly as if merged one by one.
        let (outbox, starts) = (&self.outbox, &self.outbox_starts);
        for (rss, inbox) in self.rss.iter_mut().zip(&self.inboxes) {
            if !inbox.is_empty() {
                let slices = inbox.iter().map(|&i| &outbox[starts[i]..starts[i + 1]]);
                rss.merge_batch(slices, &mut self.merge_scratch);
            }
        }

        // 5. Purge stale records and records of departed nodes.
        let limit = self.config.staleness_limit;
        for (i, rss) in self.rss.iter_mut().enumerate() {
            if local[i].is_some() {
                rss.purge(now, limit, &|p| local[p].is_none());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_views(n: usize, size: usize) -> Vec<NewscastView> {
        (0..n)
            .map(|i| {
                let mut v = NewscastView::new(i, size);
                for p in 0..n {
                    if p != i {
                        v.insert(p, SimTime::ZERO);
                    }
                }
                v
            })
            .collect()
    }

    fn alive(n: usize) -> Vec<Option<LocalAdvertisement>> {
        (0..n)
            .map(|i| {
                Some(LocalAdvertisement {
                    capacity_mips: 1.0 + i as f64,
                    slots: 1,
                    total_load_mi: 10.0 * i as f64,
                })
            })
            .collect()
    }

    #[test]
    fn state_spreads_in_logarithmic_cycles() {
        let n = 64;
        let cfg = EpidemicConfig {
            fanout: 6,
            rss_capacity: n,
            ..EpidemicConfig::default()
        };
        let mut gossip = EpidemicGossip::new(n, cfg);
        let views = full_views(n, n);
        let local = alive(n);
        let mut rng = SimRng::seed_from_u64(1);
        for cycle in 0..8 {
            gossip.run_cycle(SimTime::from_secs(cycle * 300), &local, &views, &mut rng);
        }
        // After ~log2(n) cycles most nodes should know a healthy number of peers.
        let avg_known: f64 = (0..n).map(|i| gossip.rss(i).len() as f64).sum::<f64>() / n as f64;
        assert!(
            avg_known >= 16.0,
            "epidemic spread too slow: average RSS size {avg_known}"
        );
    }

    #[test]
    fn rss_size_stays_bounded_by_capacity() {
        let n = 128;
        let cfg = EpidemicConfig {
            fanout: 7,
            rss_capacity: 24,
            ..EpidemicConfig::default()
        };
        let mut gossip = EpidemicGossip::new(n, cfg);
        let views = full_views(n, n);
        let local = alive(n);
        let mut rng = SimRng::seed_from_u64(2);
        for cycle in 0..12 {
            gossip.run_cycle(SimTime::from_secs(cycle * 300), &local, &views, &mut rng);
        }
        for i in 0..n {
            assert!(gossip.rss(i).len() <= 24, "node {i} exceeded its RSS bound");
        }
    }

    #[test]
    fn departed_nodes_are_purged_and_do_not_receive() {
        let n = 16;
        let cfg = EpidemicConfig {
            fanout: 4,
            rss_capacity: n,
            ..EpidemicConfig::default()
        };
        let mut gossip = EpidemicGossip::new(n, cfg);
        let views = full_views(n, n);
        let mut local = alive(n);
        let mut rng = SimRng::seed_from_u64(3);
        for cycle in 0..6 {
            gossip.run_cycle(SimTime::from_secs(cycle * 300), &local, &views, &mut rng);
        }
        // Node 5 departs.
        local[5] = None;
        for cycle in 6..12 {
            gossip.run_cycle(SimTime::from_secs(cycle * 300), &local, &views, &mut rng);
        }
        for i in 0..n {
            if i == 5 {
                continue;
            }
            assert!(
                gossip.rss(i).get(5).is_none(),
                "node {i} still believes the departed node 5 is alive"
            );
        }
    }

    #[test]
    fn ttl_limits_propagation_on_a_line_overlay() {
        // Views form a directed line 0 -> 1 -> 2 -> ...; with TTL 2 a record from node 0 can
        // reach node 1 (hop 1) and node 2 (hop 2) but must never reach node 4.
        let n = 8;
        let cfg = EpidemicConfig {
            fanout: 1,
            ttl: 2,
            rss_capacity: n,
            staleness_limit: SimDuration::from_hours(10),
        };
        let mut gossip = EpidemicGossip::new(n, cfg);
        let views: Vec<NewscastView> = (0..n)
            .map(|i| {
                let mut v = NewscastView::new(i, 1);
                if i + 1 < n {
                    v.insert(i + 1, SimTime::ZERO);
                }
                v
            })
            .collect();
        let local = alive(n);
        let mut rng = SimRng::seed_from_u64(4);
        for cycle in 0..20 {
            gossip.run_cycle(SimTime::from_secs(cycle), &local, &views, &mut rng);
        }
        assert!(gossip.rss(1).get(0).is_some());
        assert!(gossip.rss(2).get(0).is_some());
        assert!(
            gossip.rss(4).get(0).is_none(),
            "TTL 2 must stop node 0's record before node 4"
        );
    }

    #[test]
    fn message_accounting_matches_fanout() {
        let n = 10;
        let cfg = EpidemicConfig {
            fanout: 3,
            rss_capacity: n,
            ..EpidemicConfig::default()
        };
        let mut gossip = EpidemicGossip::new(n, cfg);
        let views = full_views(n, n);
        let local = alive(n);
        let mut rng = SimRng::seed_from_u64(5);
        gossip.run_cycle(SimTime::ZERO, &local, &views, &mut rng);
        // Every node knows only itself in the first cycle, so each sends exactly fanout
        // messages of one record each.
        assert_eq!(gossip.messages_sent(), (n * 3) as u64);
        assert_eq!(gossip.records_sent(), (n * 3) as u64);
    }

    #[test]
    fn forget_node_clears_all_traces() {
        let n = 8;
        let mut gossip = EpidemicGossip::new(
            n,
            EpidemicConfig {
                fanout: 3,
                rss_capacity: n,
                ..EpidemicConfig::default()
            },
        );
        let views = full_views(n, n);
        let local = alive(n);
        let mut rng = SimRng::seed_from_u64(6);
        for cycle in 0..5 {
            gossip.run_cycle(SimTime::from_secs(cycle * 300), &local, &views, &mut rng);
        }
        gossip.forget_node(3);
        for i in 0..n {
            assert!(gossip.rss(i).get(3).is_none());
        }
        assert!(gossip.rss(3).is_empty());
    }
}
