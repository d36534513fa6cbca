//! The finish-time estimation model of Eq. (4)–(7) and the target-node rule of Formula (9).
//!
//! All quantities are *relative to the scheduling instant* ("now"): the queuing delay
//! `R(τ, p_h) = l_h / c_h` is how long the candidate node's current backlog will keep its CPU
//! busy, and data transfers towards the candidate start immediately upon dispatch, so the
//! longest transmission delay (LTD, Eq. 4) is simply the slowest of the individual transfers
//! (program image from the home node plus one dependent-data transfer per precedent).  The two
//! delays overlap in time, hence `ST = max(R, LTD)` (Eq. 5) and `FT = ST + et` (Eq. 6/7).
//!
//! ## Multi-core candidates: per-slot execution vs aggregate queue drain
//!
//! A multi-slot peer gossips its *aggregate* capacity (`per-slot rate × slots`) plus its slot
//! count, and the two halves of the model use different rates:
//!
//! * the **queuing delay** divides the backlog by the *aggregate* capacity — all slots drain
//!   the queue concurrently;
//! * the **execution time** divides one task's load by the *per-slot* rate
//!   (`capacity / slots`) — a single task occupies exactly one slot and runs no faster on a
//!   16-core node than on one of its cores.
//!
//! Conflating the two (dividing a single task's load by the aggregate) makes a 16-slot node
//! look 16× faster *for one task* than it is and skews every placement towards multi-core
//! peers; `slots == 1` keeps both rates equal, reproducing the paper's model bit-for-bit.
//!
//! The estimator is deliberately decoupled from the simulation: it sees candidate nodes as
//! `(capacity, slots, total load)` records — exactly what the epidemic gossip's `RSS`
//! provides, stale or not — and network bandwidth through a caller-supplied estimate function
//! (landmark-based for the decentralized algorithms, exact for the full-ahead baselines).
//!
//! ## Formula 9 without scoring every candidate
//!
//! The LTD is the expensive term: one bandwidth estimate per transfer.  Since
//! `FT = max(R, LTD) + et ≥ R + et`, a candidate whose *bound* `R + et` already exceeds the
//! best finish time found so far by more than the 1e-12 tie tolerance cannot win, and
//! [`FinishTimeEstimator::best_candidate`] skips its LTD.  The skip is exact, not an
//! approximation: IEEE rounding is monotone, so `max(R, LTD) ≥ R` gives
//! `fl(max(R, LTD) + et) ≥ fl(R + et)`, and then `fl(FT − best) ≥ fl(bound − best) > 1e-12`.
//! Such an `FT` is above `best`, so it neither beats `best − 1e-12` nor ties within 1e-12,
//! and the unchanged comparison would have rejected it.  (`f64::max` ignores a NaN LTD, so
//! `FT ≥ R + et` holds even then; a NaN bound is never `> 1e-12`, so it is scored in full.)
//!
//! ## Reading each candidate once per assignment
//!
//! A candidate's queuing delay and per-slot rate change only when its load does.  The greedy
//! planners read both into `CandidateRates` once, score every task through the same scan
//! `best_candidate` runs, and after each assignment re-read only the candidate that took the
//! task; `best_candidate` itself reads them afresh on every call.  One function,
//! `transfer_secs_over`, holds the rule for a single transfer — nothing for a local or empty
//! one, forever over a dead link — for this estimator, the matrix heuristics and the
//! full-ahead planner.

use crate::NodeId;

/// A candidate resource node as seen by a scheduler (one `RSS` record).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateNode {
    /// The node's identifier.
    pub node: NodeId,
    /// Its *aggregate* capacity in MIPS (all execution slots combined).
    pub capacity_mips: f64,
    /// Number of execution slots behind that aggregate (paper: 1).
    pub slots: usize,
    /// Its believed total load (running + ready tasks) in MI.
    pub total_load_mi: f64,
}

impl CandidateNode {
    /// A candidate with the paper's single execution slot.
    pub fn single_slot(node: NodeId, capacity_mips: f64, total_load_mi: f64) -> Self {
        CandidateNode {
            node,
            capacity_mips,
            slots: 1,
            total_load_mi,
        }
    }

    /// The rate one task actually executes at: `capacity / slots`, in MIPS.
    pub fn per_slot_capacity_mips(&self) -> f64 {
        self.capacity_mips / self.slots.max(1) as f64
    }

    /// The queuing delay `R(τ, p_h) = l_h / c_h`, in seconds.  The backlog drains on all slots
    /// concurrently, so this uses the aggregate capacity.
    pub fn queuing_delay_secs(&self) -> f64 {
        if self.capacity_mips <= 0.0 {
            f64::INFINITY
        } else {
            self.total_load_mi / self.capacity_mips
        }
    }

    /// Execution time of a task with `load_mi` on this node, in seconds.  One task runs on one
    /// slot, so this uses the per-slot rate — not the aggregate.
    pub fn execution_secs(&self, load_mi: f64) -> f64 {
        CandidateRates::of(self).execution_secs(load_mi)
    }

    /// Account for a task of `load_mi` just dispatched to this node (Algorithm 1, line 15:
    /// "Update p_r's state record in RSS(p_s)").
    pub fn add_load(&mut self, load_mi: f64) {
        self.total_load_mi += load_mi;
    }
}

/// What the finish-time model reads of one candidate besides its transfers: the queuing delay
/// and the rate one task runs at.  Both change only when the candidate's load does, so a planner
/// reads them once per assignment rather than once per (task, candidate).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CandidateRates {
    /// [`CandidateNode::queuing_delay_secs`].
    pub(crate) queue_secs: f64,
    capacity_mips: f64,
    per_slot_mips: f64,
}

impl CandidateRates {
    pub(crate) fn of(candidate: &CandidateNode) -> Self {
        CandidateRates {
            queue_secs: candidate.queuing_delay_secs(),
            capacity_mips: candidate.capacity_mips,
            per_slot_mips: candidate.per_slot_capacity_mips(),
        }
    }

    /// [`CandidateNode::execution_secs`] of the candidate these rates were read from.
    pub(crate) fn execution_secs(&self, load_mi: f64) -> f64 {
        if self.capacity_mips <= 0.0 {
            f64::INFINITY
        } else {
            load_mi / self.per_slot_mips
        }
    }
}

/// Seconds to move `data_mb` megabits from `from` to `to`, where `bandwidth_mbps` reads the
/// link's bandwidth: nothing for a local or empty transfer, which never reads the link, and
/// forever over a dead link.
pub(crate) fn transfer_secs_over(
    from: NodeId,
    to: NodeId,
    data_mb: f64,
    bandwidth_mbps: impl FnOnce() -> f64,
) -> f64 {
    if from == to || data_mb <= 0.0 {
        return 0.0;
    }
    let bw = bandwidth_mbps();
    if bw <= 0.0 {
        f64::INFINITY
    } else {
        data_mb / bw
    }
}

/// One precedent of the task being placed: where its output data currently lives and how much
/// of it must be moved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredecessorData {
    /// Node on which the precedent task executed (so where its output resides).
    pub location: NodeId,
    /// Data volume to transfer, in Mb.
    pub data_mb: f64,
}

/// Finish-time estimator for one scheduling decision site.
pub struct FinishTimeEstimator<'a> {
    home: NodeId,
    bandwidth_mbps: &'a dyn Fn(NodeId, NodeId) -> f64,
}

impl<'a> FinishTimeEstimator<'a> {
    /// Create an estimator for decisions taken at `home`, using the given pairwise bandwidth
    /// estimate (Mb/s).
    pub fn new(home: NodeId, bandwidth_mbps: &'a dyn Fn(NodeId, NodeId) -> f64) -> Self {
        FinishTimeEstimator {
            home,
            bandwidth_mbps,
        }
    }

    /// The node the decisions are taken at, where every program image comes from.
    pub(crate) fn home(&self) -> NodeId {
        self.home
    }

    /// The estimated bandwidth from `from` to `to`, in Mb/s.
    pub(crate) fn bandwidth_mbps(&self, from: NodeId, to: NodeId) -> f64 {
        (self.bandwidth_mbps)(from, to)
    }

    /// Time in seconds to move `data_mb` megabits from `from` to `to`.
    pub fn transfer_secs(&self, from: NodeId, to: NodeId, data_mb: f64) -> f64 {
        transfer_secs_over(from, to, data_mb, || self.bandwidth_mbps(from, to))
    }

    /// The longest transmission delay LTD (Eq. 4): the slowest of the concurrent transfers the
    /// task needs before it can start on `target` — its program image from the home node plus
    /// one dependent-data transfer per precedent.
    pub fn longest_transmission_delay_secs(
        &self,
        target: NodeId,
        image_size_mb: f64,
        predecessors: &[PredecessorData],
    ) -> f64 {
        let image = self.transfer_secs(self.home, target, image_size_mb);
        predecessors
            .iter()
            .map(|p| self.transfer_secs(p.location, target, p.data_mb))
            .fold(image, f64::max)
    }

    /// The start time ST (Eq. 5): queuing delay and transmission delay overlap, so the task can
    /// start once both have elapsed.
    pub fn start_time_secs(
        &self,
        candidate: &CandidateNode,
        image_size_mb: f64,
        predecessors: &[PredecessorData],
    ) -> f64 {
        candidate
            .queuing_delay_secs()
            .max(self.longest_transmission_delay_secs(candidate.node, image_size_mb, predecessors))
    }

    /// The finish time FT (Eq. 6/7), in seconds from "now".
    pub fn finish_time_secs(
        &self,
        candidate: &CandidateNode,
        load_mi: f64,
        image_size_mb: f64,
        predecessors: &[PredecessorData],
    ) -> f64 {
        self.start_time_secs(candidate, image_size_mb, predecessors)
            + candidate.execution_secs(load_mi)
    }

    /// Formula (9): the index (into `candidates`) of the node with the earliest estimated finish
    /// time, together with that finish time.  Ties break towards the lower node id so decisions
    /// are deterministic.  Returns `None` when `candidates` is empty.
    ///
    /// A candidate whose queue plus execution time already loses by more than the tie
    /// tolerance is skipped before its LTD is computed; the module docs say why that is exact.
    pub fn best_candidate(
        &self,
        candidates: &[CandidateNode],
        load_mi: f64,
        image_size_mb: f64,
        predecessors: &[PredecessorData],
    ) -> Option<(usize, f64)> {
        let rates: Vec<CandidateRates> = candidates.iter().map(CandidateRates::of).collect();
        self.best_of(candidates, &rates, load_mi, image_size_mb, predecessors)
    }

    /// [`FinishTimeEstimator::best_candidate`] over rates read beforehand: `rates[i]` must be
    /// `CandidateRates::of(&candidates[i])`, so a planner re-reads only the candidate whose
    /// load it changed.
    pub(crate) fn best_of(
        &self,
        candidates: &[CandidateNode],
        rates: &[CandidateRates],
        load_mi: f64,
        image_size_mb: f64,
        predecessors: &[PredecessorData],
    ) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (i, (c, r)) in candidates.iter().zip(rates).enumerate() {
            let queue = r.queue_secs;
            let exec = r.execution_secs(load_mi);
            if let Some((_, bft)) = best {
                if queue + exec - bft > 1e-12 {
                    continue;
                }
            }
            let ltd = self.longest_transmission_delay_secs(c.node, image_size_mb, predecessors);
            let ft = queue.max(ltd) + exec;
            let better = match best {
                None => true,
                Some((bi, bft)) => {
                    ft < bft - 1e-12 || ((ft - bft).abs() <= 1e-12 && c.node < candidates[bi].node)
                }
            };
            if better {
                best = Some((i, ft));
            }
        }
        best
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Uniform 1 Mb/s bandwidth between distinct nodes.
    fn unit_bw(a: NodeId, b: NodeId) -> f64 {
        if a == b {
            f64::INFINITY
        } else {
            1.0
        }
    }

    #[test]
    fn queuing_delay_and_execution_follow_load_over_capacity() {
        let c = CandidateNode::single_slot(3, 4.0, 200.0);
        assert_eq!(c.queuing_delay_secs(), 50.0);
        assert_eq!(c.execution_secs(100.0), 25.0);
        let dead = CandidateNode::single_slot(0, 0.0, 0.0);
        assert_eq!(dead.queuing_delay_secs(), f64::INFINITY);
    }

    #[test]
    fn ltd_takes_the_slowest_concurrent_transfer() {
        let est = FinishTimeEstimator::new(0, &unit_bw);
        let preds = [
            PredecessorData {
                location: 1,
                data_mb: 30.0,
            },
            PredecessorData {
                location: 2,
                data_mb: 80.0,
            },
        ];
        // Image from home (0 -> 5): 10 s; preds: 30 s and 80 s; the slowest (80) wins.
        assert_eq!(est.longest_transmission_delay_secs(5, 10.0, &preds), 80.0);
        // If the target holds the big predecessor's data locally, only 30 s and 10 s remain.
        let preds_local = [
            PredecessorData {
                location: 1,
                data_mb: 30.0,
            },
            PredecessorData {
                location: 5,
                data_mb: 80.0,
            },
        ];
        assert_eq!(
            est.longest_transmission_delay_secs(5, 10.0, &preds_local),
            30.0
        );
        // No predecessors: only the image matters; on the home node itself even that is free.
        assert_eq!(est.longest_transmission_delay_secs(5, 10.0, &[]), 10.0);
        assert_eq!(est.longest_transmission_delay_secs(0, 10.0, &[]), 0.0);
    }

    #[test]
    fn start_time_is_max_of_queue_and_transfers() {
        let est = FinishTimeEstimator::new(0, &unit_bw);
        let busy = CandidateNode {
            node: 2,
            capacity_mips: 1.0,
            slots: 1,
            total_load_mi: 500.0, // 500 s of queue
        };
        let idle = CandidateNode::single_slot(2, 1.0, 0.0);
        let preds = [PredecessorData {
            location: 1,
            data_mb: 100.0,
        }];
        assert_eq!(est.start_time_secs(&busy, 10.0, &preds), 500.0);
        assert_eq!(est.start_time_secs(&idle, 10.0, &preds), 100.0);
    }

    #[test]
    fn finish_time_adds_execution_on_top_of_start() {
        let est = FinishTimeEstimator::new(0, &unit_bw);
        let c = CandidateNode {
            node: 1,
            capacity_mips: 2.0,
            slots: 1,
            total_load_mi: 100.0, // 50 s queue
        };
        // LTD = image 20 Mb / 1 Mb/s = 20 s < queue 50 s; execution = 300 / 2 = 150 s.
        assert_eq!(est.finish_time_secs(&c, 300.0, 20.0, &[]), 200.0);
    }

    #[test]
    fn best_candidate_implements_formula_9() {
        let est = FinishTimeEstimator::new(0, &unit_bw);
        let candidates = [
            CandidateNode::single_slot(1, 1.0, 0.0),     // exec 100
            CandidateNode::single_slot(2, 4.0, 0.0),     // exec 25
            CandidateNode::single_slot(3, 16.0, 8000.0), // queue 500
        ];
        let (idx, ft) = est.best_candidate(&candidates, 100.0, 0.0, &[]).unwrap();
        assert_eq!(candidates[idx].node, 2);
        assert_eq!(ft, 25.0);
        assert!(est.best_candidate(&[], 100.0, 0.0, &[]).is_none());
    }

    #[test]
    fn best_candidate_accounts_for_data_locality() {
        // Node 9 is slower but already holds the predecessor's large output; node 2 is faster
        // but must pull 1 000 Mb across a 1 Mb/s link.  Locality must win (the paper's
        // "node locality issue" in §III.D).
        let est = FinishTimeEstimator::new(0, &unit_bw);
        let candidates = [
            CandidateNode::single_slot(2, 16.0, 0.0),
            CandidateNode::single_slot(9, 2.0, 0.0),
        ];
        let preds = [PredecessorData {
            location: 9,
            data_mb: 1000.0,
        }];
        let (idx, _) = est.best_candidate(&candidates, 160.0, 0.0, &preds).unwrap();
        assert_eq!(candidates[idx].node, 9);
    }

    #[test]
    fn ties_break_towards_lower_node_id() {
        let est = FinishTimeEstimator::new(0, &unit_bw);
        let candidates = [
            CandidateNode::single_slot(7, 2.0, 0.0),
            CandidateNode::single_slot(3, 2.0, 0.0),
        ];
        let (idx, _) = est.best_candidate(&candidates, 100.0, 0.0, &[]).unwrap();
        assert_eq!(candidates[idx].node, 3);
    }

    #[test]
    fn add_load_updates_subsequent_estimates() {
        let est = FinishTimeEstimator::new(0, &unit_bw);
        let mut c = CandidateNode::single_slot(1, 2.0, 0.0);
        assert_eq!(est.finish_time_secs(&c, 100.0, 0.0, &[]), 50.0);
        c.add_load(100.0);
        assert_eq!(est.finish_time_secs(&c, 100.0, 0.0, &[]), 100.0);
    }

    #[test]
    fn one_16_slot_node_is_not_16_single_slot_nodes_for_one_task() {
        // The "capacity illusion" regression: a 16-slot node and a single-slot node with the
        // same 16 MIPS aggregate must yield *different* single-task finish estimates — the
        // multi-core peer runs one task at 1 MIPS (one slot), the single-core peer at 16 MIPS.
        let est = FinishTimeEstimator::new(0, &unit_bw);
        let multi = CandidateNode {
            node: 1,
            capacity_mips: 16.0,
            slots: 16,
            total_load_mi: 0.0,
        };
        let single = CandidateNode::single_slot(2, 16.0, 0.0);
        assert_eq!(multi.per_slot_capacity_mips(), 1.0);
        assert_eq!(single.per_slot_capacity_mips(), 16.0);
        let ft_multi = est.finish_time_secs(&multi, 1600.0, 0.0, &[]);
        let ft_single = est.finish_time_secs(&single, 1600.0, 0.0, &[]);
        assert_eq!(ft_multi, 1600.0);
        assert_eq!(ft_single, 100.0);
        // Formula 9 therefore places a single long task on the fast single core...
        let (idx, _) = est
            .best_candidate(&[multi, single], 1600.0, 0.0, &[])
            .unwrap();
        assert_eq!([multi, single][idx].node, 2);
        // ...while the queue-drain half still credits the multi-core node's aggregate: under a
        // heavy backlog the 16 slots drain 16× faster, so it wins the queued comparison.
        let multi_busy = CandidateNode {
            total_load_mi: 64_000.0,
            ..multi
        };
        let single_busy = CandidateNode {
            total_load_mi: 64_000.0,
            ..single
        };
        assert_eq!(multi_busy.queuing_delay_secs(), 4000.0);
        assert_eq!(single_busy.queuing_delay_secs(), 4000.0);
        let (idx, _) = est
            .best_candidate(&[multi_busy, single_busy], 16.0, 0.0, &[])
            .unwrap();
        assert_eq!(
            [multi_busy, single_busy][idx].node,
            2,
            "equal queues: per-slot execution still favours the single core"
        );
    }

    #[test]
    fn single_slot_candidates_reproduce_the_paper_model_exactly() {
        // slots == 1 must not perturb a single bit of the original arithmetic.
        let c = CandidateNode::single_slot(3, 4.0, 200.0);
        assert_eq!(c.per_slot_capacity_mips().to_bits(), 4.0f64.to_bits());
        assert_eq!(c.execution_secs(100.0).to_bits(), 25.0f64.to_bits());
        assert_eq!(c.queuing_delay_secs().to_bits(), 50.0f64.to_bits());
    }

    #[test]
    fn zero_bandwidth_means_unreachable() {
        let no_bw = |_a: NodeId, _b: NodeId| 0.0;
        let est = FinishTimeEstimator::new(0, &no_bw);
        assert_eq!(est.transfer_secs(0, 1, 10.0), f64::INFINITY);
        assert_eq!(
            est.transfer_secs(1, 1, 10.0),
            0.0,
            "local transfers never hit the network"
        );
    }

    /// Formula (9) as first written: score every candidate in full.  Kept as the oracle the
    /// bound-pruned scan must match.
    fn exhaustive_best_candidate(
        est: &FinishTimeEstimator<'_>,
        candidates: &[CandidateNode],
        load_mi: f64,
        image_size_mb: f64,
        predecessors: &[PredecessorData],
    ) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (i, c) in candidates.iter().enumerate() {
            let ft = est.finish_time_secs(c, load_mi, image_size_mb, predecessors);
            let better = match best {
                None => true,
                Some((bi, bft)) => {
                    ft < bft - 1e-12 || ((ft - bft).abs() <= 1e-12 && c.node < candidates[bi].node)
                }
            };
            if better {
                best = Some((i, ft));
            }
        }
        best
    }

    /// Bandwidth drawn from three values, so transfer times tie often, and one link in eight
    /// dead (infinite transfer time).  Shared by the planners' oracle properties.
    pub(crate) fn tiered_bw(a: NodeId, b: NodeId) -> f64 {
        if a == b {
            f64::INFINITY
        } else {
            [0.0, 1.0, 2.0, 4.0, 1.0, 2.0, 4.0, 1.0][(a * 7 + b * 3) % 8]
        }
    }

    /// A load jitter on either side of the 1e-12 tie tolerance (0 for an exact twin).
    pub(crate) fn load_jitter(code: u64) -> f64 {
        [0.0, 3e-13, 7e-13, 1e-12, 1.3e-12, 2e-12][(code % 6) as usize]
    }

    proptest::proptest! {
        #[test]
        fn best_candidate_matches_the_exhaustive_scan(
            candidate_codes in proptest::collection::vec(0u64..=u64::MAX, 1..25),
            task_code in 0u64..=u64::MAX,
            home in 0usize..48,
        ) {
            // Candidate ids are a stride through 0..48, so a later candidate often has a lower
            // id and wins a tie.  Capacities include 0 (infinite queue and execution).  About
            // one candidate in two is the one before it plus a load jitter on either side of
            // the 1e-12 tie tolerance, a jitter of 0 making an exact twin.
            let mut candidates: Vec<CandidateNode> = Vec::new();
            for (i, &code) in candidate_codes.iter().enumerate() {
                let node = (i * 29 + 11) % 48;
                let candidate = match candidates.last() {
                    Some(prev) if code >> 63 == 0 => CandidateNode {
                        node,
                        total_load_mi: prev.total_load_mi + load_jitter(code >> 7),
                        ..*prev
                    },
                    _ => CandidateNode {
                        node,
                        capacity_mips: [0.0, 1.0, 2.0, 4.0, 1.0][(code % 5) as usize],
                        slots: 1 + ((code >> 3) % 4) as usize,
                        total_load_mi: [0.0, 100.0, 400.0][((code >> 5) % 3) as usize]
                            + load_jitter(code >> 7),
                    },
                };
                candidates.push(candidate);
            }
            let predecessors: Vec<PredecessorData> = (0..task_code % 4)
                .map(|p| {
                    let bits = task_code >> (8 + 8 * p);
                    PredecessorData {
                        location: (bits % 48) as NodeId,
                        data_mb: [0.0, 10.0, 50.0, 200.0][((bits >> 6) % 4) as usize],
                    }
                })
                .collect();
            let load_mi = [100.0, 200.0, 800.0, 0.0][((task_code >> 2) % 4) as usize];
            let image_size_mb = [0.0, 10.0][((task_code >> 4) % 2) as usize];
            let est = FinishTimeEstimator::new(home, &tiered_bw);
            let bits = |r: Option<(usize, f64)>| r.map(|(i, ft)| (i, ft.to_bits()));
            proptest::prop_assert_eq!(
                bits(est.best_candidate(&candidates, load_mi, image_size_mb, &predecessors)),
                bits(exhaustive_best_candidate(
                    &est,
                    &candidates,
                    load_mi,
                    image_size_mb,
                    &predecessors
                ))
            );
        }
    }
}
