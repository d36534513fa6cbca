//! The gossip trace: the mixed gossip protocol run once per world, read by every session.
//!
//! Nothing in the protocol depends on the scheduler.  Its control flow reads node liveness,
//! which comes from the pre-drawn fault schedule and from churn, whose draws read only alive
//! flags.  Merges, purges and forwarding compare only `(updated_at, node)` and `hops`, and
//! aggregation averages static per-node values.  The one scheduler-dependent value in the
//! whole protocol state is each record's `total_load_mi`, and that is always its node's load
//! at the self-refresh cycle `updated_at`.
//!
//! So the first session on a world runs [`MixedGossip`] from t = 0 to the horizon under the
//! world's liveness timeline, with every load at zero, and keeps only what sessions read:
//!
//! - per scheduling instant and home node, the home's `RSS` as compact `(node, age in
//!   cycles, hops)` records of 32 bits, plus its expected costs.  Home nodes' sets are the
//!   only ones the first phase reads;
//! - the churn departures and joins of every scheduling instant, drawn here from the churn
//!   stream;
//! - the traffic counters after every cycle, and the average `RSS` size after every instant
//!   at which anything happened, so a report can be closed at any instant.
//!
//! A session records every node's advertised load at each gossip instant in a ring of
//! [`GossipTrace::ring_len`] cycles and rebuilds a record's load from the ring by its age;
//! capacity and slot count come from its node table.  The build replays the engine's tie
//! order at equal instants: faults first, as the engine runs an instant's node events before
//! its cadences, then the engine's own cadence queue, so after t = 0 the churn step and the
//! first phase at a scheduling instant run before that instant's gossip cycle.
//!
//! The build reads one value, [`TraceInputs`]: the gossip config, the seed of the gossip and
//! churn streams, the churn dynamic factor, the cadences and the horizon, each node's churn
//! role and advertised resources, the fault schedule and the set of home nodes.  A world
//! keeps its trace in a [`TraceCell`] keyed by those inputs, and a world derived from it
//! shares the cell whenever its inputs are equal.  The protocol reads neither the DAGs, nor
//! the load factor, nor the arrival times, nor the recovery policy, so the load-factor, CCR,
//! arrival and recovery sweeps run it once.

use super::node::NodeRuntime;
use super::GridEvent;
use crate::config::{GridConfig, StreamKind};
use crate::scenario::seeded_stream;
use crate::NodeId;
use p2pgrid_gossip::{GossipStats, LocalNodeState, MixedGossip, MixedGossipConfig};
use p2pgrid_sim::{EventQueue, SimDuration, SimRng, SimTime};
use p2pgrid_workflow::ExpectedCosts;
use std::sync::{Arc, OnceLock};

/// Everything [`GossipTrace::build`] reads, and nothing else: two worlds with equal inputs
/// build equal traces.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TraceInputs {
    gossip: MixedGossipConfig,
    /// The seed of the gossip and churn streams: the master seed, which only the topology and
    /// landmark streams can override.
    seed: u64,
    /// The churn step's dynamic factor; zero without churn.
    dynamic_factor: f64,
    gossip_interval: SimDuration,
    scheduling_interval: SimDuration,
    metrics_interval: SimDuration,
    horizon: SimDuration,
    /// Each node as the protocol sees it at t = 0: alive, unloaded, with its advertised
    /// capacity, slot count and local bandwidth.
    local: Vec<LocalNodeState>,
    /// Each node's churn role.
    churnable: Vec<bool>,
    /// The pre-drawn fault schedule, stably sorted by time.
    faults: Vec<(NodeId, SimTime, bool)>,
    /// Nodes that submit workflows, ascending.
    homes: Vec<NodeId>,
}

impl TraceInputs {
    /// The inputs of the trace of a world sampled from `config`.
    pub(crate) fn new(
        config: &GridConfig,
        nodes: &[NodeRuntime],
        faults: &[(NodeId, SimTime, bool)],
        home_of: &[Vec<usize>],
    ) -> TraceInputs {
        // The schedule is node-major; a stable sort by time keeps each node's down before
        // its up at a shared instant.
        let mut faults = faults.to_vec();
        faults.sort_by_key(|&(_, time, _)| time);
        TraceInputs {
            gossip: config.gossip,
            seed: config.seed,
            dynamic_factor: config.churn().map_or(0.0, |churn| churn.dynamic_factor),
            gossip_interval: config.gossip_interval,
            scheduling_interval: config.scheduling_interval,
            metrics_interval: config.metrics_interval,
            horizon: config.horizon,
            local: nodes
                .iter()
                .map(|nd| LocalNodeState {
                    alive: nd.alive,
                    capacity_mips: nd.advertised_capacity_mips(),
                    slots: nd.slots,
                    total_load_mi: 0.0,
                    local_avg_bandwidth_mbps: nd.local_avg_bandwidth_mbps,
                })
                .collect(),
            churnable: nodes.iter().map(|nd| nd.churnable).collect(),
            faults,
            homes: (0..nodes.len())
                .filter(|&i| !home_of[i].is_empty())
                .collect(),
        }
    }

    /// The time between two instants of `event`'s cadence.
    fn interval(&self, event: GridEvent) -> SimDuration {
        match event {
            GridEvent::GossipCycle => self.gossip_interval,
            GridEvent::SchedulingCycle => self.scheduling_interval,
            GridEvent::MetricsSample => self.metrics_interval,
        }
    }
}

/// One world's gossip trace, built on first use from the inputs that key it.  Worlds with
/// equal inputs share one cell, so whichever of them starts a session first builds the trace
/// for all of them.
#[derive(Debug)]
pub(crate) struct TraceCell {
    pub(crate) inputs: TraceInputs,
    trace: OnceLock<Arc<GossipTrace>>,
}

impl TraceCell {
    /// An empty cell for the trace of `inputs`.
    pub(crate) fn new(inputs: TraceInputs) -> TraceCell {
        TraceCell {
            inputs,
            trace: OnceLock::new(),
        }
    }

    /// The trace, built on first use.  Concurrent first callers block until the one build
    /// finishes.
    pub(crate) fn get(&self) -> &Arc<GossipTrace> {
        self.trace
            .get_or_init(|| Arc::new(GossipTrace::build(&self.inputs)))
    }

    /// The trace, if a session has built it.
    pub(crate) fn built(&self) -> Option<&GossipTrace> {
        self.trace.get().map(|trace| &**trace)
    }
}

/// One record of a traced `RSS`: what the protocol's [`NodeStateRecord`] holds, less the
/// capacity, slot count and load, which a session looks up by node and age.
///
/// [`NodeStateRecord`]: p2pgrid_gossip::NodeStateRecord
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TracedRecord {
    /// The node the record describes.
    pub(crate) node: NodeId,
    /// Gossip cycles since the record's self-refresh, counted from the latest cycle.
    pub(crate) age: usize,
    /// Gossip hops the record travelled.
    pub(crate) hops: u32,
}

/// The bit layout of a packed [`TracedRecord`]: the node id in the low `node_bits`, the age
/// in the next `age_bits`, the hops above them; each field as wide as its largest value.
#[derive(Debug, Clone, Copy)]
struct Packing {
    node_bits: u32,
    age_bits: u32,
    hop_bits: u32,
}

/// Bits needed to hold every value up to `max`.
fn bits(max: u64) -> u32 {
    u64::BITS - max.leading_zeros()
}

/// Cycles a record can be old at a read, plus one.  A cycle's purge leaves records at most
/// `staleness / interval` cycles old, and nothing adds a record between cycles.
fn ring_len(
    staleness_limit: SimDuration,
    gossip_interval: SimDuration,
    horizon: SimDuration,
) -> usize {
    let gossip_ms = gossip_interval.as_millis();
    let cycles_total = (horizon.as_millis() / gossip_ms) as usize + 1;
    ((staleness_limit.as_millis() / gossip_ms) as usize)
        .saturating_add(1)
        .min(cycles_total)
}

/// Bits one packed trace record needs under `config`.  [`GridConfig::validate`] rejects a
/// config that needs more than 32.
pub(crate) fn record_bits(config: &GridConfig) -> u32 {
    let ring_len = ring_len(
        config.gossip.staleness_limit,
        config.gossip_interval,
        config.horizon,
    );
    Packing::of(config.nodes, config.gossip.ttl, ring_len).width()
}

impl Packing {
    fn of(nodes: usize, ttl: u32, ring_len: usize) -> Packing {
        let ring_len = ring_len as u64;
        // A record travels at most one hop per cycle plus one in the cycle of its refresh.
        let max_hops = u64::from(ttl).min(ring_len);
        Packing {
            node_bits: bits(nodes as u64 - 1),
            age_bits: bits(ring_len - 1),
            hop_bits: bits(max_hops),
        }
    }

    fn width(self) -> u32 {
        self.node_bits + self.age_bits + self.hop_bits
    }

    fn pack(self, r: TracedRecord) -> u32 {
        let packed = r.node as u64
            | (r.age as u64) << self.node_bits
            | u64::from(r.hops) << (self.node_bits + self.age_bits);
        packed as u32
    }

    fn unpack(self, packed: u32) -> TracedRecord {
        let packed = u64::from(packed);
        let age = packed >> self.node_bits;
        TracedRecord {
            node: (packed & ((1 << self.node_bits) - 1)) as NodeId,
            age: (age & ((1 << self.age_bits) - 1)) as usize,
            hops: (age >> self.age_bits) as u32,
        }
    }
}

/// Everything sessions read from the gossip protocol, for one world.
#[derive(Debug)]
pub(crate) struct GossipTrace {
    /// Nodes that submit workflows, ascending.
    homes: Vec<NodeId>,
    packing: Packing,
    /// Cycles a record can be old at a read, plus one.
    ring_len: usize,
    /// Read `instant * homes.len() + h` is `records[read_starts[r]..read_starts[r + 1]]`.
    read_starts: Vec<u32>,
    /// Packed [`TracedRecord`]s, each read in ascending node order.
    records: Vec<u32>,
    /// Each read's expected costs, from the home's aggregation estimates.
    costs: Vec<ExpectedCosts>,
    /// Per scheduling instant: the churn departures, then the joins, in draw order.
    churn: Vec<(Vec<NodeId>, Vec<NodeId>)>,
    /// The traffic counters after each cycle.
    stats: Vec<GossipStats>,
    /// `(instant, average RSS size)` after everything at that instant, time-ascending.
    rss_sizes: Vec<(SimTime, f64)>,
}

/// The churn step's pool rule: `round(n · df)` departures drawn from the alive churnable
/// nodes and as many joins from the dead ones, each clamped to its own pool.
fn draw_churn(
    inputs: &TraceInputs,
    local: &[LocalNodeState],
    rng: &mut SimRng,
) -> (Vec<NodeId>, Vec<NodeId>) {
    let df = inputs.dynamic_factor;
    if df <= 0.0 {
        return Default::default();
    }
    let total = local.len();
    let churn_count = ((total as f64) * df).round() as usize;
    if churn_count == 0 {
        return Default::default();
    }
    let pool = |alive: bool| -> Vec<NodeId> {
        (0..total)
            .filter(|&i| inputs.churnable[i] && local[i].alive == alive)
            .collect()
    };
    let (alive_churnable, dead_churnable) = (pool(true), pool(false));
    // A large `df` can ask for more departures (or joins) than the respective pool can
    // provide — clamp each draw to its own pool explicitly instead of relying on the
    // sampler's silent truncation.  (The pools may legitimately differ in size: the dead
    // pool is empty on the very first churn step, so the two draws are clamped
    // independently, not to a common minimum.)
    let leave_count = churn_count.min(alive_churnable.len());
    let join_count = churn_count.min(dead_churnable.len());
    let leaving: Vec<NodeId> = rng
        .choose_multiple(&alive_churnable, leave_count)
        .into_iter()
        .copied()
        .collect();
    let joining: Vec<NodeId> = rng
        .choose_multiple(&dead_churnable, join_count)
        .into_iter()
        .copied()
        .collect();
    (leaving, joining)
}

impl GossipTrace {
    /// Run the protocol from `inputs` over the whole horizon.
    pub(crate) fn build(inputs: &TraceInputs) -> GossipTrace {
        let n = inputs.local.len();
        let horizon = SimTime::ZERO + inputs.horizon;
        let gossip_ms = inputs.gossip_interval.as_millis();
        let cycles_total = (inputs.horizon.as_millis() / gossip_ms) as usize + 1;
        let instants_total =
            (inputs.horizon.as_millis() / inputs.scheduling_interval.as_millis()) as usize + 1;
        let ring_len = ring_len(
            inputs.gossip.staleness_limit,
            inputs.gossip_interval,
            inputs.horizon,
        );
        let packing = Packing::of(n, inputs.gossip.ttl, ring_len);
        assert!(
            packing.width() <= u32::BITS,
            "GridConfig::validate bounds the record width"
        );

        let mut gossip_rng = seeded_stream(StreamKind::Gossip, inputs.seed);
        let mut gossip = MixedGossip::new(n, inputs.gossip, &mut gossip_rng);
        let mut churn_rng = seeded_stream(StreamKind::Churn, inputs.seed);
        let mut local = inputs.local.clone();
        let faults = &inputs.faults;

        let homes = inputs.homes.clone();
        let capacity = gossip.rss(0).capacity();
        let mut trace = GossipTrace {
            packing,
            ring_len,
            read_starts: Vec::with_capacity(instants_total * homes.len() + 1),
            records: Vec::with_capacity(instants_total * homes.len() * capacity),
            costs: Vec::with_capacity(instants_total * homes.len()),
            churn: Vec::with_capacity(instants_total),
            stats: Vec::with_capacity(cycles_total),
            rss_sizes: Vec::new(),
            homes,
        };
        trace.read_starts.push(0);

        let mut cadences = EventQueue::new();
        for event in GridEvent::AT_START {
            cadences.schedule(SimTime::ZERO, event);
        }
        let mut next_fault = 0;
        loop {
            let cadence = cadences.peek_time().filter(|&t| t <= horizon);
            let fault = faults.get(next_fault).map(|&(_, time, _)| time);
            let now = match (cadence, fault) {
                (Some(c), Some(f)) => c.min(f),
                (Some(t), None) | (None, Some(t)) => t,
                (None, None) => break,
            };
            // The engine runs an instant's node events, faults included, before its cadences.
            while let Some(&(node, _, down)) = faults.get(next_fault).filter(|f| f.1 == now) {
                next_fault += 1;
                if down && local[node].alive {
                    local[node].alive = false;
                    gossip.forget_node(node);
                } else if !down {
                    local[node].alive = true;
                }
            }
            while cadences.peek_time() == Some(now) {
                let event = cadences.pop().expect("peeked event must pop").event;
                match event {
                    GridEvent::GossipCycle => {
                        gossip.run_cycle(now, &local, &mut gossip_rng);
                        trace.stats.push(gossip.stats());
                    }
                    GridEvent::SchedulingCycle => {
                        let (leaving, joining) = draw_churn(inputs, &local, &mut churn_rng);
                        for &node in &leaving {
                            local[node].alive = false;
                            gossip.forget_node(node);
                        }
                        for &node in &joining {
                            local[node].alive = true;
                        }
                        trace.churn.push((leaving, joining));
                        trace.record_reads(&gossip, gossip_ms);
                    }
                    GridEvent::MetricsSample => {}
                }
                cadences.schedule(now + inputs.interval(event), event);
            }
            trace.rss_sizes.push((now, gossip.average_rss_size(&local)));
        }
        trace.records.shrink_to_fit();
        trace.rss_sizes.shrink_to_fit();
        trace
    }

    /// Record every home node's `RSS` and expected costs at the current scheduling instant.
    fn record_reads(&mut self, gossip: &MixedGossip, gossip_ms: u64) {
        // Records exist only once a cycle has run, and then `latest` is that cycle.
        let latest = self.stats.len().saturating_sub(1) as u64;
        for &home in &self.homes {
            for r in gossip.rss(home).records() {
                let age = (latest - r.updated_at.as_millis() / gossip_ms) as usize;
                assert!(
                    age < self.ring_len && r.hops as usize <= self.ring_len,
                    "a record is older, or has travelled further, than the staleness window allows"
                );
                self.records.push(self.packing.pack(TracedRecord {
                    node: r.node,
                    age,
                    hops: r.hops,
                }));
            }
            self.read_starts.push(self.records.len() as u32);
            let (capacity, bandwidth) = gossip.expected_costs(home);
            self.costs.push(ExpectedCosts::new(capacity, bandwidth));
        }
    }

    /// The number of gossip cycles a session's load ring must span: a record read at a
    /// scheduling instant is at most `ring_len - 1` cycles older than the latest cycle.
    pub(crate) fn ring_len(&self) -> usize {
        self.ring_len
    }

    /// The index of home node `home`'s read at scheduling instant `instant`.
    ///
    /// # Panics
    ///
    /// Panics if `home` submits no workflow or the instant lies beyond the horizon.
    fn read(&self, instant: usize, home: NodeId) -> usize {
        let h = self
            .homes
            .binary_search(&home)
            .expect("only home nodes read the trace");
        instant * self.homes.len() + h
    }

    /// Home node `home`'s expected costs at scheduling instant `instant`.
    pub(crate) fn expected_costs(&self, instant: usize, home: NodeId) -> ExpectedCosts {
        self.costs[self.read(instant, home)]
    }

    /// Home node `home`'s `RSS` at scheduling instant `instant`, in ascending node order.
    pub(crate) fn rss(
        &self,
        instant: usize,
        home: NodeId,
    ) -> impl Iterator<Item = TracedRecord> + '_ {
        let r = self.read(instant, home);
        let span = self.read_starts[r] as usize..self.read_starts[r + 1] as usize;
        let packing = self.packing;
        self.records[span]
            .iter()
            .map(move |&packed| packing.unpack(packed))
    }

    /// The churn departures and joins at scheduling instant `instant`, in draw order.
    pub(crate) fn churn(&self, instant: usize) -> (&[NodeId], &[NodeId]) {
        let (leaving, joining) = &self.churn[instant];
        (leaving, joining)
    }

    /// The traffic counters and average `RSS` size of a session that ran `cycles` gossip
    /// cycles and every event up to and including `at`.
    pub(crate) fn closing(&self, cycles: u64, at: SimTime) -> (GossipStats, f64) {
        let Some(last) = (cycles as usize).checked_sub(1) else {
            // No set holds a record before the first cycle.
            return (GossipStats::default(), 0.0);
        };
        let settled = self.rss_sizes.partition_point(|&(t, _)| t <= at);
        (self.stats[last], self.rss_sizes[settled - 1].1)
    }

    /// Heap bytes held by the trace.
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let churn: usize = self
            .churn
            .iter()
            .map(|(l, j)| (l.capacity() + j.capacity()) * size_of::<NodeId>())
            .sum();
        self.homes.capacity() * size_of::<NodeId>()
            + self.read_starts.capacity() * size_of::<u32>()
            + self.records.capacity() * size_of::<u32>()
            + self.costs.capacity() * size_of::<ExpectedCosts>()
            + self.churn.capacity() * size_of::<(Vec<NodeId>, Vec<NodeId>)>()
            + churn
            + self.stats.capacity() * size_of::<GossipStats>()
            + self.rss_sizes.capacity() * size_of::<(SimTime, f64)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ChurnConfig, FaultModel, GridConfig, StochasticFaults};
    use crate::scenario::{stream_rng, Scenario};
    use p2pgrid_gossip::NodeStateRecord;
    use p2pgrid_sim::SimDuration;

    /// The engine's grid-wide cadences, scheduled at t = 0 in the engine's order.
    #[derive(Debug, Clone, Copy)]
    enum Event {
        Gossip,
        Metrics,
        Scheduling,
    }

    /// Every field of a record, floats as bits.
    fn fields(r: &NodeStateRecord) -> (NodeId, u64, usize, u64, SimTime, u32) {
        (
            r.node,
            r.capacity_mips.to_bits(),
            r.slots,
            r.total_load_mi.to_bits(),
            r.updated_at,
            r.hops,
        )
    }

    #[test]
    fn packing_round_trips_at_the_widest_fields() {
        let packing = Packing {
            node_bits: 10,
            age_bits: 3,
            hop_bits: 3,
        };
        for r in [
            TracedRecord {
                node: 1023,
                age: 7,
                hops: 7,
            },
            TracedRecord {
                node: 0,
                age: 0,
                hops: 0,
            },
            TracedRecord {
                node: 512,
                age: 5,
                hops: 6,
            },
        ] {
            assert_eq!(packing.unpack(packing.pack(r)), r);
        }
        let lonely = Packing {
            node_bits: 0,
            age_bits: 0,
            hop_bits: 1,
        };
        let r = TracedRecord {
            node: 0,
            age: 0,
            hops: 1,
        };
        assert_eq!(lonely.unpack(lonely.pack(r)), r);
    }

    proptest::proptest! {
        /// The trace against the protocol itself.  The reference steps [`MixedGossip`] as a
        /// session would if it ran the protocol itself: at every cadence instant, in the
        /// engine's queue order, after the faults due by then (applied node by node, not in
        /// time order), with a fresh random load for every node at every cycle.  At every
        /// scheduling instant, every home node's traced `RSS` — its loads taken from those
        /// random draws by age — must equal the protocol's record for record, every field as
        /// bits, and so must its expected costs; the traffic counters and the average `RSS`
        /// size must match at a random cut-off instant.
        #[test]
        fn the_trace_reads_what_the_protocol_stepped_cycle_by_cycle_holds(
            n in 1usize..=64,
            churn_percent in 0u32..=50,
            stochastic in proptest::bool::ANY,
            ttl in 0u32..=6,
            staleness_mins in 0u64..=200,
            rss_capacity in 1usize..=24,
            gossip_mins in 2u64..=15,
            scheduling_mins in 2u64..=15,
            seed in 0u64..=u64::MAX,
            cut_mins in 0u64..=180,
        ) {
            let faults = if stochastic {
                FaultModel::Stochastic(StochasticFaults::new(
                    SimDuration::from_hours(1),
                    SimDuration::from_mins(10),
                ))
            } else {
                FaultModel::Churn(ChurnConfig::with_dynamic_factor(
                    f64::from(churn_percent) / 100.0,
                ))
            };
            let mut config = GridConfig::small(n).with_seed(seed).with_faults(faults);
            config.workflows_per_node = 1;
            config.workload.generator_mut().tasks = 2..=3;
            config.horizon = SimDuration::from_hours(3);
            config.gossip_interval = SimDuration::from_mins(gossip_mins);
            config.scheduling_interval = SimDuration::from_mins(scheduling_mins);
            config.gossip.ttl = ttl;
            config.gossip.staleness_limit = SimDuration::from_mins(staleness_mins);
            config.gossip.rss_capacity = Some(rss_capacity);
            let scenario = Scenario::build(config.clone()).unwrap();
            let world = scenario.world();
            // Whole-minute fault times coincide with cadence instants, the cut-off and each
            // other, so every tie order is exercised.
            let faults: Vec<(NodeId, SimTime, bool)> = world
                .faults
                .iter()
                .map(|&(node, time, down)| {
                    (node, SimTime::from_millis(time.as_millis() / 60_000 * 60_000), down)
                })
                .collect();
            let trace = GossipTrace::build(&TraceInputs::new(
                &config,
                &world.nodes,
                &faults,
                &world.home_of,
            ));
            let homes: Vec<NodeId> = (0..n).filter(|&i| !world.home_of[i].is_empty()).collect();

            let mut rng = stream_rng(&config, StreamKind::Gossip);
            let mut gossip = MixedGossip::new(n, config.gossip, &mut rng);
            let mut local: Vec<LocalNodeState> = world
                .nodes
                .iter()
                .map(|nd| LocalNodeState {
                    alive: true,
                    capacity_mips: nd.advertised_capacity_mips(),
                    slots: nd.slots,
                    total_load_mi: 0.0,
                    local_avg_bandwidth_mbps: nd.local_avg_bandwidth_mbps,
                })
                .collect();
            proptest::prop_assert_eq!(
                trace.closing(0, SimTime::ZERO),
                (gossip.stats(), gossip.average_rss_size(&local))
            );
            let mut loads_rng = SimRng::seed_from_u64(seed).derive("loads");
            let mut loads: Vec<Vec<f64>> = Vec::new();
            let mut applied = vec![false; faults.len()];
            let mut apply_faults =
                |by: SimTime, local: &mut [LocalNodeState], gossip: &mut MixedGossip| {
                    for (i, &(node, time, down)) in faults.iter().enumerate() {
                        if applied[i] || time > by {
                            continue;
                        }
                        applied[i] = true;
                        if down {
                            local[node].alive = false;
                            gossip.forget_node(node);
                        } else {
                            local[node].alive = true;
                        }
                    }
                };
            let cut = SimTime::ZERO + SimDuration::from_mins(cut_mins);
            let mut cut_checked = false;
            let check_cut = |local: &[LocalNodeState], gossip: &MixedGossip| {
                let closing = trace.closing(gossip.stats().cycles, cut);
                proptest::prop_assert_eq!(closing.0, gossip.stats());
                proptest::prop_assert_eq!(
                    closing.1.to_bits(),
                    gossip.average_rss_size(local).to_bits()
                );
            };

            let horizon = SimTime::ZERO + config.horizon;
            let mut events = EventQueue::new();
            events.schedule(SimTime::ZERO, Event::Gossip);
            events.schedule(SimTime::ZERO, Event::Metrics);
            events.schedule(SimTime::ZERO, Event::Scheduling);
            let mut instant = 0;
            while let Some(now) = events.peek_time().filter(|&t| t <= horizon) {
                if cut < now && !cut_checked {
                    apply_faults(cut, &mut local, &mut gossip);
                    check_cut(&local, &gossip);
                    cut_checked = true;
                }
                apply_faults(now, &mut local, &mut gossip);
                let event = events.pop().unwrap().event;
                let interval = match event {
                    Event::Gossip => {
                        let cycle: Vec<f64> =
                            (0..n).map(|_| loads_rng.gen_f64() * 1e6).collect();
                        for (state, &load) in local.iter_mut().zip(&cycle) {
                            state.total_load_mi = load;
                        }
                        loads.push(cycle);
                        gossip.run_cycle(now, &local, &mut rng);
                        config.gossip_interval
                    }
                    Event::Metrics => config.metrics_interval,
                    Event::Scheduling => {
                        let (leaving, joining) = trace.churn(instant);
                        let df = config.churn().map_or(0.0, |c| c.dynamic_factor);
                        let wanted = ((n as f64) * df).round() as usize;
                        let pool = |alive: bool| {
                            (0..n)
                                .filter(|&i| world.nodes[i].churnable && local[i].alive == alive)
                                .count()
                        };
                        proptest::prop_assert_eq!(leaving.len(), wanted.min(pool(true)));
                        proptest::prop_assert_eq!(joining.len(), wanted.min(pool(false)));
                        for &node in leaving {
                            proptest::prop_assert!(world.nodes[node].churnable);
                            proptest::prop_assert!(local[node].alive);
                            local[node].alive = false;
                            gossip.forget_node(node);
                        }
                        for &node in joining {
                            proptest::prop_assert!(world.nodes[node].churnable);
                            proptest::prop_assert!(!local[node].alive);
                            local[node].alive = true;
                        }
                        let latest = loads.len().saturating_sub(1);
                        for &home in &homes {
                            let traced: Vec<NodeStateRecord> = trace
                                .rss(instant, home)
                                .map(|r| {
                                    let cycle = latest - r.age;
                                    NodeStateRecord {
                                        node: r.node,
                                        capacity_mips: local[r.node].capacity_mips,
                                        slots: local[r.node].slots,
                                        total_load_mi: loads[cycle][r.node],
                                        updated_at: SimTime::ZERO
                                            + config.gossip_interval * cycle as u64,
                                        hops: r.hops,
                                    }
                                })
                                .collect();
                            let held: Vec<_> = gossip.rss(home).records().map(fields).collect();
                            proptest::prop_assert_eq!(
                                traced.iter().map(fields).collect::<Vec<_>>(),
                                held,
                                "home {} at scheduling instant {}", home, instant
                            );
                            let traced = trace.expected_costs(instant, home);
                            let (capacity, bandwidth) = gossip.expected_costs(home);
                            proptest::prop_assert_eq!(
                                traced.avg_capacity_mips.to_bits(),
                                capacity.to_bits()
                            );
                            proptest::prop_assert_eq!(
                                traced.avg_bandwidth_mbps.to_bits(),
                                bandwidth.to_bits()
                            );
                        }
                        instant += 1;
                        config.scheduling_interval
                    }
                };
                events.schedule(now + interval, event);
            }
            if !cut_checked {
                apply_faults(cut, &mut local, &mut gossip);
                check_cut(&local, &gossip);
            }
        }
    }
}
