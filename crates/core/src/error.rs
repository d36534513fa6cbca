//! Typed configuration errors.
//!
//! [`GridConfig::validate`](crate::config::GridConfig::validate) and
//! [`Scenario::build`](crate::scenario::Scenario::build) report malformed configurations as a
//! [`ConfigError`] instead of panicking, so a sweep runner can fail one configuration point
//! with a message and keep the rest of the experiment alive.

use std::fmt;

/// Why a [`GridConfig`](crate::config::GridConfig) was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The grid has no nodes at all.
    NoNodes,
    /// The Waxman topology's node count disagrees with the grid's node count.
    TopologyMismatch {
        /// Node count of the topology generator.
        topology: usize,
        /// Node count of the grid.
        nodes: usize,
    },
    /// The churn dynamic factor lies outside `[0, 1]`.
    InvalidDynamicFactor(f64),
    /// A periodic interval (scheduling / gossip / metrics) is zero.
    ZeroInterval(&'static str),
    /// The capacity choice set is empty.
    EmptyCapacitySet,
    /// A capacity value is non-positive or non-finite.
    InvalidCapacity(f64),
    /// A node class would own zero execution slots.
    ZeroSlots,
    /// The weighted slot-distribution has no classes.
    EmptySlotClasses,
    /// A slot-class weight is non-positive or non-finite.
    InvalidSlotWeight(f64),
    /// The workload is invalid: a malformed synthetic-generator range, or a trace workload
    /// whose document failed validation (cycle, duplicate edge, unknown reference, ...).
    InvalidWorkload(String),
    /// An arrival-process parameter is out of range.
    InvalidArrival {
        /// Which parameter.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A trace workload entry pins its home to a node id outside the grid.
    TraceHomeOutOfRange {
        /// The requested home node id.
        node: usize,
        /// Number of nodes in the grid.
        nodes: usize,
    },
    /// A trace workload entry pins its home to a churnable node (home nodes must be stable).
    TraceHomeNotStable {
        /// The requested home node id.
        node: usize,
        /// Number of stable nodes (ids `0..stable` are the stable population).
        stable: usize,
    },
    /// The trace workload has workflows but submits none of them.
    EmptyTrace,
    /// A fault-model parameter is out of range.
    InvalidFault {
        /// Which parameter.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A recovery-policy parameter is out of range.
    InvalidRecovery {
        /// Which parameter.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The gossip trace cannot pack a record into 32 bits: the node id, the record's age in
    /// gossip cycles (bounded by the staleness limit) and its hops (bounded by the ttl)
    /// together need this many.
    GossipRecordTooWide(u32),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoNodes => write!(f, "at least one node is required"),
            ConfigError::TopologyMismatch { topology, nodes } => write!(
                f,
                "topology node count ({topology}) must match the grid node count ({nodes})"
            ),
            ConfigError::InvalidDynamicFactor(df) => {
                write!(f, "churn dynamic factor must be in [0, 1], got {df}")
            }
            ConfigError::ZeroInterval(which) => {
                write!(f, "{which} interval must be positive")
            }
            ConfigError::EmptyCapacitySet => {
                write!(f, "capacity choice set must not be empty")
            }
            ConfigError::InvalidCapacity(c) => {
                write!(f, "node capacities must be positive and finite, got {c}")
            }
            ConfigError::ZeroSlots => {
                write!(f, "every node needs at least one execution slot")
            }
            ConfigError::EmptySlotClasses => {
                write!(f, "slot class set must not be empty")
            }
            ConfigError::InvalidSlotWeight(w) => {
                write!(f, "slot class weights must be positive and finite, got {w}")
            }
            ConfigError::InvalidWorkload(msg) => write!(f, "invalid workload: {msg}"),
            ConfigError::InvalidArrival { what, value } => {
                write!(
                    f,
                    "invalid arrival process: {what} out of range, got {value}"
                )
            }
            ConfigError::TraceHomeOutOfRange { node, nodes } => write!(
                f,
                "trace entry pins home node {node}, but the grid has only {nodes} nodes"
            ),
            ConfigError::TraceHomeNotStable { node, stable } => write!(
                f,
                "trace entry pins home node {node}, but only nodes 0..{stable} are stable \
                 (home nodes must not churn)"
            ),
            ConfigError::EmptyTrace => {
                write!(f, "trace workload submits no workflow instances")
            }
            ConfigError::InvalidFault { what, value } => {
                write!(f, "invalid fault model: {what} out of range, got {value}")
            }
            ConfigError::InvalidRecovery { what, value } => {
                write!(
                    f,
                    "invalid recovery policy: {what} out of range, got {value}"
                )
            }
            ConfigError::GossipRecordTooWide(bits) => write!(
                f,
                "a gossip trace record needs {bits} bits for its node id, age and hops, more \
                 than 32: lower the node count, the staleness limit or the ttl"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_offending_value() {
        assert!(ConfigError::InvalidDynamicFactor(1.5)
            .to_string()
            .contains("1.5"));
        assert!(ConfigError::TopologyMismatch {
            topology: 99,
            nodes: 10
        }
        .to_string()
        .contains("99"));
        assert!(ConfigError::ZeroInterval("gossip")
            .to_string()
            .contains("gossip"));
        let boxed: Box<dyn std::error::Error> = Box::new(ConfigError::ZeroSlots);
        assert!(boxed.to_string().contains("execution slot"));
        assert!(ConfigError::InvalidFault {
            what: "mtbf",
            value: -1.0
        }
        .to_string()
        .contains("mtbf"));
        assert!(ConfigError::InvalidRecovery {
            what: "replicate copies",
            value: 1.0
        }
        .to_string()
        .contains("replicate copies"));
    }
}
