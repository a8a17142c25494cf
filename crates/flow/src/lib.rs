//! Network-flow substrate for the SOR reproduction: the paper's own
//! formulation of rank aggregation, kept as a test oracle.
//!
//! The SOR paper (§IV-B) aggregates per-feature rankings into a final
//! personalizable ranking by solving a **minimum-cost perfect matching**
//! between target places and rank positions, formulated as a min-cost
//! `s`–`z` flow on an auxiliary unit-capacity graph (ref. \[1\] of the
//! paper: Ahuja, Magnanti, Orlin, *Network Flows*). Production ranking in
//! `sor-core` solves that matching with a dense assignment kernel; this
//! crate builds the paper's network literally so tests can check the
//! kernel against it. It is a dev-dependency only.
//!
//! - [`Graph`]: a compact adjacency-list directed flow network.
//! - [`MinCostFlow`]: successive shortest augmenting paths with Johnson
//!   potentials (Bellman-Ford bootstrap, Dijkstra thereafter), exact on
//!   integer costs, guaranteed integral on unit-capacity graphs.
//! - [`validate`]: conservation, capacity and optimality checks.
//!
//! # Example
//!
//! ```
//! use sor_flow::{Graph, MinCostFlow, NodeId};
//!
//! // Two places onto two positions: s = 0, places 1-2, positions 3-4, z = 5.
//! let cost = [[4, 1], [2, 0]];
//! let mut g = Graph::new(6);
//! for i in 0..2 {
//!     g.add_edge(NodeId(0), NodeId(1 + i), 1, 0);
//!     g.add_edge(NodeId(3 + i), NodeId(5), 1, 0);
//!     for p in 0..2 {
//!         g.add_edge(NodeId(1 + i), NodeId(3 + p), 1, cost[i][p]);
//!     }
//! }
//! let res = MinCostFlow::new(g).solve_exact(NodeId(0), NodeId(5), 2).unwrap();
//! assert_eq!(res.cost, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod mincost;
pub mod shortest;
pub mod validate;

pub use graph::{EdgeId, Graph, NodeId};
pub use mincost::{FlowResult, MinCostFlow};

/// Errors produced by the flow substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowError {
    /// The requested amount of flow cannot be routed from source to sink.
    Infeasible {
        /// Flow that was actually routed before the network saturated.
        routed: i64,
        /// Flow that was requested.
        requested: i64,
    },
    /// The graph contains a negative-cost cycle reachable from the source,
    /// so shortest augmenting paths are undefined.
    NegativeCycle,
    /// A node id was out of range for the graph it was used with.
    InvalidNode(usize),
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::Infeasible { routed, requested } => write!(
                f,
                "network saturated after routing {routed} of {requested} requested flow units"
            ),
            FlowError::NegativeCycle => {
                write!(f, "negative-cost cycle reachable from the source")
            }
            FlowError::InvalidNode(n) => write!(f, "node id {n} out of range"),
        }
    }
}

impl std::error::Error for FlowError {}
