//! Minimum-cost flow by successive shortest augmenting paths.
//!
//! This is the textbook SSP algorithm (Ahuja–Magnanti–Orlin, the paper's
//! reference \[1\]) with Johnson potentials: one Bellman-Ford pass
//! establishes potentials even when the input has negative arc costs
//! (the assignment graphs the ranking tests build do not, but ranking
//! experiments with signed weights can produce them), then each
//! augmentation runs Dijkstra on non-negative reduced costs.
//!
//! On the unit-capacity bipartite graphs used for rank aggregation the
//! co-efficient matrix is totally unimodular, so the optimum found here
//! is integral — matching the claim in §IV-B of the paper.

use crate::graph::{Graph, NodeId};
use crate::shortest::{bellman_ford, dijkstra_with_potentials};
use crate::FlowError;

/// Result of a min-cost flow computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowResult {
    /// Total flow routed from source to sink.
    pub flow: i64,
    /// Total cost of the routed flow.
    pub cost: i64,
}

/// Min-cost flow solver. Owns its graph; inspect per-edge flow through
/// [`MinCostFlow::graph`] after solving.
///
/// # Example
///
/// ```
/// use sor_flow::{Graph, MinCostFlow, NodeId};
///
/// let mut g = Graph::new(4);
/// let (s, a, b, t) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
/// g.add_edge(s, a, 2, 1);
/// g.add_edge(s, b, 1, 2);
/// g.add_edge(a, t, 1, 1);
/// g.add_edge(b, t, 2, 1);
/// g.add_edge(a, b, 1, 0);
/// let mut solver = MinCostFlow::new(g);
/// let res = solver.solve_max(s, t).unwrap();
/// assert_eq!(res.flow, 3);
/// ```
#[derive(Debug, Clone)]
pub struct MinCostFlow {
    graph: Graph,
}

impl MinCostFlow {
    /// Wraps a graph for solving.
    pub fn new(graph: Graph) -> Self {
        MinCostFlow { graph }
    }

    /// Read access to the (possibly solved) graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Consumes the solver, returning the graph with flow applied.
    pub fn into_graph(self) -> Graph {
        self.graph
    }

    /// Routes up to `limit` units of flow from `s` to `t`, stopping early
    /// when the network saturates. Returns the flow and cost achieved.
    ///
    /// # Errors
    ///
    /// - [`FlowError::InvalidNode`] if `s` or `t` is out of range.
    /// - [`FlowError::NegativeCycle`] if the initial residual network has
    ///   a negative cycle reachable from `s`.
    pub fn solve_up_to(
        &mut self,
        s: NodeId,
        t: NodeId,
        limit: i64,
    ) -> Result<FlowResult, FlowError> {
        let n = self.graph.node_count();
        if s.0 >= n {
            return Err(FlowError::InvalidNode(s.0));
        }
        if t.0 >= n {
            return Err(FlowError::InvalidNode(t.0));
        }
        // Bootstrap potentials with Bellman-Ford (handles negative costs).
        let init = bellman_ford(&self.graph, s.0)?;
        let mut pot: Vec<i64> = init.iter().map(|l| if l.reached() { l.dist } else { 0 }).collect();

        let mut flow = 0i64;
        let mut cost = 0i64;
        while flow < limit {
            let labels = dijkstra_with_potentials(&self.graph, s.0, &pot);
            if !labels[t.0].reached() {
                break;
            }
            // Update potentials with the new reduced distances.
            for v in 0..n {
                if labels[v].reached() {
                    pot[v] += labels[v].dist;
                }
            }
            // Find bottleneck along the predecessor chain.
            let mut bottleneck = limit - flow;
            let mut v = t.0;
            while v != s.0 {
                let ai = labels[v].pred_arc;
                bottleneck = bottleneck.min(self.graph.arcs[ai].cap);
                v = self.graph.arcs[ai ^ 1].to;
            }
            // Apply augmentation.
            let mut v = t.0;
            while v != s.0 {
                let ai = labels[v].pred_arc;
                self.graph.arcs[ai].cap -= bottleneck;
                self.graph.arcs[ai ^ 1].cap += bottleneck;
                cost += bottleneck * self.graph.arcs[ai].cost;
                v = self.graph.arcs[ai ^ 1].to;
            }
            flow += bottleneck;
        }
        Ok(FlowResult { flow, cost })
    }

    /// Routes as much flow as possible from `s` to `t` at minimum cost.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MinCostFlow::solve_up_to`].
    pub fn solve_max(&mut self, s: NodeId, t: NodeId) -> Result<FlowResult, FlowError> {
        self.solve_up_to(s, t, i64::MAX)
    }

    /// Routes exactly `amount` units or fails.
    ///
    /// # Errors
    ///
    /// [`FlowError::Infeasible`] if the network saturates first; the
    /// partial flow remains applied to the graph so callers can inspect
    /// where it stopped.
    pub fn solve_exact(
        &mut self,
        s: NodeId,
        t: NodeId,
        amount: i64,
    ) -> Result<FlowResult, FlowError> {
        let res = self.solve_up_to(s, t, amount)?;
        if res.flow != amount {
            return Err(FlowError::Infeasible { routed: res.flow, requested: amount });
        }
        Ok(res)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        // s=0, a=1, b=2, t=3
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1), 2, 1);
        g.add_edge(NodeId(0), NodeId(2), 1, 2);
        g.add_edge(NodeId(1), NodeId(3), 1, 1);
        g.add_edge(NodeId(2), NodeId(3), 2, 1);
        g.add_edge(NodeId(1), NodeId(2), 1, 0);
        g
    }

    #[test]
    fn max_flow_and_cost_on_diamond() {
        let mut solver = MinCostFlow::new(diamond());
        let res = solver.solve_max(NodeId(0), NodeId(3)).unwrap();
        assert_eq!(res.flow, 3);
        // Cheapest routing: s->a->t (cost 2), s->a->b->t (cost 2), s->b->t (cost 3).
        assert_eq!(res.cost, 7);
    }

    #[test]
    fn exact_flow_respects_limit() {
        let mut solver = MinCostFlow::new(diamond());
        let res = solver.solve_exact(NodeId(0), NodeId(3), 1).unwrap();
        assert_eq!(res, FlowResult { flow: 1, cost: 2 });
    }

    #[test]
    fn exact_flow_infeasible_reports_partial() {
        let mut solver = MinCostFlow::new(diamond());
        let err = solver.solve_exact(NodeId(0), NodeId(3), 10).unwrap_err();
        assert_eq!(err, FlowError::Infeasible { routed: 3, requested: 10 });
    }

    #[test]
    fn disconnected_sink_routes_zero() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 5, 1);
        let mut solver = MinCostFlow::new(g);
        let res = solver.solve_max(NodeId(0), NodeId(2)).unwrap();
        assert_eq!(res, FlowResult { flow: 0, cost: 0 });
    }

    #[test]
    fn negative_costs_without_cycle_are_handled() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1, 5);
        g.add_edge(NodeId(1), NodeId(2), 1, -3);
        g.add_edge(NodeId(0), NodeId(2), 1, 4);
        let mut solver = MinCostFlow::new(g);
        let res = solver.solve_max(NodeId(0), NodeId(2)).unwrap();
        assert_eq!(res.flow, 2);
        assert_eq!(res.cost, 6); // 2 via top path, 4 direct
    }

    #[test]
    fn invalid_endpoints_error() {
        let mut solver = MinCostFlow::new(Graph::new(2));
        assert_eq!(solver.solve_max(NodeId(5), NodeId(1)).unwrap_err(), FlowError::InvalidNode(5));
        assert_eq!(solver.solve_max(NodeId(0), NodeId(9)).unwrap_err(), FlowError::InvalidNode(9));
    }

    #[test]
    fn per_edge_flow_is_consistent() {
        let mut solver = MinCostFlow::new(diamond());
        solver.solve_max(NodeId(0), NodeId(3)).unwrap();
        let g = solver.graph();
        let total_out: i64 =
            g.edges().filter(|&e| g.endpoints(e).0 == NodeId(0)).map(|e| g.flow_on(e)).sum();
        assert_eq!(total_out, 3);
    }

    #[test]
    fn prefers_cheap_path_first() {
        // Two parallel paths with different costs; with limit 1 the cheap
        // one must be used.
        let mut g = Graph::new(2);
        let cheap = g.add_edge(NodeId(0), NodeId(1), 1, 1);
        let dear = g.add_edge(NodeId(0), NodeId(1), 1, 100);
        let mut solver = MinCostFlow::new(g);
        let res = solver.solve_up_to(NodeId(0), NodeId(1), 1).unwrap();
        assert_eq!(res.cost, 1);
        assert_eq!(solver.graph().flow_on(cheap), 1);
        assert_eq!(solver.graph().flow_on(dear), 0);
    }
}
