//! Property-based tests for the flow substrate.

use proptest::prelude::*;
use sor_flow::validate::{check_capacities, check_conservation, is_min_cost};
use sor_flow::{Graph, MinCostFlow, NodeId};

proptest! {
    /// Random layered graphs: flow must conserve, respect capacities and
    /// leave no negative residual cycle.
    #[test]
    fn random_flow_is_valid(
        edges in proptest::collection::vec((0usize..8, 0usize..8, 1i64..10, 0i64..20), 1..40)
    ) {
        let mut g = Graph::new(10);
        let s = NodeId(8);
        let t = NodeId(9);
        for &(u, v, cap, cost) in &edges {
            if u != v {
                g.add_edge(NodeId(u), NodeId(v), cap, cost);
            }
        }
        // Wire source/sink to a few nodes deterministically.
        g.add_edge(s, NodeId(0), 5, 0);
        g.add_edge(s, NodeId(1), 5, 0);
        g.add_edge(NodeId(6), t, 5, 0);
        g.add_edge(NodeId(7), t, 5, 0);
        let mut solver = MinCostFlow::new(g);
        solver.solve_max(s, t).unwrap();
        let g = solver.graph();
        prop_assert!(check_capacities(g));
        let report = check_conservation(g, s, t);
        prop_assert!(report.is_valid(), "{:?}", report);
        prop_assert!(is_min_cost(g));
    }

    /// Cost of solve_up_to is monotone non-decreasing in the limit and the
    /// marginal cost per unit is non-decreasing (convexity of min-cost
    /// flow in the flow amount).
    #[test]
    fn flow_cost_is_convex_in_amount(
        edges in proptest::collection::vec((0usize..6, 0usize..6, 1i64..5, 0i64..15), 1..25)
    ) {
        let build = || {
            let mut g = Graph::new(8);
            for &(u, v, cap, cost) in &edges {
                if u != v {
                    g.add_edge(NodeId(u), NodeId(v), cap, cost);
                }
            }
            g.add_edge(NodeId(6), NodeId(0), 10, 0);
            g.add_edge(NodeId(5), NodeId(7), 10, 0);
            g
        };
        let mut max_solver = MinCostFlow::new(build());
        let max = max_solver.solve_max(NodeId(6), NodeId(7)).unwrap().flow;
        let mut costs = Vec::new();
        for amount in 0..=max {
            let mut solver = MinCostFlow::new(build());
            let res = solver.solve_exact(NodeId(6), NodeId(7), amount).unwrap();
            costs.push(res.cost);
        }
        // Monotone.
        for w in costs.windows(2) {
            prop_assert!(w[1] >= w[0]);
        }
        // Convex marginals.
        for w in costs.windows(3) {
            prop_assert!(w[2] - w[1] >= w[1] - w[0]);
        }
    }
}
