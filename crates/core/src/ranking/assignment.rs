//! The assignment kernel behind footrule aggregation (§IV-B).
//!
//! Step 3 of Algorithm 2 assigns `n` places to `n` rank positions at
//! minimum total cost. The paper routes `n` units of min-cost flow on the
//! bipartite network `s → place → position → z` with unit capacities
//! (its ref. \[1\], Ahuja–Magnanti–Orlin). This kernel runs the same
//! successive-shortest-path algorithm densely on the `n × n` cost
//! matrix: dual potentials keep reduced costs non-negative, and each of
//! the `n` augmentations routes one place along a shortest alternating
//! path (the Hungarian / Kuhn–Munkres method, `O(n³)`).
//!
//! Tied optima are broken canonically. Among all minimum-cost
//! assignments the kernel returns the one whose best-first sequence of
//! place ids is lexicographically smallest, so the order never depends
//! on how a solver happens to walk the ties.

/// Minimum-cost assignment of rows (places) to columns (positions) for
/// the square matrix `cost`, with canonical ties. Returns the order:
/// entry `p` is the row assigned to column `p`.
///
/// Costs are exact integers, so the final duals `u`, `v` characterise
/// every optimum exactly: by complementary slackness the optimal
/// assignments are precisely the perfect matchings on the *tight*
/// edges, those with `cost[i][j] = u[i] + v[j]`. Positions `0..n` are
/// then fixed in turn to the smallest place that still admits such a
/// matching.
pub(super) fn canonical_order(cost: &[Vec<i64>]) -> Vec<usize> {
    let (mut order, u, v) = shortest_augmenting_paths(cost);
    canonicalize(cost, &u, &v, &mut order);
    order
}

/// One augmentation per row, each along a shortest path in reduced
/// costs. Returns `(order, u, v)`: `order[j]` is the row matched to
/// column `j`; `u`/`v` are optimal row/column duals.
fn shortest_augmenting_paths(cost: &[Vec<i64>]) -> (Vec<usize>, Vec<i64>, Vec<i64>) {
    let n = cost.len();
    // 1-indexed arrays, the classic formulation: index 0 is a virtual
    // column holding the row being inserted; p[j] = row matched to
    // column j (0 = free).
    let mut u = vec![0i64; n + 1];
    let mut v = vec![0i64; n + 1];
    let mut p = vec![0usize; n + 1];
    let mut way = vec![0usize; n + 1];
    let mut minv = vec![i64::MAX; n + 1];
    let mut used = vec![false; n + 1];
    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        minv.fill(i64::MAX);
        used.fill(false);
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = i64::MAX;
            let mut j1 = 0usize;
            for j in 1..=n {
                if used[j] {
                    continue;
                }
                let cur = cost[i0 - 1][j - 1] - u[i0] - v[j];
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < delta {
                    delta = minv[j];
                    j1 = j;
                }
            }
            for j in 0..=n {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        // Augment along the alternating path back to the virtual column.
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }
    let order = p[1..].iter().map(|&i| i - 1).collect();
    (order, u[1..].to_vec(), v[1..].to_vec())
}

/// Rewrites the optimal `order` into the lexicographically smallest
/// optimal one, moving only along tight edges.
///
/// For position `p` held by place `cur`, a smaller place `i` tight at
/// `p` can take it iff the tight graph on the unfixed positions holds an
/// alternating path from `cur` to `i`'s position: `cur` steps onto that
/// path and every place on it moves one hop along. One breadth-first
/// search from `cur` per position finds every such `i` at once.
fn canonicalize(cost: &[Vec<i64>], u: &[i64], v: &[i64], order: &mut [usize]) {
    let n = order.len();
    let tight = |i: usize, j: usize| cost[i][j] - u[i] - v[j] == 0;
    let mut position = vec![0usize; n];
    for (j, &i) in order.iter().enumerate() {
        position[i] = j;
    }
    // reached_by[q]: the place whose tight edge first reached position q.
    let mut reached_by = vec![usize::MAX; n];
    let mut queue = Vec::with_capacity(n);
    for p in 0..n {
        let cur = order[p];
        // Places at positions below p are fixed; an unfixed smaller
        // place sits strictly after p.
        let candidate = |i: usize| position[i] > p && tight(i, p);
        if !(0..cur).any(candidate) {
            continue;
        }
        reached_by.fill(usize::MAX);
        queue.clear();
        queue.push(cur);
        let mut head = 0;
        while let Some(&a) = queue.get(head) {
            head += 1;
            for q in p + 1..n {
                if reached_by[q] == usize::MAX && tight(a, q) {
                    reached_by[q] = a;
                    queue.push(order[q]);
                }
            }
        }
        let Some(i) = (0..cur).find(|&i| candidate(i) && reached_by[position[i]] != usize::MAX)
        else {
            continue;
        };
        let mut q = position[i];
        loop {
            let a = reached_by[q];
            let next = position[a];
            order[q] = a;
            position[a] = q;
            if a == cur {
                break;
            }
            q = next;
        }
        order[p] = i;
        position[i] = p;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total(cost: &[Vec<i64>], order: &[usize]) -> i64 {
        order.iter().enumerate().map(|(j, &i)| cost[i][j]).sum()
    }

    /// Every order in lexicographic order; the first one of minimum cost
    /// is the canonical optimum.
    fn brute_force(cost: &[Vec<i64>]) -> (Vec<usize>, i64) {
        fn rec(
            cost: &[Vec<i64>],
            cur: &mut Vec<usize>,
            used: &mut [bool],
            best: &mut (Vec<usize>, i64),
        ) {
            if cur.len() == cost.len() {
                let c = total(cost, cur);
                if c < best.1 {
                    *best = (cur.clone(), c);
                }
                return;
            }
            for i in 0..cost.len() {
                if !used[i] {
                    used[i] = true;
                    cur.push(i);
                    rec(cost, cur, used, best);
                    cur.pop();
                    used[i] = false;
                }
            }
        }
        let mut best = (Vec::new(), i64::MAX);
        rec(cost, &mut Vec::new(), &mut vec![false; cost.len()], &mut best);
        best
    }

    #[test]
    fn solves_identity_like_matrix() {
        let cost = vec![vec![0, 9, 9], vec![9, 0, 9], vec![9, 9, 0]];
        assert_eq!(canonical_order(&cost), vec![0, 1, 2]);
    }

    #[test]
    fn solves_known_3x3() {
        let cost = vec![vec![4, 1, 3], vec![2, 0, 5], vec![3, 2, 2]];
        assert_eq!(total(&cost, &canonical_order(&cost)), 5);
    }

    #[test]
    fn one_by_one_matrix() {
        assert_eq!(canonical_order(&[vec![42]]), vec![0]);
    }

    #[test]
    fn assignment_is_a_permutation() {
        let cost = vec![vec![7, 2, 1, 9], vec![4, 3, 6, 0], vec![5, 8, 2, 2], vec![1, 1, 4, 3]];
        let mut seen = [false; 4];
        for i in canonical_order(&cost) {
            assert!(!seen[i], "row {i} assigned twice");
            seen[i] = true;
        }
    }

    #[test]
    fn matches_brute_force_on_fixed_matrices() {
        let matrices = vec![
            vec![vec![3]],
            vec![vec![1, 2], vec![2, 1]],
            vec![vec![10, 4, 7], vec![5, 8, 3], vec![9, 6, 11]],
            vec![vec![0, 0, 0, 0], vec![0, 1, 2, 3], vec![3, 2, 1, 0], vec![1, 3, 0, 2]],
            vec![vec![1, 1, 2, 2], vec![1, 1, 2, 2], vec![2, 2, 1, 1], vec![2, 2, 1, 1]],
        ];
        for cost in matrices {
            assert_eq!(canonical_order(&cost), brute_force(&cost).0, "matrix {cost:?}");
        }
    }

    #[test]
    fn handles_negative_costs() {
        let cost = vec![vec![-5, 2], vec![3, -4]];
        let order = canonical_order(&cost);
        assert_eq!(order, vec![0, 1]);
        assert_eq!(total(&cost, &order), -9);
    }

    #[test]
    fn handles_large_uniform_matrix() {
        let n = 50;
        let cost = vec![vec![7i64; n]; n];
        // Every assignment is optimal; the canonical one is the identity.
        assert_eq!(canonical_order(&cost), (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn ties_resolve_to_the_lexicographically_smallest_optimum() {
        // Rows 0 and 1 are interchangeable, so [0, 1] and [1, 0] both
        // cost 1; the augmenting paths alone settle on [1, 0].
        let cost = vec![vec![1, 0], vec![1, 0]];
        assert_eq!(canonical_order(&cost), vec![0, 1]);
        // Costs drawn from 0..3 tie often.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for n in 1..=6 {
            for _ in 0..40 {
                let cost: Vec<Vec<i64>> = (0..n)
                    .map(|_| {
                        (0..n)
                            .map(|_| {
                                state ^= state << 13;
                                state ^= state >> 7;
                                state ^= state << 17;
                                (state % 3) as i64
                            })
                            .collect()
                    })
                    .collect();
                assert_eq!(canonical_order(&cost), brute_force(&cost).0, "matrix {cost:?}");
            }
        }
    }
}
