//! The coverage objective (eq. 1 and 4 of the paper) and its incremental
//! evaluation.
//!
//! For a set `Φ` of measurement instants, instant `tj` is covered with
//! probability `p(tj, Φ) = 1 − Π_{ti∈Φ} (1 − p(ti, tj))` (eq. 1). The
//! objective of the scheduling problem (eq. 4) is `f(Ψ) = Σ_j p(tj, Ψ)` —
//! a non-negative, monotone, submodular set function.
//!
//! [`CoverageState`] maintains `q_j = Π (1 − p(ti, tj))` per instant so
//! that marginal gains evaluate in `O(window)` instead of `O(N)` per
//! candidate, where `window` is the kernel's support radius expressed in
//! grid cells.
//!
//! Instants sit on a uniform grid and every kernel depends only on
//! `|ti − tj|`, so `p` is a function of the lag `|i − j|` in cells. The
//! state evaluates the kernel once per lag when it is built and reads
//! that table afterwards; marginal gains and commits never call the
//! model. The table entry for lag `d` is `p(0, d·spacing)`, which is
//! bit-identical to `p(ti, tj)` whenever `tj − ti` is exactly
//! `(j − i)·spacing` — true for every grid whose start and spacing are
//! small integers, like the paper's 10 s and 30 s grids. On other grids
//! only the rounding of absolute instant times differs.

use crate::coverage::CoverageModel;
use crate::time::{InstantId, TimeGrid};

/// Incrementally maintained coverage of a growing measurement set.
///
/// # Example
///
/// ```
/// use sor_core::coverage::{CoverageState, GaussianCoverage};
/// use sor_core::time::{InstantId, TimeGrid};
///
/// let grid = TimeGrid::new(0.0, 100.0, 10).unwrap();
/// let model = GaussianCoverage::new(10.0);
/// let mut state = CoverageState::new(&grid, &model);
/// let gain = state.marginal_gain(InstantId(4));
/// state.add(InstantId(4));
/// assert!((state.total() - gain).abs() < 1e-9);
/// // Diminishing returns: re-measuring the same instant gains less.
/// assert!(state.marginal_gain(InstantId(4)) < gain);
/// ```
#[derive(Clone)]
pub struct CoverageState {
    /// The kernel by signed lag: `kernel[radius + k] = p(0, |k|·spacing)`
    /// for `k` in `−radius..=radius`, so the cells an instant reaches
    /// line up with one contiguous slice.
    kernel: Vec<f64>,
    /// Kernel support radius in whole grid cells, capped at `N − 1`.
    radius: usize,
    /// `q_j = Π (1 − p(ti, tj))` over measurements added so far.
    uncovered: Vec<f64>,
    /// Σ_j w_j·(1 − q_j), the (possibly decay-weighted) objective value.
    total: f64,
    /// Per-instant value weights from a decay curve. `None` means every
    /// weight is 1 and the unweighted floating-point path is taken, so
    /// zero-decay results are byte-identical to the original objective.
    weights: Option<Vec<f64>>,
}

impl std::fmt::Debug for CoverageState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoverageState")
            .field("instants", &self.uncovered.len())
            .field("total", &self.total)
            .field("radius", &self.radius)
            .finish()
    }
}

impl CoverageState {
    /// Fresh state with no measurements.
    pub fn new(grid: &TimeGrid, model: &dyn CoverageModel) -> Self {
        Self::weighted(grid, model, None)
    }

    /// Fresh state whose objective weights instant `j` by `weights[j]`
    /// (decay-weighted value, eq. 4 generalised). `None` is the
    /// unweighted objective. Evaluates the kernel once per lag in
    /// `0..=radius`.
    ///
    /// # Panics
    ///
    /// Panics if a weight vector of the wrong length is supplied.
    pub fn weighted(grid: &TimeGrid, model: &dyn CoverageModel, weights: Option<Vec<f64>>) -> Self {
        let n = grid.len();
        if let Some(w) = &weights {
            assert_eq!(w.len(), n, "weight vector must match grid length");
        }
        let spacing = grid.spacing();
        let r = model.support_radius();
        let radius = if r.is_finite() { ((r / spacing).ceil() as usize).min(n - 1) } else { n - 1 };
        let lag: Vec<f64> = (0..=radius).map(|d| model.p(0.0, d as f64 * spacing)).collect();
        let kernel = lag[1..].iter().rev().chain(&lag).copied().collect();
        CoverageState { kernel, radius, uncovered: vec![1.0; n], total: 0.0, weights }
    }

    /// The instants the kernel reaches from `i`, and the matching slice
    /// of `kernel`, as index ranges of equal length.
    fn span(&self, i: usize) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
        let lo = i.saturating_sub(self.radius);
        let hi = (i + self.radius + 1).min(self.uncovered.len());
        (lo..hi, self.radius + lo - i..self.radius + hi - i)
    }

    /// Objective increase from adding a measurement at instant `i`
    /// (without committing it): `Σ_j w_j · q_j · p(ti, tj)`, summed in
    /// ascending `j`.
    pub fn marginal_gain(&self, i: InstantId) -> f64 {
        let (js, ks) = self.span(i.0);
        let cells = self.uncovered[js.clone()].iter().zip(&self.kernel[ks]);
        let mut gain = 0.0;
        match &self.weights {
            None => {
                for (&q, &p) in cells {
                    if q > 0.0 {
                        gain += q * p;
                    }
                }
            }
            Some(w) => {
                for ((&q, &p), &w) in cells.zip(&w[js]) {
                    if q > 0.0 {
                        gain += w * (q * p);
                    }
                }
            }
        }
        gain
    }

    /// Commits a measurement at instant `i`, updating coverage. Duplicate
    /// instants are allowed (as produced by the paper's baseline
    /// scheduler when several users sense simultaneously); each repeat
    /// multiplies the miss probabilities again.
    pub fn add(&mut self, i: InstantId) {
        let (js, ks) = self.span(i.0);
        let cells = self.uncovered[js.clone()].iter_mut().zip(&self.kernel[ks]);
        // Lowers q by the factor (1 − p) and returns the coverage gained.
        let cover = |q: &mut f64, p: f64| {
            let before = *q;
            *q = before * (1.0 - p);
            before - *q
        };
        match &self.weights {
            None => {
                for (q, &p) in cells {
                    if p > 0.0 {
                        self.total += cover(q, p);
                    }
                }
            }
            Some(w) => {
                for ((q, &p), &w) in cells.zip(&w[js]) {
                    if p > 0.0 {
                        self.total += w * cover(q, p);
                    }
                }
            }
        }
    }

    /// Current objective value `f(Ψ) = Σ_j w_j · p(tj, Ψ)` (weights all
    /// 1 unless the state was built via [`CoverageState::weighted`]).
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Coverage probability of a single instant under the current set.
    pub fn coverage_of(&self, j: InstantId) -> f64 {
        1.0 - self.uncovered[j.0]
    }

    /// Average coverage probability (objective / N) — the evaluation
    /// metric of §V-C.
    pub fn average(&self) -> f64 {
        self.total / self.uncovered.len() as f64
    }
}

/// One-shot evaluation of the objective for a finished set of measurement
/// instants (duplicates allowed). Used as the reference implementation in
/// tests; `O(|instants| · window)`.
pub fn coverage_of_instants(
    grid: &TimeGrid,
    model: &dyn CoverageModel,
    instants: &[InstantId],
) -> f64 {
    let mut state = CoverageState::new(grid, model);
    for &i in instants {
        state.add(i);
    }
    state.total()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::{
        CompositeCoverage, ExponentialCoverage, GaussianCoverage, TriangularCoverage,
    };
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The objective as first written: every gain and commit calls the
    /// model on the two instants' absolute times.
    struct DirectState<'a> {
        grid: &'a TimeGrid,
        model: &'a dyn CoverageModel,
        window: Option<usize>,
        uncovered: Vec<f64>,
        total: f64,
        weights: Option<Vec<f64>>,
    }

    impl<'a> DirectState<'a> {
        fn new(
            grid: &'a TimeGrid,
            model: &'a dyn CoverageModel,
            weights: Option<Vec<f64>>,
        ) -> Self {
            let r = model.support_radius();
            let window = r.is_finite().then(|| (r / grid.spacing()).ceil() as usize);
            DirectState {
                grid,
                model,
                window,
                uncovered: vec![1.0; grid.len()],
                total: 0.0,
                weights,
            }
        }

        fn reach(&self, i: usize) -> std::ops::Range<usize> {
            match self.window {
                Some(w) => i.saturating_sub(w)..(i + w + 1).min(self.grid.len()),
                None => 0..self.grid.len(),
            }
        }

        fn p(&self, i: usize, j: usize) -> f64 {
            self.model.p(self.grid.time_of(InstantId(i)), self.grid.time_of(InstantId(j)))
        }

        fn marginal_gain(&self, i: usize) -> f64 {
            let mut gain = 0.0;
            for j in self.reach(i) {
                let q = self.uncovered[j];
                if q > 0.0 {
                    gain += match &self.weights {
                        None => q * self.p(i, j),
                        Some(w) => w[j] * (q * self.p(i, j)),
                    };
                }
            }
            gain
        }

        fn add(&mut self, i: usize) {
            for j in self.reach(i) {
                let p = self.p(i, j);
                if p > 0.0 {
                    let before = self.uncovered[j];
                    let after = before * (1.0 - p);
                    self.uncovered[j] = after;
                    let delta = before - after;
                    self.total += match &self.weights {
                        None => delta,
                        Some(w) => w[j] * delta,
                    };
                }
            }
        }
    }

    /// The server's coverage kernel for the coffee features (σ = 60, 30,
    /// 10 and 10 s).
    fn coffee_composite() -> CompositeCoverage {
        CompositeCoverage::of_sigmas(&[60.0, 30.0, 10.0, 10.0])
    }

    fn kernels() -> Vec<(&'static str, Box<dyn CoverageModel>)> {
        vec![
            ("gaussian", Box::new(GaussianCoverage::new(10.0))),
            ("composite", Box::new(coffee_composite())),
            ("exponential", Box::new(ExponentialCoverage::new(20.0))),
            ("triangular", Box::new(TriangularCoverage::new(45.0))),
        ]
    }

    /// Drives the table state and the direct reference through the same
    /// commits (repeats included) and hands every gain, coverage and
    /// total pair to `check`.
    fn compare(
        grid: &TimeGrid,
        model: &dyn CoverageModel,
        weights: Option<Vec<f64>>,
        check: &mut dyn FnMut(&str, f64, f64),
    ) {
        let n = grid.len();
        let mut table = CoverageState::weighted(grid, model, weights.clone());
        let mut direct = DirectState::new(grid, model, weights);
        let picks: Vec<usize> =
            (0..n).step_by(n / 9 + 1).chain([n - 1, 0, n / 2, n / 2 + 1, n / 2]).collect();
        for i in picks {
            for probe in (0..n).step_by(7).chain([0, i, n - 1]) {
                check("gain", table.marginal_gain(InstantId(probe)), direct.marginal_gain(probe));
            }
            table.add(InstantId(i));
            direct.add(i);
            check("total", table.total(), direct.total);
        }
        for j in 0..n {
            check("coverage", table.coverage_of(InstantId(j)), 1.0 - direct.uncovered[j]);
        }
    }

    #[test]
    fn lag_table_is_bit_identical_on_the_paper_grids() {
        for grid in
            [TimeGrid::new(0.0, 10800.0, 1080).unwrap(), TimeGrid::new(0.0, 10800.0, 360).unwrap()]
        {
            let n = grid.len();
            let decay: Vec<f64> = (0..n).map(|j| (-0.001 * j as f64).exp()).collect();
            for (name, model) in kernels() {
                for weights in [None, Some(decay.clone())] {
                    compare(&grid, model.as_ref(), weights, &mut |what, got, want| {
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{name} n={n} {what}: {got} vs {want}"
                        );
                    });
                }
            }
        }
    }

    #[test]
    fn lag_table_agrees_closely_on_a_non_dyadic_grid() {
        // Spacing 100/7 is not exact in binary, so absolute instant times
        // round differently from lag · spacing.
        let grid = TimeGrid::new(0.0, 100.0, 7).unwrap();
        for (name, model) in kernels() {
            compare(&grid, model.as_ref(), None, &mut |what, got, want| {
                let scale = want.abs().max(f64::MIN_POSITIVE);
                assert!((got - want).abs() <= 1e-12 * scale, "{name} {what}: {got} vs {want}");
            });
        }
    }

    /// Counts kernel evaluations.
    struct Counting {
        inner: GaussianCoverage,
        calls: AtomicUsize,
    }

    impl CoverageModel for Counting {
        fn p(&self, ti: f64, tj: f64) -> f64 {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.inner.p(ti, tj)
        }

        fn support_radius(&self) -> f64 {
            self.inner.support_radius()
        }
    }

    #[test]
    fn kernel_runs_once_per_lag_per_state() {
        let model = Counting { inner: GaussianCoverage::new(20.0), calls: AtomicUsize::new(0) };
        for (grid, lags) in [
            // σ = 20 s reaches 160 s: 16 cells of 10 s, lags 0..=16.
            (TimeGrid::new(0.0, 10800.0, 1080).unwrap(), 17),
            // The radius is capped at N − 1 on a short grid.
            (TimeGrid::new(0.0, 50.0, 5).unwrap(), 5),
        ] {
            model.calls.store(0, Ordering::Relaxed);
            let mut state = CoverageState::new(&grid, &model);
            assert_eq!(model.calls.load(Ordering::Relaxed), lags);
            for i in 0..grid.len() {
                state.marginal_gain(InstantId(i));
                state.add(InstantId(i));
            }
            assert_eq!(
                model.calls.load(Ordering::Relaxed),
                lags,
                "gains and commits read the table"
            );
        }
    }

    fn grid100() -> TimeGrid {
        TimeGrid::new(0.0, 100.0, 10).unwrap()
    }

    /// Naive O(N·|Φ|) objective, no incremental tricks, no windowing.
    fn naive_objective(grid: &TimeGrid, model: &dyn CoverageModel, instants: &[InstantId]) -> f64 {
        let mut total = 0.0;
        for (_, tj) in grid.iter() {
            let mut miss = 1.0;
            for &i in instants {
                miss *= 1.0 - model.p(grid.time_of(i), tj);
            }
            total += 1.0 - miss;
        }
        total
    }

    #[test]
    fn empty_set_has_zero_coverage() {
        let grid = grid100();
        let model = GaussianCoverage::new(10.0);
        let state = CoverageState::new(&grid, &model);
        assert_eq!(state.total(), 0.0);
        assert_eq!(state.average(), 0.0);
    }

    #[test]
    fn incremental_matches_naive() {
        let grid = grid100();
        let model = GaussianCoverage::new(10.0);
        let picks = vec![InstantId(0), InstantId(3), InstantId(3), InstantId(9)];
        let inc = coverage_of_instants(&grid, &model, &picks);
        let naive = naive_objective(&grid, &model, &picks);
        assert!((inc - naive).abs() < 1e-9, "inc={inc} naive={naive}");
    }

    #[test]
    fn windowed_kernel_matches_naive() {
        let grid = TimeGrid::new(0.0, 1000.0, 100).unwrap();
        let model = TriangularCoverage::new(25.0);
        let picks: Vec<_> = (0..100).step_by(7).map(InstantId).collect();
        let inc = coverage_of_instants(&grid, &model, &picks);
        let naive = naive_objective(&grid, &model, &picks);
        assert!((inc - naive).abs() < 1e-9);
    }

    #[test]
    fn marginal_gain_equals_delta_total() {
        let grid = grid100();
        let model = GaussianCoverage::new(15.0);
        let mut state = CoverageState::new(&grid, &model);
        state.add(InstantId(2));
        let before = state.total();
        let gain = state.marginal_gain(InstantId(5));
        state.add(InstantId(5));
        assert!((state.total() - before - gain).abs() < 1e-9);
    }

    #[test]
    fn monotone_and_submodular_on_chain() {
        let grid = grid100();
        let model = GaussianCoverage::new(10.0);
        // Submodularity spot check: gain of x after a small set >= gain
        // of x after a superset.
        let x = InstantId(5);
        let mut small = CoverageState::new(&grid, &model);
        small.add(InstantId(1));
        let gain_small = small.marginal_gain(x);

        let mut big = CoverageState::new(&grid, &model);
        big.add(InstantId(1));
        big.add(InstantId(4));
        big.add(InstantId(6));
        let gain_big = big.marginal_gain(x);

        assert!(gain_small >= gain_big - 1e-12);
        // Monotone: every add increases the total.
        assert!(big.total() >= small.total());
    }

    #[test]
    fn coverage_of_reports_per_instant() {
        let grid = grid100();
        let model = GaussianCoverage::new(10.0);
        let mut state = CoverageState::new(&grid, &model);
        state.add(InstantId(4));
        assert!((state.coverage_of(InstantId(4)) - 1.0).abs() < 1e-12);
        assert!(state.coverage_of(InstantId(5)) > state.coverage_of(InstantId(9)));
    }

    #[test]
    fn average_is_total_over_n() {
        let grid = grid100();
        let model = GaussianCoverage::new(10.0);
        let mut state = CoverageState::new(&grid, &model);
        for i in 0..10 {
            state.add(InstantId(i));
        }
        assert!((state.average() - state.total() / 10.0).abs() < 1e-12);
        assert!(state.average() <= 1.0 + 1e-12);
    }

    #[test]
    fn weighted_state_scales_value_not_probability() {
        let grid = grid100();
        let model = GaussianCoverage::new(10.0);
        let weights: Vec<f64> = (0..10).map(|j| 1.0 / (1.0 + j as f64)).collect();
        let mut plain = CoverageState::new(&grid, &model);
        let mut weighted = CoverageState::weighted(&grid, &model, Some(weights.clone()));
        for i in [2usize, 7] {
            plain.add(InstantId(i));
            weighted.add(InstantId(i));
        }
        // Probabilities are identical; only the value of covering differs.
        for j in 0..10 {
            assert_eq!(
                plain.coverage_of(InstantId(j)).to_bits(),
                weighted.coverage_of(InstantId(j)).to_bits()
            );
        }
        let manual: f64 = (0..10).map(|j| weights[j] * plain.coverage_of(InstantId(j))).sum();
        assert!((weighted.total() - manual).abs() < 1e-9);
        assert!(weighted.total() < plain.total());
    }

    #[test]
    fn weighted_marginal_gain_equals_delta_total() {
        let grid = grid100();
        let model = GaussianCoverage::new(15.0);
        let weights: Vec<f64> = (0..10).map(|j| (-0.02 * 10.0 * j as f64).exp()).collect();
        let mut state = CoverageState::weighted(&grid, &model, Some(weights));
        state.add(InstantId(1));
        let before = state.total();
        let gain = state.marginal_gain(InstantId(6));
        state.add(InstantId(6));
        assert!((state.total() - before - gain).abs() < 1e-9);
    }

    #[test]
    fn unit_weights_match_unweighted_bitwise() {
        // `Some(vec![1.0; n])` takes the weighted code path; the result
        // must still agree (up to the extra multiply) with unweighted.
        let grid = grid100();
        let model = GaussianCoverage::new(10.0);
        let mut a = CoverageState::new(&grid, &model);
        let mut b = CoverageState::weighted(&grid, &model, Some(vec![1.0; 10]));
        for i in 0..10 {
            a.add(InstantId(i));
            b.add(InstantId(i));
        }
        assert_eq!(a.total().to_bits(), b.total().to_bits(), "w=1 multiplies are exact");
    }

    #[test]
    #[should_panic(expected = "weight vector")]
    fn wrong_length_weights_rejected() {
        let grid = grid100();
        let model = GaussianCoverage::new(10.0);
        let _ = CoverageState::weighted(&grid, &model, Some(vec![1.0; 3]));
    }

    #[test]
    fn saturation_approaches_full_coverage() {
        let grid = grid100();
        let model = GaussianCoverage::new(10.0);
        let mut state = CoverageState::new(&grid, &model);
        for _ in 0..5 {
            for i in 0..10 {
                state.add(InstantId(i));
            }
        }
        assert!(state.average() > 0.999);
    }
}
