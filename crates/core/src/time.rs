//! Discretised scheduling time.
//!
//! §III of the paper: "we use a set **T** of `N` time instants to divide
//! the time domain within a sensing scheduling period `[tS, tE]` into
//! small time intervals with equal durations. The measurements are
//! scheduled to be taken only at these time instants."

use crate::CoreError;

/// Index of a time instant within a [`TimeGrid`] (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstantId(pub usize);

impl std::fmt::Display for InstantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The set **T**: `n` equally spaced instants spanning `[start, end]`.
///
/// Instant `i` sits at `start + (i + 1) * spacing` with
/// `spacing = (end - start) / n`, i.e. the grid divides the period into
/// `n` equal intervals and places one measurement opportunity at the end
/// of each — matching the paper's simulation where a 10 800 s period is
/// "divided by 1080 time instants" spaced 10 s apart.
///
/// # Example
///
/// ```
/// use sor_core::time::TimeGrid;
/// let grid = TimeGrid::new(0.0, 10800.0, 1080).unwrap();
/// assert_eq!(grid.spacing(), 10.0);
/// assert_eq!(grid.time_of(sor_core::time::InstantId(0)), 10.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeGrid {
    start: f64,
    end: f64,
    n: usize,
}

impl TimeGrid {
    /// Creates a grid of `n` instants over `[start, end]`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidGrid`] if `end <= start`, `n == 0`, or either
    /// bound is non-finite.
    pub fn new(start: f64, end: f64, n: usize) -> Result<Self, CoreError> {
        if !(start.is_finite() && end.is_finite()) || end <= start || n == 0 {
            return Err(CoreError::InvalidGrid { start, end, instants: n });
        }
        Ok(TimeGrid { start, end, n })
    }

    /// Start of the scheduling period `tS` (seconds).
    pub fn start(&self) -> f64 {
        self.start
    }

    /// End of the scheduling period `tE` (seconds).
    pub fn end(&self) -> f64 {
        self.end
    }

    /// Number of instants `N`.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the grid is empty (never true for a constructed grid, but
    /// required by convention alongside `len`).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Spacing between consecutive instants (seconds).
    pub fn spacing(&self) -> f64 {
        (self.end - self.start) / self.n as f64
    }

    /// Wall-clock time of instant `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn time_of(&self, i: InstantId) -> f64 {
        assert!(i.0 < self.n, "instant {i} out of range (n = {})", self.n);
        self.start + (i.0 as f64 + 1.0) * self.spacing()
    }

    /// Iterates over all instants with their wall-clock times.
    pub fn iter(&self) -> impl Iterator<Item = (InstantId, f64)> + '_ {
        (0..self.n).map(move |i| (InstantId(i), self.time_of(InstantId(i))))
    }

    /// The contiguous range of instants that fall inside `[from, to]`
    /// (the subset `Tk` for a user present during that window).
    /// Returns an empty range if the window misses every instant.
    pub fn instants_within(&self, from: f64, to: f64) -> std::ops::Range<usize> {
        if to < from {
            return 0..0;
        }
        let spacing = self.spacing();
        // Smallest i with time_of(i) >= from.
        let lo = ((from - self.start) / spacing - 1.0).ceil().max(0.0) as usize;
        // Find exact boundaries by scanning at most a couple of cells to
        // dodge floating-point edge cases.
        let mut lo = lo.min(self.n);
        while lo > 0 && self.time_of(InstantId(lo - 1)) >= from {
            lo -= 1;
        }
        while lo < self.n && self.time_of(InstantId(lo)) < from {
            lo += 1;
        }
        let mut hi = lo;
        while hi < self.n && self.time_of(InstantId(hi)) <= to {
            hi += 1;
        }
        lo..hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_simulation_grid() {
        let grid = TimeGrid::new(0.0, 10800.0, 1080).unwrap();
        assert_eq!(grid.spacing(), 10.0);
        assert_eq!(grid.len(), 1080);
        assert_eq!(grid.time_of(InstantId(0)), 10.0);
        assert_eq!(grid.time_of(InstantId(1079)), 10800.0);
    }

    #[test]
    fn rejects_degenerate_grids() {
        assert!(TimeGrid::new(0.0, 0.0, 10).is_err());
        assert!(TimeGrid::new(10.0, 0.0, 10).is_err());
        assert!(TimeGrid::new(0.0, 100.0, 0).is_err());
        assert!(TimeGrid::new(f64::NAN, 100.0, 10).is_err());
        assert!(TimeGrid::new(0.0, f64::INFINITY, 10).is_err());
    }

    #[test]
    fn instants_within_full_period() {
        let grid = TimeGrid::new(0.0, 100.0, 10).unwrap();
        assert_eq!(grid.instants_within(0.0, 100.0), 0..10);
    }

    #[test]
    fn instants_within_partial_window() {
        let grid = TimeGrid::new(0.0, 100.0, 10).unwrap();
        // Instants at 10, 20, ..., 100. Window [25, 65] -> 30,40,50,60 = ids 2..6.
        assert_eq!(grid.instants_within(25.0, 65.0), 2..6);
    }

    #[test]
    fn instants_within_boundary_inclusive() {
        let grid = TimeGrid::new(0.0, 100.0, 10).unwrap();
        assert_eq!(grid.instants_within(20.0, 40.0), 1..4);
    }

    #[test]
    fn instants_within_empty_window() {
        let grid = TimeGrid::new(0.0, 100.0, 10).unwrap();
        assert_eq!(grid.instants_within(11.0, 19.0), 1..1);
        assert_eq!(grid.instants_within(60.0, 50.0), 0..0);
    }

    #[test]
    fn instants_within_window_outside_period() {
        let grid = TimeGrid::new(0.0, 100.0, 10).unwrap();
        assert_eq!(grid.instants_within(200.0, 300.0), 10..10);
        assert!(grid.instants_within(200.0, 300.0).is_empty());
    }

    #[test]
    fn iter_yields_all_instants_in_order() {
        let grid = TimeGrid::new(0.0, 30.0, 3).unwrap();
        let v: Vec<_> = grid.iter().collect();
        assert_eq!(v, vec![(InstantId(0), 10.0), (InstantId(1), 20.0), (InstantId(2), 30.0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn time_of_out_of_range_panics() {
        let grid = TimeGrid::new(0.0, 30.0, 3).unwrap();
        grid.time_of(InstantId(3));
    }

    #[test]
    fn nonzero_start_offsets_times() {
        let grid = TimeGrid::new(100.0, 200.0, 4).unwrap();
        assert_eq!(grid.spacing(), 25.0);
        assert_eq!(grid.time_of(InstantId(0)), 125.0);
        assert_eq!(grid.instants_within(150.0, 200.0), 1..4);
    }
}
